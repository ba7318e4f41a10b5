"""Built-in benchmark cases for the three inverse problems.

Case ids follow the experiment-config contract: "5.1i" and "5.1ii" recover
an initial state (1D / 2D), "5.2i" and "5.2ii" a space-dependent source
f(x) (1D / 2D), "5.3" a potential (1D). Each case fixes the known fields, the
hidden truth, the true terminal time 0.5, and per-order Levenberg-Marquardt
defaults. Exact data is synthesized from closed-form sine coefficients for
the 1D backward and source cases, and by the FEM solver on a finer
space-time mesh than the inversion mesh for the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .fem import solve_fem
from .grids import Grid1D, Grid2D, GridLike
from .inverse import InverseSetup, LMConfig
from .problems import TimeGrid
from .spectral import build_eigendecomposition, estimate_T, propagate_modes

__all__ = ["BenchmarkCase", "get_case", "CASE_IDS", "exact_observation",
           "make_setup", "lm_config_for", "tensor_sine_basis",
           "estimate_prior_T"]

T_TRUE = 0.5


def _hat(x):
    return np.minimum(x, 1.0 - x)


@dataclass(frozen=True)
class BenchmarkCase:
    case_id: str
    kind: str  # bp | isp | ipp
    domain: str  # interval | unit_square
    truth: Callable
    u0: Optional[Callable]  # known initial state (isp/ipp); None for bp
    f: Optional[Callable]  # known source (bp/ipp); None for isp
    diffusion: Callable | float
    dirichlet: Optional[tuple[float, float]]
    lm_defaults: dict  # alpha -> (gamma0, mu0, rho)
    default_n: int
    default_steps: int
    # exact sine coefficients (w.r.t. sqrt(2) sin(n pi x)) of the estimator's
    # reference field (every interval case) and of the hidden truth (the 1D
    # backward and source cases, whose data is synthesized from them); they
    # avoid aliasing bias in the lambda_n-amplified mode ratios
    ref_sine_coeff: Optional[Callable[[np.ndarray], np.ndarray]] = None
    truth_sine_coeff: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def truth_nodal(self, grid: GridLike) -> np.ndarray:
        from .grids import as_nodal_values

        return as_nodal_values(self.truth, grid)


_CASES = {
    "5.1i": BenchmarkCase(
        case_id="5.1i",
        kind="bp",
        domain="interval",
        truth=lambda x: np.sin(np.pi * x),
        u0=None,
        f=_hat,
        diffusion=1.0,
        dirichlet=None,
        lm_defaults={
            0.25: (1e-2, 2.7e-3, 0.8),
            0.50: (1e-2, 6.3e-3, 0.8),
            0.75: (1e-2, 1.3e-2, 0.8),
        },
        default_n=128,
        default_steps=512,
        ref_sine_coeff=lambda n: np.sqrt(2.0) * 2.0 * np.sin(n * np.pi / 2) / (n * np.pi) ** 2,
        truth_sine_coeff=lambda n: np.where(n == 1, 1.0 / np.sqrt(2.0), 0.0),
    ),
    "5.1ii": BenchmarkCase(
        case_id="5.1ii",
        kind="bp",
        domain="unit_square",
        truth=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        u0=None,
        f=lambda x, y: _hat(x) * np.exp(x) * np.sin(2 * np.pi * y),
        diffusion=lambda x, y: 1.0 + np.sin(np.pi * x) * y * (1.0 - y),
        dirichlet=None,
        lm_defaults={
            0.25: (1e-3, 1.1e-4, 0.8),
            0.50: (1e-3, 2.7e-4, 0.8),
            0.75: (1e-3, 6e-4, 0.8),
        },
        default_n=32,
        default_steps=64,
    ),
    "5.2i": BenchmarkCase(
        case_id="5.2i",
        kind="isp",
        domain="interval",
        truth=lambda x: np.sin(3 * np.pi * x),
        u0=lambda x: np.sin(2 * np.pi * x),
        f=None,
        diffusion=1.0,
        dirichlet=None,
        lm_defaults={
            0.25: (1e-4, 1e-8, 0.8),
            0.50: (1e-4, 5e-8, 0.8),
            0.75: (1e-4, 1e-7, 0.8),
        },
        default_n=128,
        default_steps=512,
        ref_sine_coeff=lambda n: np.where(n == 2, 1.0 / np.sqrt(2.0), 0.0),
        truth_sine_coeff=lambda n: np.where(n == 3, 1.0 / np.sqrt(2.0), 0.0),
    ),
    "5.2ii": BenchmarkCase(
        case_id="5.2ii",
        kind="isp",
        domain="unit_square",
        truth=lambda x, y: 4.0 * x * (1.0 - x) * np.exp(x) * np.sin(2 * np.pi * y),
        u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        f=None,
        diffusion=lambda x, y: 1.0 + np.sin(np.pi * x) * y * (1.0 - y),
        dirichlet=None,
        lm_defaults={
            0.25: (1e-4, 1e-9, 0.8),
            0.50: (1e-4, 1e-9, 0.8),
            0.75: (1e-4, 1e-9, 0.8),
        },
        default_n=32,
        default_steps=64,
    ),
    "5.3": BenchmarkCase(
        case_id="5.3",
        kind="ipp",
        domain="interval",
        truth=lambda x: np.sin(np.pi * x) ** 4,
        u0=lambda x: np.ones_like(x),
        f=lambda x: np.abs(np.sin(2 * np.pi * x)),
        diffusion=1.0,
        dirichlet=(0.0, 0.0),
        lm_defaults={
            0.25: (1e-7, 1e-8, 0.5),
            0.50: (1e-7, 1e-8, 0.5),
            0.75: (1e-7, 1e-8, 0.5),
        },
        default_n=128,
        default_steps=512,
        # u0 - phi_0 = 1 with zero boundary values
        ref_sine_coeff=lambda n: np.where(n % 2 == 1, 2.0 * np.sqrt(2.0) / (n * np.pi), 0.0),
    ),
}

CASE_IDS = tuple(sorted(_CASES))


def get_case(case_id: str) -> BenchmarkCase:
    try:
        return _CASES[case_id]
    except KeyError:
        raise ConfigError(f"unknown case {case_id!r}; known: {', '.join(CASE_IDS)}")


def tensor_sine_basis(grid: Grid2D, k: int) -> np.ndarray:
    """L2-orthonormal 2 sin(i pi x) sin(j pi y), i, j = 1..k, as nodal rows."""
    pts = grid.nodes
    rows = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            rows.append(2.0 * np.sin(i * np.pi * pts[:, 0]) * np.sin(j * np.pi * pts[:, 1]))
    return np.array(rows)


def make_setup(case: BenchmarkCase, alpha: float, n: Optional[int] = None,
               n_steps: Optional[int] = None, basis: Optional[np.ndarray] = None) -> InverseSetup:
    n = n or case.default_n
    n_steps = n_steps or case.default_steps
    grid = Grid1D(n) if case.domain == "interval" else Grid2D(n)
    return InverseSetup(
        case.kind,
        grid,
        alpha,
        n_steps,
        diffusion=case.diffusion,
        u0=case.u0,
        f=case.f,
        dirichlet=case.dirichlet,
        basis=basis,
    )


# Per-iteration relative cap on the time step. The backward and source
# problems carry a compensation ridge (any time is data-consistent with an
# adjusted space parameter), so their time iterate is kept close to its
# prior; the potential problem is ridge-free and may travel.
T_STEP_CAPS = {"bp": 2e-4, "isp": 5e-3, "ipp": 2e-2}


def lm_config_for(case: BenchmarkCase, alpha: float, *, T_init: float = 0.4,
                  max_iter: int = 30, stop: str = "oracle", **overrides) -> LMConfig:
    if alpha not in case.lm_defaults:
        raise ConfigError(f"case {case.case_id} has no defaults for alpha={alpha}")
    gamma0, mu0, rho = case.lm_defaults[alpha]
    kw = dict(gamma0=gamma0, mu0=mu0, rho=rho, T_init=T_init,
              max_iter=max_iter, stop=stop, t_step_cap=T_STEP_CAPS[case.kind])
    kw.update(overrides)
    return LMConfig(**kw)


# Exact data synthesis: sine modes of the modal solver, and the space
# refinement and time steps of the fine FEM solve.
DATA_MODES = 400
DATA_REFINE = 2
DATA_STEPS = {"interval": 1024, "unit_square": 128}
# Observation grid of the estimator prior.
PRIOR_N_OBS = 1024


def exact_observation(case: BenchmarkCase, alpha: float, grid: GridLike,
                      T: float = T_TRUE) -> np.ndarray:
    """Exact snapshot u(T) at the nodes of `grid`, from a finer solve.

    The 1D backward and source cases are synthesized mode by mode from their
    closed-form sine coefficients (exact in time, DATA_MODES modes);
    everything else uses the FEM solver with DATA_STEPS time steps on a mesh
    DATA_REFINE times finer than `grid`, restricted to its nodes.
    """
    if case.domain == "interval" and case.kind in ("bp", "isp"):
        lam, phi = build_eigendecomposition(DATA_MODES, grid)
        ns = np.arange(1.0, DATA_MODES + 1)
        known, hidden = case.ref_sine_coeff(ns), case.truth_sine_coeff(ns)
        u0c, fc = (hidden, known) if case.kind == "bp" else (known, hidden)
        return phi.T @ propagate_modes(alpha, lam, T, u0c, fc)

    steps = DATA_STEPS[case.domain]
    fine = make_setup(case, alpha, n=grid.n * DATA_REFINE, n_steps=steps)
    u = solve_fem(fine.spec_for(case.truth, T), fine.grid, TimeGrid(steps, T)).final
    if case.domain == "interval":
        return u[::DATA_REFINE]
    side = fine.grid.n + 1
    return u.reshape(side, side)[::DATA_REFINE, ::DATA_REFINE].ravel()


def estimate_prior_T(case: BenchmarkCase, alpha: float, T: float = T_TRUE) -> float:
    """Terminal-time prior from the asymptotic mode-ratio estimator, applied
    to an exact snapshot synthesized on a fine observation grid.

    1D cases only. The snapshot, less its boundary lift, is projected on the
    sines with trapezoid weights; the reference coefficients are the case's
    closed forms (sampling a rough reference field would alias into the high
    modes that carry the decay signal).
    """
    if case.domain != "interval":
        raise ConfigError("the time prior is computed on interval cases")
    grid = Grid1D(PRIOR_N_OBS)
    g = exact_observation(case, alpha, grid, T=T)
    n_modes = min(128, PRIOR_N_OBS // 4)
    lam, phi = build_eigendecomposition(n_modes, grid)
    a0, a1 = case.dirichlet or (0.0, 0.0)
    x = grid.nodes
    obs_c = phi @ (grid.trapezoid_weights() * (g - (a0 * (1.0 - x) + a1 * x)))
    ref_c = case.ref_sine_coeff(np.arange(1.0, n_modes + 1))
    if case.kind == "isp":
        # reference alive only where the known initial state has modes
        nz = np.where(np.abs(ref_c) > 1e-12)[0]
        window = (int(nz[0] + 1), int(nz[-1] + 1))
    else:
        window = (9, min(61, n_modes))
    return estimate_T(obs_c, ref_c, lam, alpha, window, case.kind).t_hat
