"""Eigen-decompositions of -u'' + q u on (0,1), the modal solver (the FEM
engine's test oracle) and the terminal-time estimator.

The decay factor of mode n at time t is E_{alpha,1}(-lambda_n t^alpha); its
product with lambda_n approaches 1/(Gamma(1-alpha) t^alpha) as n grows, which
is what makes the terminal time recoverable from a single snapshot: the
estimator extrapolates that product from a window of mode ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gamma as gamma_fn

from .errors import (
    DegenerateReferenceError,
    DomainError,
    InconsistentDataError,
    ParameterError,
    ResolutionError,
)
from .grids import Field, Grid1D, as_nodal_values
from .mittag_leffler import ml_neg
from .problems import ProblemSpec

__all__ = [
    "EigenDecomposition",
    "build_eigendecomposition",
    "propagate_modes",
    "solve_spectral",
    "estimate_T",
    "TEstimate",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """First `count` eigenpairs of -d_xx + q on (0,1), zero Dirichlet.

    eigenfunctions[n] holds nodal values (boundary included, zero there),
    orthonormal in the trapezoid inner product of the grid. eigenvalues are
    Richardson-extrapolated. asymptotic_gap reports max_n |lambda_n - (n pi)^2|.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    potential: np.ndarray
    grid: Grid1D
    count: int
    asymptotic_gap: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, float))
        object.__setattr__(self, "eigenfunctions", np.asarray(self.eigenfunctions, float))

    @property
    def weights(self) -> np.ndarray:
        return self.grid.trapezoid_weights()

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients (v, phi_n) in the discrete L2 inner product."""
        return self.eigenfunctions @ (self.weights * np.asarray(values, float))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.eigenfunctions.T @ np.asarray(coeffs, float)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.weights * u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def _fd_eigs(q_int: np.ndarray, h: float, n_modes: int):
    n = q_int.size + 1
    main = 2.0 / h**2 + q_int
    off = np.full(n - 2, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(main, off, select="i", select_range=(0, n_modes - 1))
    return vals, vecs


def build_eigendecomposition(
    q, n_modes: int, grid: Optional[Grid1D] = None
) -> EigenDecomposition:
    """Eigenpairs of -d_xx + q by second-order finite differences with
    Richardson-extrapolated eigenvalues (q == 0 uses the exact spectrum)."""
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    if grid is None:
        n = max(2048, 8 * n_modes)
        n += n % 2
        grid = Grid1D(n)
    if grid.n % 2:
        raise ParameterError("grid must have an even interval count (Richardson)")
    if n_modes > grid.n // 4:
        raise ResolutionError(
            f"n_modes={n_modes} exceeds grid resolution {grid.n}/4"
        )
    q_nodal = as_nodal_values(q, grid)
    if q_nodal.min() < 0.0:
        raise DomainError("potential must be nonnegative")

    x = grid.nodes
    ns = np.arange(1, n_modes + 1)
    if q_nodal.max() == 0.0:
        lam = (ns * np.pi) ** 2
        phi = np.sqrt(2.0) * np.sin(np.outer(ns, np.pi * x))
        gap = 0.0
    else:
        lam_f, vecs = _fd_eigs(q_nodal[grid.interior], grid.h, n_modes)
        coarse = Grid1D(grid.n // 2)
        lam_c, _ = _fd_eigs(q_nodal[::2][coarse.interior], coarse.h, n_modes)
        lam = (4.0 * lam_f - lam_c) / 3.0
        phi = np.zeros((n_modes, grid.n_nodes))
        phi[:, grid.interior] = (vecs / np.sqrt(grid.h)).T
        flip = phi[:, 1] < 0
        phi[flip] *= -1.0
        gap = float(np.max(np.abs(lam - (ns * np.pi) ** 2)))

    if not np.all(np.diff(lam) > 0) or lam[0] <= 0:
        raise DomainError("spectrum not simple/positive; resolution too coarse")
    return EigenDecomposition(
        eigenvalues=lam,
        eigenfunctions=phi,
        potential=q_nodal,
        grid=grid,
        count=n_modes,
        asymptotic_gap=gap,
    )


# ---------------------------------------------------------------------------
# modal solver


def _coeffs_of(v, ed: EigenDecomposition) -> np.ndarray:
    if isinstance(v, Field):
        return v.spectral(ed)
    return ed.project(as_nodal_values(v, ed.grid))


def _truncation_meta(ed: EigenDecomposition, nodal: np.ndarray, coeffs: np.ndarray) -> dict:
    total = ed.inner(nodal, nodal)
    captured = float(np.sum(coeffs**2))
    if total > 0 and captured < total * (1.0 - 1e-6):
        return {"truncation_warning": 1.0 - captured / total}
    return {}


def propagate_modes(alpha: float, lam: np.ndarray, t: float,
                    u0c: np.ndarray, fc: np.ndarray) -> np.ndarray:
    """Modal coefficients of u(t) for the time-independent source f:
    E_{alpha,1}(-lambda_n t^alpha) (u0, phi_n)
    + (1 - E_{alpha,1}(-lambda_n t^alpha)) / lambda_n (f, phi_n)."""
    e1 = ml_neg(alpha, 1.0, lam * t**alpha)
    return e1 * u0c + (1.0 - e1) / lam * fc


def solve_spectral(spec: ProblemSpec, ed: EigenDecomposition, t: float) -> Field:
    """Exact modal solve at time t of any spec in the modal form: 1D,
    diffusion == 1 and zero boundary values, on eigenpairs built for
    spec.potential. Backward- and source-problem specs are alike here: each
    is a pair (u0, f), whichever of the two is the unknown."""
    if spec.domain != "interval":
        raise ParameterError("spectral solver is one-dimensional")
    a = as_nodal_values(spec.diffusion, ed.grid)
    if np.any(np.abs(a - 1.0) > 1e-14):
        raise ParameterError("spectral solver requires diffusion == 1")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if spec.dirichlet is not None and any(abs(v) > 0 for v in spec.dirichlet):
        raise ParameterError("spectral solver requires zero boundary values")
    if np.max(np.abs(spec.sample("potential", ed.grid) - ed.potential)) > 1e-12:
        raise ParameterError("eigendecomposition was built for a different potential")

    u0_nodal = spec.sample("u0", ed.grid)
    u0c = ed.project(u0_nodal)
    f_nodal = spec.sample("f", ed.grid)
    fc = ed.project(f_nodal)
    meta = _truncation_meta(ed, u0_nodal, u0c)
    meta.update(_truncation_meta(ed, f_nodal, fc))
    coeffs = propagate_modes(spec.alpha, ed.eigenvalues, t, u0c, fc)
    return Field(grid=ed.grid, coeffs=coeffs, basis=ed, meta=meta)


# ---------------------------------------------------------------------------
# terminal-time estimation


@dataclass
class TEstimate:
    """Estimated terminal time with per-mode diagnostics."""

    t_hat: float
    lambda_hat: float
    kind: str
    window: tuple[int, int]
    modes: np.ndarray
    a_seq: np.ndarray
    per_mode_t: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def lambda_to_time(alpha: float, lam_hat: float) -> float:
    """Invert Lambda = 1/(Gamma(1-alpha) T^alpha)."""
    return float((gamma_fn(1.0 - alpha) * lam_hat) ** (-1.0 / alpha))


def mode_ratio_sequence(
    kind: str,
    observation,
    reference,
    basis: EigenDecomposition,
    dirichlet: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode ratio a_n whose limit is 1/(Gamma(1-alpha) T^alpha).

    bp:  a_n = lambda_n (1 - lambda_n (u(T), phi_n) / (f, phi_n))
    isp: a_n = lambda_n (u(T), phi_n) / (u0, phi_n)
    ipp: a_n = (n pi)^2 (u(T) - phi_0, sin_n) / (u0 - phi_0, sin_n), i.e. the
         spectral form of -(d_xx u(T), sin_n) / (u0 - phi_0, sin_n)

    Returns (a_n, valid mask); invalid modes have a near-zero reference
    coefficient.
    """
    kind = kind.lower()
    if kind not in ("bp", "isp", "ipp"):
        raise ParameterError(f"unknown problem kind {kind!r}")
    lam = basis.eigenvalues
    ref_c = _coeffs_of(reference, basis)
    obs = observation
    if kind == "ipp" and any(abs(v) > 0 for v in dirichlet):
        a0, a1 = dirichlet
        phi0 = a0 * (1.0 - basis.grid.nodes) + a1 * basis.grid.nodes
        obs_nodal = obs.nodal() if isinstance(obs, Field) else as_nodal_values(obs, basis.grid)
        obs_c = basis.project(obs_nodal - phi0)
    else:
        obs_c = _coeffs_of(obs, basis)

    valid = np.abs(ref_c) > 1e-13 * max(np.max(np.abs(ref_c)), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "bp":
            a = lam * (1.0 - lam * obs_c / ref_c)
        else:
            a = lam * obs_c / ref_c
    a[~valid] = np.nan
    return a, valid


def estimate_T(
    observation,
    reference,
    basis: EigenDecomposition,
    alpha: float,
    mode_window: tuple[int, int],
    kind: str,
    dirichlet: tuple[float, float] = (0.0, 0.0),
) -> TEstimate:
    """Estimate the unknown terminal time from one snapshot.

    Robust extrapolation of the mode-ratio sequence: median over each half of
    the window, then Richardson elimination of the O(1/lambda_n) bias, then
    T = (Gamma(1-alpha) Lambda)^{-1/alpha}.

    Raises DegenerateReferenceError if every window mode has a vanishing
    reference coefficient, InconsistentDataError if the extrapolated level is
    nonpositive or the order is 1 (classical diffusion: the product
    lambda_n exp(-lambda_n T) vanishes and T is not identifiable).
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    n_lo, n_hi = mode_window
    if not (1 <= n_lo <= n_hi <= basis.count):
        raise ParameterError(f"bad mode window {mode_window} for {basis.count} modes")

    a_all, valid_all = mode_ratio_sequence(kind, observation, reference, basis, dirichlet)
    sel = slice(n_lo - 1, n_hi)
    a = a_all[sel]
    lam = basis.eigenvalues[sel]
    valid = valid_all[sel] & np.isfinite(a_all[sel])
    if not np.any(valid):
        raise DegenerateReferenceError(
            "all reference coefficients in the window are below threshold"
        )
    av, lv = a[valid], lam[valid]

    if av.size >= 4:
        half = av.size // 2
        m1, m2 = np.median(av[:half]), np.median(av[half:])
        mu1 = np.median(1.0 / lv[:half])
        mu2 = np.median(1.0 / lv[half:])
        lam_hat = float((m2 * mu1 - m1 * mu2) / (mu1 - mu2))
    else:
        lam_hat = float(np.median(av))

    with np.errstate(invalid="ignore", over="ignore"):
        per_mode_t = np.where(
            av > 0, (gamma_fn(1.0 - alpha) * np.maximum(av, 1e-300)) ** (-1.0 / alpha), np.nan
        )

    diagnostics = {
        "n_used": int(av.size),
        "a_median": float(np.median(av)),
        "per_mode_t_std": float(np.nanstd(per_mode_t)) if av.size else float("nan"),
    }
    if alpha == 1.0:
        raise InconsistentDataError(
            "order 1: modal products vanish, terminal time not identifiable",
            lambda_hat=lam_hat,
        )
    if not np.isfinite(lam_hat) or lam_hat <= 0.0:
        raise InconsistentDataError(
            f"extrapolated decay level {lam_hat:.3e} is not positive",
            lambda_hat=lam_hat,
        )
    return TEstimate(
        t_hat=lambda_to_time(alpha, lam_hat),
        lambda_hat=lam_hat,
        kind=kind.lower(),
        window=(n_lo, n_hi),
        modes=lam,
        a_seq=a,
        per_mode_t=per_mode_t,
        diagnostics=diagnostics,
    )
