"""Joint reconstruction of a space-dependent parameter and the terminal time
from one noisy snapshot, by a two-parameter Levenberg-Marquardt iteration.

Each iteration linearizes the forward map F(v, T) = u(v)(., T) and solves

    [ Jv* Jv + gamma_k P   Jv* JT          ] [dv]   [ Jv* r ]
    [ JT* Jv               JT* JT + mu_k   ] [dT] = [ JT* r ],

with r = g_delta - F(v_k, T_k), adjoints taken in the discrete L2 (mass)
inner product, P the L2 Gram of the parameter space, and two regularization
weights decreased geometrically (gamma_k = gamma0 rho^k, mu_k = mu0 rho^k):
the space parameter and the scalar time influence the data too differently
to share one weight. The time derivative is the forward difference
(F(v, T + dT) - F(v, T)) / dT with a fixed small dT.

One iteration costs one v-Jacobian and two forward solves: the trajectory of
F(v_k, T_k), computed once and shared by the residual, the potential
problem's sensitivity load and the time difference, and F(v_k, T_k + dT).

Sensitivity systems (direction h):
  backward problem:   d_t^alpha w + A w = 0,        w(0) = h
  source problem:     d_t^alpha w + A w = g(t) h,   w(0) = 0
  potential problem:  d_t^alpha w + A w = -h u(v),  w(0) = 0
Jacobians are assembled column-by-column at desk scale by propagating all
columns simultaneously through the L1 recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    AdmissibilityError,
    NumericalError,
    ParameterError,
    PositivityError,
)
from .fem import (
    FemOperator,
    Trajectory,
    caputo_derivative_at_T,
    l1_evolve,
    mass_norm,
    solve_fem,
)
from .grids import Field, Grid1D, GridLike, as_nodal_values
from .problems import ProblemSpec, SeparableSource, TimeGrid, TimeIndependentSource

__all__ = [
    "LMConfig",
    "Observation",
    "InverseSetup",
    "ReconstructionResult",
    "add_noise",
    "forward_map",
    "jacobian_v_matrix",
    "jacobian_v_apply",
    "jacobian_v_adjoint_apply",
    "jacobian_T",
    "lm_step",
    "lm_reconstruct",
    "direct_ipp_reconstruct",
    "metrics",
]

IPP_CLAMP_MAX = 2.0
IPP_CLAMP_SLACK = 0.5


@dataclass(frozen=True)
class LMConfig:
    """Hyperparameters of the iteration; defaults follow the benchmark runs."""

    gamma0: float
    mu0: float
    rho: float
    T_init: float
    deltaT: float = 1e-3
    max_iter: int = 30
    v_init: Optional[np.ndarray] = None
    stop: str = "oracle"  # "oracle" | "discrepancy" | "max_iter"
    eta: float = 1.1
    # trust-region guard on the scalar time step: |dT| <= t_step_cap * T_k.
    # The joint problem has a near-ridge (wrong times are compensable by the
    # space parameter), so uncapped Newton steps in T can run off along it;
    # the cap keeps T near its prior while the space parameter resolves.
    t_step_cap: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ParameterError(f"rho must be in (0, 1), got {self.rho}")
        if self.deltaT <= 0.0:
            raise ParameterError("deltaT must be positive")
        if self.T_init <= self.deltaT:
            raise ParameterError("T_init must exceed deltaT")
        if self.gamma0 <= 0 or self.mu0 <= 0:
            raise ParameterError("regularization weights must be positive")
        if self.stop not in ("oracle", "discrepancy", "max_iter"):
            raise ParameterError(f"unknown stop rule {self.stop!r}")
        if self.t_step_cap <= 0:
            raise ParameterError("t_step_cap must be positive")


@dataclass(frozen=True)
class Observation:
    """Snapshot data: g_delta = g + eps * ||g||_inf * xi, xi iid standard
    normal per node from a seeded PCG64 generator."""

    g_delta: np.ndarray
    epsilon: float
    seed: int
    noise_level: float  # eps * ||g_exact||_inf
    t_true: Optional[float] = None  # kept for evaluation only


def add_noise(g_dag, epsilon: float, seed: int, t_true: Optional[float] = None) -> Observation:
    if epsilon < 0:
        raise ParameterError("epsilon must be nonnegative")
    g = g_dag.nodal() if isinstance(g_dag, Field) else np.asarray(g_dag, float)
    scale = float(np.max(np.abs(g)))
    if epsilon == 0.0:
        return Observation(g_delta=g.copy(), epsilon=0.0, seed=seed,
                           noise_level=0.0, t_true=t_true)
    xi = np.random.Generator(np.random.PCG64(seed)).standard_normal(g.shape)
    return Observation(
        g_delta=g + epsilon * scale * xi,
        epsilon=epsilon,
        seed=seed,
        noise_level=epsilon * scale,
        t_true=t_true,
    )


class InverseSetup:
    """Fixed context of one inverse problem: everything except (v, T).

    kind selects which parameter v stands for:
      "bp"  - initial state (source f known, time-independent)
      "isp" - spatial source factor (u0 and g(t) known)
      "ipp" - potential (u0, f, boundary values known; v clamped to [0, 2])
    basis, if given, restricts v to span(rows): v = basis.T @ c.
    """

    def __init__(
        self,
        kind: str,
        grid: GridLike,
        alpha: float,
        n_steps: int,
        *,
        diffusion=1.0,
        potential=0.0,
        u0=None,
        f=None,
        g: Optional[Callable[[float], float]] = None,
        dirichlet: Optional[tuple[float, float]] = None,
        basis: Optional[np.ndarray] = None,
    ):
        kind = kind.lower()
        if kind not in ("bp", "isp", "ipp"):
            raise ParameterError(f"unknown problem kind {kind!r}")
        if kind == "bp" and f is None:
            raise ParameterError("bp needs the known source f")
        if kind == "isp" and u0 is None:
            raise ParameterError("isp needs the known initial state")
        if kind == "ipp" and (u0 is None or f is None):
            raise ParameterError("ipp needs u0 and f")
        self.kind = kind
        self.grid = grid
        self.alpha = float(alpha)
        self.n_steps = int(n_steps)
        self.diffusion = diffusion
        self.potential = potential
        self.u0 = u0
        self.f = f
        self.g = g if g is not None else (lambda t: 1.0)
        self.dirichlet = dirichlet
        self.basis = None if basis is None else np.asarray(basis, float)
        self._op_cache: dict = {}

    # -- parametrization ------------------------------------------------------

    def interior(self) -> np.ndarray:
        return self._operator_for().interior

    def param_to_nodal(self, p: np.ndarray) -> np.ndarray:
        """Expand a parameter vector to a full nodal field (zero boundary)."""
        v = np.zeros(self.grid.n_nodes)
        if self.basis is not None:
            return self.basis.T @ p
        v[self.interior()] = p
        return v

    def nodal_to_param(self, v_nodal: np.ndarray) -> np.ndarray:
        if self.basis is not None:
            # L2 projection onto the basis span
            W = _mass_dense_apply(self.grid, self.basis.T)  # (nodes, p)
            G = self.basis @ W
            return np.linalg.solve(G, W.T @ v_nodal)
        return np.asarray(v_nodal, float)[self.interior()]

    def param_gram(self) -> np.ndarray:
        """L2 Gram matrix of the parameter space (the penalty metric)."""
        if self.basis is not None:
            return self.basis @ _mass_dense_apply(self.grid, self.basis.T)
        op = self._operator_for()
        return op.mass_apply_interior(np.eye(op.interior.size))

    # -- forward machinery ------------------------------------------------------

    def _operator_for(self, v_nodal: Optional[np.ndarray] = None) -> FemOperator:
        if self.kind == "ipp" and v_nodal is not None:
            return FemOperator(self.grid, self.diffusion, v_nodal)
        key = "fixed"
        if key not in self._op_cache:
            self._op_cache[key] = FemOperator(self.grid, self.diffusion, self.potential)
        return self._op_cache[key]

    def spec_for(self, v_nodal: np.ndarray, T: float) -> ProblemSpec:
        domain = "interval" if isinstance(self.grid, Grid1D) else "unit_square"
        if self.kind == "bp":
            return ProblemSpec(alpha=self.alpha, T=T, u0=v_nodal,
                               source=TimeIndependentSource(self.f),
                               diffusion=self.diffusion, potential=self.potential,
                               dirichlet=self.dirichlet, domain=domain)
        if self.kind == "isp":
            return ProblemSpec(alpha=self.alpha, T=T, u0=self.u0,
                               source=SeparableSource(self.g, v_nodal),
                               diffusion=self.diffusion, potential=self.potential,
                               dirichlet=self.dirichlet, domain=domain)
        return ProblemSpec(alpha=self.alpha, T=T, u0=self.u0,
                           source=TimeIndependentSource(self.f),
                           diffusion=self.diffusion, potential=v_nodal,
                           dirichlet=self.dirichlet, domain=domain)


def _mass_dense_apply(grid: GridLike, V: np.ndarray) -> np.ndarray:
    from .fem import _mass_for

    return _mass_for(grid).mass_apply(V)


def _clamp_ipp(v_nodal: np.ndarray) -> np.ndarray:
    worst = max(float(np.max(v_nodal - IPP_CLAMP_MAX)), float(np.max(-v_nodal)), 0.0)
    if worst > IPP_CLAMP_SLACK:
        raise AdmissibilityError(
            f"potential iterate violates [0, {IPP_CLAMP_MAX}] by {worst:.3g}"
        )
    return np.clip(v_nodal, 0.0, IPP_CLAMP_MAX)


def forward_map(setup: InverseSetup, v, T: float,
                return_trajectory: bool = False) -> Union[np.ndarray, Trajectory]:
    """u(v)(., T) on grid nodes via the FEM + L1 solver."""
    if T <= 0:
        raise ParameterError("T must be positive")
    v_nodal = v.nodal() if isinstance(v, Field) else as_nodal_values(v, setup.grid)
    if setup.kind == "ipp":
        v_nodal = _clamp_ipp(v_nodal)
    spec = setup.spec_for(v_nodal, T)
    op = setup._operator_for(v_nodal if setup.kind == "ipp" else None)
    traj = solve_fem(spec, setup.grid, TimeGrid(setup.n_steps, T), op=op)
    return traj if return_trajectory else traj.final


def jacobian_v_matrix(setup: InverseSetup, v, T: float,
                      base: Optional[Trajectory] = None) -> np.ndarray:
    """Dense Jacobian of F in the space parameter, (n_nodes, n_params).

    Columns are sensitivity solves propagated simultaneously; boundary rows
    are zero (Dirichlet data does not move with v). The potential problem's
    load needs the trajectory of F(v, T); pass it as `base` if it is at hand,
    otherwise it is solved for here.
    """
    v_nodal = v.nodal() if isinstance(v, Field) else as_nodal_values(v, setup.grid)
    tg = TimeGrid(setup.n_steps, T)
    if setup.kind == "ipp":
        v_nodal = _clamp_ipp(v_nodal)
    op = setup._operator_for(v_nodal if setup.kind == "ipp" else None)
    m = op.interior.size
    if setup.basis is not None:
        cols0 = setup.basis.T[op.interior]  # (m, p)
    else:
        cols0 = np.eye(m)
    p = cols0.shape[1]

    if setup.kind == "bp":
        w0 = cols0
        load_at = None
    elif setup.kind == "isp":
        w0 = np.zeros((m, p))
        mass_cols = op.mass_apply_interior(cols0)
        times = tg.times
        g = setup.g

        def load_at(k):
            return float(g(times[k])) * mass_cols

    else:
        grid = setup.grid
        if not isinstance(grid, Grid1D):
            raise ParameterError("potential reconstruction is one-dimensional")
        if base is None:
            base = forward_map(setup, v_nodal, T, return_trajectory=True)
        w0 = np.zeros((m, p))

        def load_at(k):
            diag, off = _trilinear_mass_1d(grid, base.values[k])
            return -op._tri_matvec(diag[op.interior], off[op.interior[:-1]], cols0)

    final = l1_evolve(op, setup.alpha, tg, w0, load_at, keep_history=False)
    J = np.zeros((setup.grid.n_nodes, p))
    J[op.interior] = final
    return J


def _trilinear_mass_1d(grid: Grid1D, u_nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal B(u) on all nodes, with
    B_ij = int phi_i phi_j u dx, u P1 (exact)."""
    h = grid.h
    ul = u_nodal[:-1]
    ur = u_nodal[1:]
    diag = np.zeros(grid.n_nodes)
    diag[:-1] += h * (ul / 4.0 + ur / 12.0)
    diag[1:] += h * (ul / 12.0 + ur / 4.0)
    return diag, h * (ul + ur) / 12.0


def jacobian_v_apply(setup: InverseSetup, v, T: float, h) -> np.ndarray:
    """Directional derivative dF(v,T)[h] as a nodal field."""
    J = jacobian_v_matrix(setup, v, T)
    h_nodal = h.nodal() if isinstance(h, Field) else as_nodal_values(h, setup.grid)
    return J @ setup.nodal_to_param(h_nodal)


def jacobian_v_adjoint_apply(setup: InverseSetup, v, T: float, w) -> np.ndarray:
    """Adjoint J* w in the discrete L2 pairing: P^{-1} J^T M w."""
    J = jacobian_v_matrix(setup, v, T)
    w_nodal = w.nodal() if isinstance(w, Field) else as_nodal_values(w, setup.grid)
    Mw = _mass_dense_apply(setup.grid, w_nodal)
    P = setup.param_gram()
    coeffs = np.linalg.solve(P, J.T @ Mw)
    return setup.param_to_nodal(coeffs)


def jacobian_T(setup: InverseSetup, v, T: float, deltaT: float = 1e-3,
               f0: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward finite difference (F(v, T + dT) - F(v, T)) / dT.

    f0 is F(v, T) if it is at hand; otherwise it is solved for here.
    """
    if T <= 0:
        raise ParameterError("T must be positive")
    fp = forward_map(setup, v, T + deltaT)
    if f0 is None:
        f0 = forward_map(setup, v, T)
    return (fp - f0) / deltaT


@dataclass
class LMState:
    v: np.ndarray  # nodal
    T: float
    k: int = 0


@dataclass
class ReconstructionResult:
    v_hat: np.ndarray
    T_hat: float
    k_star: int
    history: list  # (k, residual, error or nan, T_k)
    converged: bool
    v_history: list = field(default_factory=list, repr=False)


def _lm_solve_block(G, cross, d, gv, gT, gamma_k, mu_k, P):
    p = G.shape[0]
    K = np.empty((p + 1, p + 1))
    K[:p, :p] = G + gamma_k * P
    K[:p, p] = cross
    K[p, :p] = cross
    K[p, p] = d + mu_k
    rhs = np.concatenate([gv, [gT]])
    try:
        c, low = cho_factor(K)
        sol = cho_solve((c, low), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericalError(f"normal system not SPD: {exc}")
    return sol[:p], float(sol[p])


def lm_step(setup: InverseSetup, state: LMState, obs: Observation, cfg: LMConfig,
            base: Optional[Trajectory] = None) -> LMState:
    """One Levenberg-Marquardt update of (v, T).

    Inner products are the discrete L2 (mass) pairings; the penalty metric is
    the L2 Gram of the parameter space, so the step is mesh-robust. `base` is
    the trajectory of F(state.v, state.T) if it is at hand; otherwise it is
    solved for here.
    """
    gamma_k = cfg.gamma0 * cfg.rho**state.k
    mu_k = cfg.mu0 * cfg.rho**state.k

    if base is None:
        base = forward_map(setup, state.v, state.T, return_trajectory=True)
    r = obs.g_delta - base.final
    J = jacobian_v_matrix(setup, state.v, state.T, base)
    JT = jacobian_T(setup, state.v, state.T, cfg.deltaT, base.final)

    MJ = _mass_dense_apply(setup.grid, J)
    MJT = _mass_dense_apply(setup.grid, JT)
    G = J.T @ MJ
    cross = J.T @ MJT
    d = float(JT @ MJT)
    gv = MJ.T @ r
    gT = float(MJT @ r)
    P = setup.param_gram()

    dp, dT = _lm_solve_block(G, cross, d, gv, gT, gamma_k, mu_k, P)
    dT = float(np.clip(dT, -cfg.t_step_cap * state.T, cfg.t_step_cap * state.T))
    # keep the time iterate positive: damp the time step, not the space step
    while state.T + dT <= cfg.deltaT:
        dT *= 0.5
        if abs(dT) < 1e-300:
            raise NumericalError("time step damped to zero")
    v_new = state.v + setup.param_to_nodal(dp)
    if setup.kind == "ipp":
        v_new = np.clip(v_new, 0.0, IPP_CLAMP_MAX)
    return LMState(v=v_new, T=state.T + dT, k=state.k + 1)


def lm_reconstruct(
    setup: InverseSetup,
    obs: Observation,
    cfg: LMConfig,
    truth: Optional[np.ndarray] = None,
) -> ReconstructionResult:
    """Run the iteration with the configured stopping rule.

    "oracle" picks the iterate with the smallest error along the trajectory
    (needs truth; matches how the benchmark tables report their stopping
    index). "discrepancy" stops once the residual falls below
    eta * noise_level. "max_iter" returns the final iterate.
    """
    if cfg.stop == "oracle" and truth is None:
        raise ParameterError("oracle stopping needs the ground truth")
    if cfg.v_init is not None:
        v0 = as_nodal_values(cfg.v_init, setup.grid)
    else:
        v0 = np.zeros(setup.grid.n_nodes)
        if setup.kind == "ipp":
            v0 = np.clip(v0, 0.0, IPP_CLAMP_MAX)
    state = LMState(v=v0, T=cfg.T_init, k=0)

    history = []
    v_hist = []
    discrepancy_hit = None
    for k in range(cfg.max_iter + 1):
        base = forward_map(setup, state.v, state.T, return_trajectory=True)
        r = mass_norm(setup.grid, obs.g_delta - base.final)
        if not np.isfinite(r):
            err = NumericalError(f"residual diverged at iteration {k}")
            err.history = history
            raise err
        e = mass_norm(setup.grid, state.v - truth) if truth is not None else float("nan")
        history.append((k, r, e, state.T))
        v_hist.append(state.v.copy())
        if cfg.stop == "discrepancy" and discrepancy_hit is None:
            if r <= cfg.eta * obs.noise_level:
                discrepancy_hit = k
                break
        if k == cfg.max_iter:
            break
        state = lm_step(setup, state, obs, cfg, base)

    if cfg.stop == "oracle":
        errors = [h[2] for h in history]
        k_star = int(np.nanargmin(errors))
        converged = True
    elif cfg.stop == "discrepancy":
        k_star = discrepancy_hit if discrepancy_hit is not None else len(history) - 1
        converged = discrepancy_hit is not None
    else:
        k_star = len(history) - 1
        converged = True
    return ReconstructionResult(
        v_hat=v_hist[k_star],
        T_hat=history[k_star][3],
        k_star=k_star,
        history=history,
        converged=converged,
        v_history=v_hist,
    )


def direct_ipp_reconstruct(
    traj: Trajectory,
    tg: TimeGrid,
    alpha: float,
    f,
    positivity_floor: float = 0.01,
) -> np.ndarray:
    """Pointwise potential recovery q = (f - d_t^alpha u(T) + u''(T)) / u(T).

    Uses the discrete L1 derivative at T and second differences for u''.
    Nodes where u(T) < positivity_floor * max u(T) (with zero boundary data
    this is a thin boundary layer where the division is ill-posed) take the
    nearest trusted value; if more than a quarter of the interior falls below
    the floor the positivity assumption is considered violated.
    """
    grid = traj.grid
    if not isinstance(grid, Grid1D):
        raise ParameterError("direct potential recovery is one-dimensional")
    u_T = traj.final
    interior = np.arange(1, grid.n)
    floor = positivity_floor * float(np.max(np.abs(u_T)))
    good = u_T[interior] >= floor
    if good.sum() < 0.75 * interior.size:
        raise PositivityError(
            f"u(T) is below the positivity floor {floor:.3g} on "
            f"{interior.size - good.sum()} of {interior.size} interior nodes"
        )
    dalpha = caputo_derivative_at_T(traj, tg, alpha)
    h = grid.h
    lap = (u_T[:-2] - 2.0 * u_T[1:-1] + u_T[2:]) / h**2
    f_nodal = as_nodal_values(f, grid)
    vals = (f_nodal[interior] - dalpha[interior] + lap) / np.where(good, u_T[interior], 1.0)
    # snap below-floor nodes to the nearest trusted node
    idx_good = np.where(good)[0]
    idx_all = np.arange(interior.size)
    left = np.clip(np.searchsorted(idx_good, idx_all) - 1, 0, idx_good.size - 1)
    right = np.clip(np.searchsorted(idx_good, idx_all), 0, idx_good.size - 1)
    pick = np.where(
        np.abs(idx_good[left] - idx_all) <= np.abs(idx_good[right] - idx_all),
        idx_good[left], idx_good[right],
    )
    filled = vals[pick]
    filled[good] = vals[good]
    q = np.zeros(grid.n_nodes)
    q[interior] = filled
    q[0], q[-1] = q[1], q[-2]
    return np.clip(q, 0.0, IPP_CLAMP_MAX)


def metrics(result: ReconstructionResult, truth: np.ndarray, grid: GridLike):
    """Per-iterate L2 errors e(k) (mass inner product) and residuals r(k)."""
    truth = np.asarray(truth, float)
    e = np.array([mass_norm(grid, v - truth) for v in result.v_history])
    r = np.array([h[1] for h in result.history])
    return e, r
