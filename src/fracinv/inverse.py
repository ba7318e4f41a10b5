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

One iteration costs one v-Jacobian and two forward solves: F(v_k, T_k),
computed once and shared by the residual and the time difference, and
F(v_k, T_k + dT). Only u(T) is read, so no trajectory is formed.

Sensitivity systems (direction h):
  backward problem:   d_t^alpha w + A w = 0,        w(0) = h
  source problem:     d_t^alpha w + A w = h,        w(0) = 0
  potential problem:  d_t^alpha w + A w = -h u(v),  w(0) = 0

Two engines run the same FEM + L1 scheme. (1) The interval: the pencil
(A_II, M_II) is diagonalized (A_II V = M_II V diag(lam), V^T M_II V = I)
once per setup for bp/isp, and for ipp, whose A_q moves with v, once per
iterate for F(v_k, T_k), the v-Jacobian and F(v_k, T_k + dT). The first two
share one march of the mode responses r (w(0) = 1, no load) and s (w(0) = 0,
unit load): F_I = lift_I + V (r^N o a0 + s^N o b), a0 = V^T M_II w0,
b = V^T load; for bp/isp J_II = V diag(r^N or s^N) V^T M_II. ipp's
sensitivity starts from zero, so the scheme is shift-invariant: mode j
answers a unit load n steps later with K_j(n) = s_j^(n+1) - s_j^n, and row j
of V^T J_II is -V_j^T B(U_j)_II, U_j = sum_k K_j(N - k) u^k = s_j^N lift +
V [sum_k K_j(N - k) (r^k o a0 + s^k o b)]: no trajectory, and O(N m^2)
against the O(N^2 m^2) of stepping all m columns. (2) bp/isp on the square,
where a dense eigensolve raises the peak memory by a third: F and all
Jacobian columns step through the L1 time stepper, (1)'s test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, NumericalError, ParameterError
from .fem import FemOperator, l1_evolve, mass_norm, modal_data, solve_fem
from .grids import Grid1D, GridLike, as_nodal_values
from .problems import ProblemSpec, TimeGrid

__all__ = [
    "LMConfig",
    "Observation",
    "InverseSetup",
    "ReconstructionResult",
    "add_noise",
    "forward_map",
    "jacobian_v_matrix",
    "jacobian_T",
    "lm_step",
    "lm_reconstruct",
]

IPP_CLAMP_MAX = 2.0
IPP_CLAMP_SLACK = 0.5
# the ProblemSpec field that the unknown v fills, per problem kind
_UNKNOWN_FIELD = {"bp": "u0", "isp": "f", "ipp": "potential"}


@dataclass(frozen=True)
class LMConfig:
    """Hyperparameters of the iteration; defaults follow the benchmark runs."""

    gamma0: float
    mu0: float
    rho: float
    T_init: float
    deltaT: float = 1e-3
    max_iter: int = 30
    stop: str = "oracle"  # "oracle" | "discrepancy" | "max_iter"
    eta: float = 1.1
    # trust-region guard on the scalar time step: |dT| <= t_step_cap * T_k.
    # The joint problem has a near-ridge (wrong times are compensable by the
    # space parameter), so uncapped Newton steps in T can run off along it;
    # the cap keeps T near its prior while the space parameter resolves.
    t_step_cap: float = 0.05

    def __post_init__(self):
        for name in ("gamma0", "mu0", "rho", "T_init", "deltaT", "max_iter", "eta", "t_step_cap"):
            value = getattr(self, name)  # t_step_cap = inf is no cap on the time step
            if math.isnan(value) or (math.isinf(value) and name != "t_step_cap"):
                raise ParameterError(f"{name} must be a finite number, got {value}")
        if not (0.0 < self.rho < 1.0):
            raise ParameterError(f"rho must be in (0, 1), got {self.rho}")
        if self.deltaT <= 0.0:
            raise ParameterError("deltaT must be positive")
        if self.T_init <= self.deltaT:
            raise ParameterError("T_init must exceed deltaT")
        if self.gamma0 <= 0 or self.mu0 <= 0:
            raise ParameterError("the weights gamma0 and mu0 must be positive")
        if self.eta <= 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if self.stop not in ("oracle", "discrepancy", "max_iter"):
            raise ParameterError(f"unknown stop rule {self.stop!r}")
        if self.t_step_cap <= 0:
            raise ParameterError("t_step_cap must be positive")
        if self.max_iter < 0:
            raise ParameterError(f"max_iter must be >= 0, got {self.max_iter}")


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
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be finite and nonnegative, got {epsilon}")
    g = np.asarray(g_dag, float)
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
      "bp"  - initial state (source f known)
      "isp" - source f(x) (u0 known)
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
        u0=None,
        f=None,
        dirichlet: Optional[tuple[float, float]] = None,
        basis: Optional[np.ndarray] = None,
    ):
        kind = kind.lower()
        if kind not in _UNKNOWN_FIELD:
            raise ParameterError(f"unknown problem kind {kind!r}")
        if kind == "bp" and f is None:
            raise ParameterError("bp needs the known source f")
        if kind == "isp" and u0 is None:
            raise ParameterError("isp needs the known initial state")
        if kind == "ipp" and (u0 is None or f is None):
            raise ParameterError("ipp needs u0 and f")
        if kind == "ipp" and not isinstance(grid, Grid1D):
            raise ParameterError("potential reconstruction is one-dimensional")
        self.kind = kind
        self.grid = grid
        self.alpha = float(alpha)
        self.n_steps = int(n_steps)
        self.diffusion = diffusion
        self.u0 = u0
        self.f = f
        self.dirichlet = dirichlet
        self.basis = None if basis is None else np.asarray(basis, float)
        self._ipp_operator: tuple = (None, None)  # (v_nodal bytes, FemOperator)

    # -- parametrization ------------------------------------------------------

    def param_to_nodal(self, p: np.ndarray) -> np.ndarray:
        """Expand a parameter vector to a full nodal field (zero boundary)."""
        if self.basis is not None:
            return self.basis.T @ p
        v = np.zeros(self.grid.n_nodes)
        v[self.fixed_operator.interior] = p
        return v

    def nodal_to_param(self, v_nodal: np.ndarray) -> np.ndarray:
        if self.basis is not None:
            # L2 projection onto the basis span
            W = self.fixed_operator.mass_apply(self.basis.T)  # (nodes, p)
            return np.linalg.solve(self.param_gram, W.T @ v_nodal)
        return np.asarray(v_nodal, float)[self.fixed_operator.interior]

    @cached_property
    def param_gram(self) -> np.ndarray:
        """L2 Gram matrix of the parameter space (the penalty metric)."""
        if self.basis is not None:
            P = self.basis @ self.fixed_operator.mass_apply(self.basis.T)
        else:
            P = self.fixed_operator.M_II.toarray()
        P.setflags(write=False)  # built once, shared by every LM step
        return P

    # -- forward machinery ------------------------------------------------------

    @cached_property
    def fixed_operator(self) -> FemOperator:
        """The operator of the known coefficients; its mass M serves every kind."""
        return FemOperator(self.grid, self.diffusion)

    @property
    def modal(self) -> bool:
        """Whether F runs on the modes of its operator: the fixed one for
        bp/isp, each iterate's for ipp. The interval does; on the square the
        dense m x m eigh (m = 961 at n = 32) raised the peak memory of a 5.1ii
        reconstruction by a third, from 106 to 140 MB."""
        return isinstance(self.grid, Grid1D)

    def _operator_for(self, v_nodal: np.ndarray) -> FemOperator:
        """The operator of F(v, .); for ipp, built once per distinct potential."""
        if self.kind != "ipp":
            return self.fixed_operator
        key = v_nodal.tobytes()
        if self._ipp_operator[0] != key:
            self._ipp_operator = (key, FemOperator(self.grid, self.diffusion, v_nodal))
        return self._ipp_operator[1]

    def spec_for(self, v, T: float) -> ProblemSpec:
        """The forward problem F(v, T): v fills the field its kind names."""
        fields = {"u0": self.u0, "f": self.f, "potential": 0.0}
        fields[_UNKNOWN_FIELD[self.kind]] = v
        domain = "interval" if isinstance(self.grid, Grid1D) else "unit_square"
        return ProblemSpec(alpha=self.alpha, T=T, diffusion=self.diffusion,
                           dirichlet=self.dirichlet, domain=domain, **fields)

    def _forward_problem(self, v, T: float):
        """(spec, operator, time grid) of F(v, T); an ipp iterate is clamped."""
        tg = TimeGrid(self.n_steps, T)  # rejects T <= 0 before v is read
        v_nodal = as_nodal_values(v, self.grid)
        if self.kind == "ipp":
            v_nodal = _clamp_ipp(v_nodal)
        return self.spec_for(v_nodal, T), self._operator_for(v_nodal), tg


def _clamp_ipp(v_nodal: np.ndarray) -> np.ndarray:
    worst = max(float(np.max(v_nodal - IPP_CLAMP_MAX)), float(np.max(-v_nodal)), 0.0)
    if worst > IPP_CLAMP_SLACK:
        raise AdmissibilityError(
            f"potential iterate violates [0, {IPP_CLAMP_MAX}] by {worst:.3g}"
        )
    return np.clip(v_nodal, 0.0, IPP_CLAMP_MAX)


def forward_map(setup: InverseSetup, v, T: float) -> np.ndarray:
    """u(v)(., T) on grid nodes via the FEM + L1 scheme: where `setup.modal`,
    run mode by mode to u(T) alone, else stepped in time."""
    spec, op, tg = setup._forward_problem(v, T)
    if not setup.modal:
        return solve_fem(spec, setup.grid, tg, op=op).final
    u, a0, b = modal_data(spec, op)  # u = lift
    r, s = op.responses(setup.alpha, tg)
    u[op.interior] += op.modes[1] @ (r[-1] * a0 + s[-1] * b)
    return u


def jacobian_v_matrix(setup: InverseSetup, v, T: float) -> np.ndarray:
    """Dense Jacobian of F in the space parameter, (n_nodes, n_params).

    Boundary rows are zero (Dirichlet data does not move with v). For ipp,
    J_II = -V R with row j of R = V_j^T B(U_j)_II on the iterate's modes (see
    the module docstring). For bp/isp, J_II = V diag(r^N or s^N) V^T M_II on
    the interval; on the square the columns step through L1.
    """
    spec, op, tg = setup._forward_problem(v, T)
    cols0 = np.eye(op.interior.size) if setup.basis is None else setup.basis.T[op.interior]
    J = np.zeros((setup.grid.n_nodes, cols0.shape[1]))

    if setup.kind == "ipp":
        # a_j^N = sum_k K_j(N - k) (-V_j^T B(u^k) h) = -V_j^T B(U_j) h, B linear in u
        lift, a0, b = modal_data(spec, op)
        V = op.modes[1]
        r, s = op.responses(setup.alpha, tg)
        K = s[:0:-1] - s[-2::-1]  # (N, m): row k - 1 is K(N - k); sum_n K_j(n) = s_j^N
        U = np.outer(s[-1], lift)  # (m, n_nodes); two GEMMs need no (N, m) temporaries
        U[:, op.interior] += ((K.T @ r[1:]) * a0 + (K.T @ s[1:]) * b) @ V.T
        diag, off = _trilinear_mass_1d(setup.grid, U)
        d, o, Vt = diag[:, 1:-1], off[:, 1:-1], V.T
        R = d * Vt  # row j: (B(U_j)_II V_j)^T, B tridiagonal
        R[:, :-1] += o * Vt[:, 1:]
        R[:, 1:] += o * Vt[:, :-1]
        J[op.interior] = -V @ (R @ cols0)
        return J
    if setup.modal:
        # bp: w0 = h; isp: load M_II h, w0 = 0 -- J_II = V diag(r or s) V^T M_II
        V = op.modes[1]
        r, s = op.responses(setup.alpha, tg)
        resp = (r if setup.kind == "bp" else s)[-1]
        J[op.interior] = (V * resp) @ (V.T @ op.mass_apply_interior(cols0))
        return J
    # bp/isp on the square (and the modal engine's oracle): columns stepped in time
    if setup.kind == "bp":
        w0, load = cols0, None
    else:
        w0, load = np.zeros(cols0.shape), op.mass_apply_interior(cols0)
    J[op.interior] = l1_evolve(op, setup.alpha, tg, w0, load)[-1]
    return J


def _trilinear_mass_1d(grid: Grid1D, u_nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal B(u) on all nodes, with
    B_ij = int phi_i phi_j u dx, u P1 (exact); leading axes of u carry over."""
    h = grid.h
    ul, ur = u_nodal[..., :-1], u_nodal[..., 1:]
    diag = np.zeros(u_nodal.shape)
    diag[..., :-1] += h * (ul / 4.0 + ur / 12.0)
    diag[..., 1:] += h * (ul / 12.0 + ur / 4.0)
    return diag, h * (ul + ur) / 12.0


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
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericalError(f"normal system singular: {exc}")
    return sol[:p], float(sol[p])


def lm_step(setup: InverseSetup, state: LMState, obs: Observation, cfg: LMConfig,
            f0: Optional[np.ndarray] = None) -> LMState:
    """One Levenberg-Marquardt update of (v, T).

    Inner products are the discrete L2 (mass) pairings; the penalty metric is
    the L2 Gram of the parameter space, so the step is mesh-robust. f0 is
    u(T_k) = F(state.v, state.T) if it is at hand; otherwise it is solved for
    here. Either way the v-Jacobian reuses the responses of that solve.
    """
    gamma_k = cfg.gamma0 * cfg.rho**state.k
    mu_k = cfg.mu0 * cfg.rho**state.k

    if f0 is None:
        f0 = forward_map(setup, state.v, state.T)
    r = obs.g_delta - f0
    J = jacobian_v_matrix(setup, state.v, state.T)
    JT = jacobian_T(setup, state.v, state.T, cfg.deltaT, f0)

    MJ = setup.fixed_operator.mass_apply(J)
    MJT = setup.fixed_operator.mass_apply(JT)
    G = J.T @ MJ
    cross = J.T @ MJT
    d = float(JT @ MJT)
    gv = MJ.T @ r
    gT = float(MJT @ r)

    dp, dT = _lm_solve_block(G, cross, d, gv, gT, gamma_k, mu_k, setup.param_gram)
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
    state = LMState(v=np.zeros(setup.grid.n_nodes), T=cfg.T_init, k=0)

    history = []
    v_hist = []
    discrepancy_hit = None
    for k in range(cfg.max_iter + 1):
        f0 = forward_map(setup, state.v, state.T)
        r = mass_norm(setup.grid, obs.g_delta - f0)
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
        state = lm_step(setup, state, obs, cfg, f0)

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

