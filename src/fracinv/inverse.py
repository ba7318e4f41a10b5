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
(F(v, T + dT) - F(v, T)) / dT with the fixed dT = DELTA_T.

One iteration costs one v-Jacobian and two forward solves: F(v_k, T_k),
computed once and shared by the residual and the time difference, and
F(v_k, T_k + dT). Only u(T) is read, so no trajectory is formed.

Sensitivity systems (direction h):
  backward problem:   d_t^alpha w + A w = 0,        w(0) = h
  source problem:     d_t^alpha w + A w = h,        w(0) = 0
  potential problem:  d_t^alpha w + A w = -h u(v),  w(0) = 0

Two propagators of one signature, (op, alpha, tg, w0, load) -> w^N, run the
same FEM + L1 scheme; `InverseSetup.propagator` picks one. F is the lift plus
w^N of the data's (w0, load), the bp/isp v-Jacobian w^N of w0 = the columns
(bp) or of the load M_II times them (isp). (1) On the interval, `fem.l1_modal`
on the modes of the pencil (A_II V = M_II V diag(lam), V^T M_II V = I): w^N =
V (r^N o a0 + s^N o b), a0 = V^T M_II w0, b = V^T load, with the step-N
responses r (w(0) = 1, no load) and s (w(0) = 0, unit load) and no march per
T (`fem.l1_responses`). The modes come once per grid and diffusion in a
process for bp/isp, whose setups share one fixed operator, and for ipp, whose
A_q moves with v, once per distinct potential for F(v_k, T_k), the
v-Jacobian and F(v_k, T_k + dT). ipp's sensitivity starts from zero, and the
scheme is shift-invariant: mode j answers a unit load n steps later with
K_j(n) = s_j^(n+1) - s_j^n, and row j of V^T J_II is -V_j^T B(U_j)_II, U_j =
sum_k K_j(N - k) u^k = s_j^N lift + V [sum_k K_j(N - k) (r^k o a0 + s^k o b)],
whose sums are divided differences of r^N in lam (`_history_sums`): O(m^2),
not the O(N^2 m^2) of stepping m columns. (2) On the square, where a dense
eigensolve raises the peak memory by a third, the time stepper
`fem.l1_evolve`, (1)'s test oracle, evaluates (1)'s step polynomial at the
solve operator by Horner's rule, N solves and no history: F by dpbtrs and
the columns together by the factor's grid-row block sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.random import PCG64, Generator  # loaded at import, not in the first cell

from .errors import AdmissibilityError, NumericalError, ParameterError, ShapeError
from .fem import (FemOperator, _fixed_operator, _initial_and_load, l1_evolve, l1_modal,
                  l1_responses, mass_norm)
from .grids import Grid1D, GridLike, as_nodal_values
from .problems import ProblemSpec, TimeGrid, check_count

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
DELTA_T = 1e-3  # the step of the time difference, and the floor of the time iterate


@dataclass(frozen=True)
class LMConfig:
    """Hyperparameters of the iteration; defaults follow the benchmark runs."""

    gamma0: float
    mu0: float
    rho: float
    T_init: float
    max_iter: int = 30
    stop: str = "oracle"  # "oracle" | "discrepancy" | "max_iter"
    eta: float = 1.1
    # trust-region guard on the scalar time step: |dT| <= t_step_cap * T_k.
    # The joint problem has a near-ridge (wrong times are compensable by the
    # space parameter), so uncapped Newton steps in T can run off along it;
    # the cap keeps T near its prior while the space parameter resolves.
    t_step_cap: float = 0.05

    def __post_init__(self):
        for name in ("gamma0", "mu0", "rho", "T_init", "eta", "t_step_cap"):
            value = getattr(self, name)  # t_step_cap = inf is no cap on the time step
            if math.isnan(value) or (math.isinf(value) and name != "t_step_cap"):
                raise ParameterError(f"{name} must be a finite number, got {value}")
        if not (0.0 < self.rho < 1.0):
            raise ParameterError(f"rho must be in (0, 1), got {self.rho}")
        if self.T_init <= DELTA_T:
            raise ParameterError(f"T_init must exceed the time difference step {DELTA_T:g}")
        if self.gamma0 <= 0 or self.mu0 <= 0:
            raise ParameterError("the weights gamma0 and mu0 must be positive")
        if self.eta <= 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if self.stop not in ("oracle", "discrepancy", "max_iter"):
            raise ParameterError(f"unknown stop rule {self.stop!r}")
        if self.t_step_cap <= 0:
            raise ParameterError("t_step_cap must be positive")
        check_count("max_iter", self.max_iter, 0)


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
    check_count("seed", seed, 0)  # recorded even at epsilon = 0
    g = np.asarray(g_dag, float)
    if not np.all(np.isfinite(g)):
        raise ParameterError("the snapshot must be finite")
    scale = float(np.max(np.abs(g)))
    if epsilon == 0.0:
        return Observation(g_delta=g.copy(), epsilon=0.0, seed=seed,
                           noise_level=0.0, t_true=t_true)
    xi = Generator(PCG64(seed)).standard_normal(g.shape)
    return Observation(
        g_delta=g + epsilon * scale * xi,
        epsilon=epsilon,
        seed=seed,
        noise_level=epsilon * scale,
        t_true=t_true,
    )


class InverseSetup:
    """Fixed context of one inverse problem: everything except (v, T); the
    known data is one ProblemSpec, `known`.

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
        if kind not in ("bp", "isp", "ipp"):
            raise ParameterError(f"unknown problem kind {kind!r}")
        if kind == "bp" and f is None:
            raise ParameterError("bp needs the known source f")
        if kind == "isp" and u0 is None:
            raise ParameterError("isp needs the known initial state")
        if kind == "ipp" and (u0 is None or f is None):
            raise ParameterError("ipp needs u0 and f")
        if kind == "ipp" and not isinstance(grid, Grid1D):
            raise ParameterError("potential reconstruction is one-dimensional")
        TimeGrid(n_steps, 1.0)  # the step rule, an integer n_steps >= 1
        self.kind = kind
        self.grid = grid
        self.known = ProblemSpec(float(alpha), u0, f, dirichlet)
        self.n_steps = n_steps
        self.diffusion = diffusion
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

    @cached_property
    def param_gram(self) -> np.ndarray:
        """L2 Gram matrix of the parameter space (the penalty metric)."""
        if self.basis is not None:
            P = self.basis @ (self.fixed_operator.M @ self.basis.T)
        else:
            P = self.fixed_operator.M_II @ np.eye(self.fixed_operator.interior.size)
        P.setflags(write=False)  # built once, shared by every LM step
        return P

    # -- forward machinery ------------------------------------------------------

    @cached_property
    def fixed_operator(self) -> FemOperator:
        """The operator of the known coefficients, whose mass M serves every kind:
        one a process per (grid, diffusion), or a nodal array's own."""
        try:
            hash(self.diffusion)
        except TypeError:
            return FemOperator(self.grid, self.diffusion)
        return _fixed_operator(self.grid, self.diffusion)

    @property
    def modal(self) -> bool:
        """Whether F runs on the modes of its operator: the fixed one for
        bp/isp, each iterate's for ipp. The interval does; on the square the
        dense m x m eigh (m = 961 at n = 32) raised the peak memory of a 5.1ii
        reconstruction by a third, from 106 to 140 MB."""
        return isinstance(self.grid, Grid1D)

    @property
    def propagator(self):
        """w^N of (op, alpha, tg, w0, load): `fem.l1_modal` if `modal`, else `fem.l1_evolve`."""
        return l1_modal if self.modal else l1_evolve

    def spec_for(self, v) -> ProblemSpec:
        """The data of F(v, .): v is u0 for bp and f for isp; ipp's v is the
        potential of the iterate's operator, so its data is the known data."""
        if self.kind == "ipp":
            return self.known
        return replace(self.known, **{"u0" if self.kind == "bp" else "f": v})

    def _forward_problem(self, v, T: float):
        """(data, operator, time grid) of F(v, T). An ipp iterate is clamped
        and gets its own operator, built once per distinct potential: the fixed
        operator at v = 0 (the same bits, and the process's modes)."""
        tg = TimeGrid(self.n_steps, T)  # rejects T <= 0 before v is read
        v_nodal = as_nodal_values(v, self.grid)
        op = self.fixed_operator
        if self.kind == "ipp":
            v_nodal = _clamp_ipp(v_nodal)
            key = v_nodal.tobytes()
            if self._ipp_operator[0] != key:
                self._ipp_operator = (key, FemOperator(self.grid, self.diffusion, v_nodal)
                                      if v_nodal.any() else op)
            op = self._ipp_operator[1]
        return self.spec_for(v_nodal), op, tg


def _clamp_ipp(v_nodal: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v_nodal)):
        raise AdmissibilityError("potential iterate is not finite")
    worst = max(float(np.max(v_nodal - IPP_CLAMP_MAX)), float(np.max(-v_nodal)), 0.0)
    if worst > IPP_CLAMP_SLACK:
        raise AdmissibilityError(
            f"potential iterate violates [0, {IPP_CLAMP_MAX}] by {worst:.3g}"
        )
    return np.clip(v_nodal, 0.0, IPP_CLAMP_MAX)


def forward_map(setup: InverseSetup, v, T: float) -> np.ndarray:
    """u(v)(., T) on grid nodes via the FEM + L1 scheme: the lift plus w^N
    from `setup.propagator`, u(T) alone."""
    spec, op, tg = setup._forward_problem(v, T)
    _, u, w0, load = _initial_and_load(spec, op)  # u = lift
    u[op.interior] += setup.propagator(op, spec.alpha, tg, w0, load)
    return u


def jacobian_v_matrix(setup: InverseSetup, v, T: float) -> np.ndarray:
    """Dense Jacobian of F in the space parameter, (n_nodes, n_params).

    Boundary rows are zero (Dirichlet data does not move with v). For ipp,
    J_II = -V R with row j of R = V_j^T B(U_j)_II on the iterate's modes (see
    the module docstring). For bp/isp, J_II is `setup.propagator`'s w^N of
    w0 = the columns (bp) or of the load M_II times them (isp).
    """
    spec, op, tg = setup._forward_problem(v, T)
    cols0 = np.eye(op.interior.size) if setup.basis is None else setup.basis.T[op.interior]
    J = np.zeros((setup.grid.n_nodes, cols0.shape[1]))

    if setup.kind == "ipp":
        # a_j^N = sum_k K_j(N - k) (-V_j^T B(u^k) h) = -V_j^T B(U_j) h, B linear in u
        _, lift, w0, load = _initial_and_load(spec, op)
        lam, V = op.modes
        a0, b = V.T @ (op.M_II @ w0), V.T @ load
        r, s, dr = l1_responses(spec.alpha, tg, lam)
        KR, KS = _history_sums(r, s, dr, lam)
        U = np.outer(s, lift)  # (m, n_nodes)
        U[:, op.interior] += (KR * a0 + KS * b) @ V.T
        diag, off = _trilinear_mass_1d(setup.grid, U)
        d, o, Vt = diag[:, 1:-1], off[:, 1:-1], V.T
        R = d * Vt  # row j: (B(U_j)_II V_j)^T, B tridiagonal
        R[:, :-1] += o * Vt[:, 1:]
        R[:, 1:] += o * Vt[:, :-1]
        J[op.interior] = -V @ (R @ cols0)
        return J
    # bp: w(0) = h, no load; isp: w(0) = 0, load M_II h
    w0, load = (cols0, None) if setup.kind == "bp" else (np.zeros(cols0.shape), op.M_II @ cols0)
    J[op.interior] = setup.propagator(op, spec.alpha, tg, w0, load)
    return J


def _history_sums(r, s, dr, lam) -> tuple[np.ndarray, np.ndarray]:
    """KR[j, l] = sum_k K_j(N - k) r_l^k, k = 1..N, and KS likewise of s, from the
    step-N responses: r^N's divided differences (r_l - r_j) / (lam_j - lam_l), -dr_j
    on the diagonal (a discrete Loewner identity; Higham, Functions of Matrices,
    ch. 3), and KS[j, l] = (s_j - KR[j, l]) / lam_l, as sum_k K_j(N - k) = s_j."""
    gap = lam[:, None] - lam
    np.fill_diagonal(gap, 1.0)
    KR = (r - r[:, None]) / gap
    np.fill_diagonal(KR, -dr)
    return KR, (s[:, None] - KR) / lam


def _trilinear_mass_1d(grid: Grid1D, u_nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal B(u) on all nodes, with
    B_ij = int phi_i phi_j u dx, u P1 (exact); leading axes of u carry over."""
    h = grid.h
    ul, ur = u_nodal[..., :-1], u_nodal[..., 1:]
    diag = np.zeros(u_nodal.shape)
    diag[..., :-1] += h * (ul / 4.0 + ur / 12.0)
    diag[..., 1:] += h * (ul / 12.0 + ur / 4.0)
    return diag, h * (ul + ur) / 12.0


def jacobian_T(setup: InverseSetup, v, T: float, deltaT: float, f0: np.ndarray) -> np.ndarray:
    """Forward finite difference (F(v, T + dT) - F(v, T)) / dT, with f0 = F(v, T)."""
    if T <= 0:
        raise ParameterError("T must be positive")
    return (forward_map(setup, v, T + deltaT) - f0) / deltaT


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
    K = np.block([[G + gamma_k * P, cross[:, None]], [cross, d + mu_k]])
    try:
        sol = np.linalg.solve(K, np.append(gv, gT))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericalError(f"normal system singular: {exc}")
    return sol[:-1], float(sol[-1])


def lm_step(setup: InverseSetup, state: LMState, obs: Observation, cfg: LMConfig,
            f0: np.ndarray) -> LMState:
    """One Levenberg-Marquardt update of (v, T).

    Inner products are the discrete L2 (mass) pairings; the penalty metric is
    the L2 Gram of the parameter space, so the step is mesh-robust. f0 is
    u(T_k) = F(state.v, state.T).
    """
    gamma_k = cfg.gamma0 * cfg.rho**state.k
    mu_k = cfg.mu0 * cfg.rho**state.k

    r = obs.g_delta - f0
    J = jacobian_v_matrix(setup, state.v, state.T)
    JT = jacobian_T(setup, state.v, state.T, DELTA_T, f0)

    MJ = setup.fixed_operator.M @ J
    MJT = setup.fixed_operator.M @ JT
    G = J.T @ MJ
    cross = J.T @ MJT
    d = float(JT @ MJT)
    gv = MJ.T @ r
    gT = float(MJT @ r)

    dp, dT = _lm_solve_block(G, cross, d, gv, gT, gamma_k, mu_k, setup.param_gram)
    dT = float(np.clip(dT, -cfg.t_step_cap * state.T, cfg.t_step_cap * state.T))
    if not (np.all(np.isfinite(dp)) and math.isfinite(state.T + dT)):
        raise NumericalError(f"the step diverged at iteration {state.k}")
    # keep the time iterate positive: damp the time step, not the space step
    while state.T + dT <= DELTA_T:
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
    for name, values in (("observation", obs.g_delta), ("truth", truth)):
        if values is not None and np.shape(values) != (setup.grid.n_nodes,):
            raise ShapeError(f"the {name} has shape {np.shape(values)}, "
                             f"the grid {setup.grid.n_nodes} nodes")
        if values is not None and not np.all(np.isfinite(values)):
            raise ParameterError(f"the {name} must be finite")
    state = LMState(v=np.zeros(setup.grid.n_nodes), T=cfg.T_init, k=0)

    history, v_hist, hit = [], [], False
    for k in range(cfg.max_iter + 1):
        f0 = forward_map(setup, state.v, state.T)
        r = mass_norm(setup.grid, obs.g_delta - f0)
        if not np.isfinite(r):
            raise NumericalError(f"residual diverged at iteration {k}")
        e = mass_norm(setup.grid, state.v - truth) if truth is not None else float("nan")
        history.append((k, r, e, state.T))
        v_hist.append(state.v.copy())
        hit = cfg.stop == "discrepancy" and r <= cfg.eta * obs.noise_level
        if hit or k == cfg.max_iter:
            break
        state = lm_step(setup, state, obs, cfg, f0)

    # the discrepancy rule stops at its first hit: all but the oracle take the last iterate
    k_star = int(np.nanargmin([h[2] for h in history])) if cfg.stop == "oracle" else k
    return ReconstructionResult(v_hat=v_hist[k_star], T_hat=history[k_star][3], k_star=k_star,
                                history=history, converged=hit or cfg.stop != "discrepancy",
                                v_history=v_hist)

