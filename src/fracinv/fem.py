"""Galerkin P1 finite elements (1D interval, 2D triangulated unit square)
with L1 time stepping for the fractional time derivative.

The L1 scheme approximates the order-alpha Caputo derivative at t_k by

    (Gamma(2-alpha) tau^alpha)^{-1} [u^k - sum_{j=1}^{k-1} (b_{k-j-1} - b_{k-j}) u^j
                                         - b_{k-1} u^0],
    b_j = (j+1)^(1-alpha) - j^(1-alpha),

which is unconditionally stable and robust to nonsmooth data on uniform
grids. Each step solves (c M + S_a + M_q) u^k = c M (history combo) + F with
c = 1/(Gamma(2-alpha) tau^alpha); the factorization is computed once and
reused across steps. Nonzero constant Dirichlet data is imposed by an affine
lift. Assembly uses 3-point Gauss per element (exact for the P1 products
with smooth coefficients), is fully vectorized, and bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import splu
from scipy.special import gamma as gamma_fn

from .errors import InsufficientHistoryError, NumericalError, ParameterError, ShapeError
from .grids import Grid1D, Grid2D, GridLike, as_nodal_values
from .problems import ProblemSpec, TimeGrid, TimeIndependentSource

__all__ = [
    "L1Weights",
    "FemOperator",
    "Trajectory",
    "solve_fem",
    "caputo_derivative_at_T",
    "convergence_study",
    "ConvergenceReport",
    "mass_inner",
    "mass_norm",
]

_GAUSS_XI = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class L1Weights:
    """L1 convolution weights b_j = (j+1)^(1-alpha) - j^(1-alpha)."""

    alpha: float
    n_steps: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")

    @cached_property
    def b(self) -> np.ndarray:
        j = np.arange(self.n_steps + 1, dtype=float)
        b = (j + 1.0) ** (1.0 - self.alpha) - j ** (1.0 - self.alpha)
        b[0] = 1.0  # 0**0 must read as 0 here so alpha=1 is backward Euler
        b.setflags(write=False)  # built once, shared by every step
        return b

    def scale(self, tau: float) -> float:
        return 1.0 / (gamma_fn(2.0 - self.alpha) * tau**self.alpha)

    def history_coefficients(self, k: int) -> np.ndarray:
        """coef[j] multiplying u^j, j = 0..k-1, in the history combination."""
        b = self.b
        coef = np.empty(k)
        coef[0] = b[k - 1]
        if k > 1:
            j = np.arange(1, k)
            coef[1:] = b[k - 1 - j] - b[k - j]
        return coef


# ---------------------------------------------------------------------------
# assembly


def _coeff_at(vals_or_callable, pts_1d: np.ndarray, grid: Grid1D) -> np.ndarray:
    if callable(vals_or_callable):
        return np.asarray(vals_or_callable(pts_1d), dtype=float) * np.ones_like(pts_1d)
    arr = np.asarray(vals_or_callable, dtype=float)
    if arr.ndim == 0:
        return np.full(pts_1d.shape, float(arr))
    return np.interp(pts_1d, grid.nodes, arr)


def _assemble_1d(grid: Grid1D, a, q):
    n = grid.n
    h = grid.h
    xl = grid.nodes[:-1]
    gauss = xl[:, None] + h * _GAUSS_XI[None, :]
    a_g = _coeff_at(a, gauss.ravel(), grid).reshape(n, 3)
    q_g = _coeff_at(q, gauss.ravel(), grid).reshape(n, 3)
    if np.min(a_g) <= 0:
        raise ParameterError("diffusion must be strictly positive")
    if np.min(q_g) < 0:
        raise ParameterError("potential must be nonnegative")

    a_bar = a_g @ _GAUSS_W
    s_off = -a_bar / h
    # weighted mass with q: exact 3-pt Gauss per element
    m00 = h * (q_g * (1.0 - _GAUSS_XI) ** 2) @ _GAUSS_W
    m01 = h * (q_g * _GAUSS_XI * (1.0 - _GAUSS_XI)) @ _GAUSS_W
    m11 = h * (q_g * _GAUSS_XI**2) @ _GAUSS_W

    nn = grid.n_nodes
    diag_a = np.zeros(nn)
    off_a = np.zeros(nn - 1)
    diag_a[:-1] += a_bar / h + m00
    diag_a[1:] += a_bar / h + m11
    off_a[:] = s_off + m01

    diag_m = np.zeros(nn)
    off_m = np.full(nn - 1, h / 6.0)
    diag_m[:-1] += h / 3.0
    diag_m[1:] += h / 3.0
    return (diag_m, off_m), (diag_a, off_a)


def _assemble_2d(grid: Grid2D, a, q):
    pts = grid.nodes
    tris = grid.triangles()
    p0, p1, p2 = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(det)
    # gradients of barycentric coordinates
    g0 = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]]) / det[:, None]
    g1 = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]]) / det[:, None]
    g2 = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]]) / det[:, None]
    grads = np.stack([g0, g1, g2], axis=1)  # (ntri, 3, 2)

    mids = np.stack([(p0 + p1) / 2, (p1 + p2) / 2, (p2 + p0) / 2], axis=1)  # (ntri,3,2)

    def coeff2(fun):
        if callable(fun):
            return np.asarray(fun(mids[..., 0], mids[..., 1]), dtype=float) * np.ones(
                mids.shape[:2]
            )
        arr = np.asarray(fun, dtype=float)
        if arr.ndim == 0:
            return np.full(mids.shape[:2], float(arr))
        # nodal array: P1 value at edge midpoints = average of edge endpoints
        v = arr[tris]  # (ntri, 3)
        return np.stack(
            [(v[:, 0] + v[:, 1]) / 2, (v[:, 1] + v[:, 2]) / 2, (v[:, 2] + v[:, 0]) / 2],
            axis=1,
        )

    a_m = coeff2(a)
    q_m = coeff2(q)
    if np.min(a_m) <= 0:
        raise ParameterError("diffusion must be strictly positive")
    if np.min(q_m) < 0:
        raise ParameterError("potential must be nonnegative")
    a_bar = a_m.mean(axis=1)

    # local P1 values at the three edge midpoints (edge k joins vertices k, k+1)
    lam_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])  # (mid, vtx)

    ntri = tris.shape[0]
    rows = np.repeat(tris, 3, axis=1).reshape(ntri, 3, 3)
    cols = np.tile(tris[:, None, :], (1, 3, 1))

    dots = np.einsum("tid,tjd->tij", grads, grads)
    s_loc = (a_bar * area)[:, None, None] * dots
    m_loc = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))[None, :, :]
    q_loc = np.einsum(
        "t m, m i, m j -> t i j", q_m * (area / 3.0)[:, None], lam_mid, lam_mid
    )

    nn = grid.n_nodes
    A = sp.coo_matrix(
        ((s_loc + q_loc).ravel(), (rows.ravel(), cols.ravel())), shape=(nn, nn)
    ).tocsr()
    M = sp.coo_matrix(
        (m_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(nn, nn)
    ).tocsr()
    return M, A


class FemOperator:
    """Assembled mass M and elliptic A = S_a + M_q on all nodes, with the
    interior reduction and a reusable factorization of (c M + A)_II."""

    def __init__(self, grid: GridLike, diffusion=1.0, potential=0.0):
        self.grid = grid
        self.potential = potential
        if isinstance(grid, Grid1D):
            self._dim = 1
            (self._m_diag, self._m_off), (self._a_diag, self._a_off) = _assemble_1d(
                grid, diffusion, potential
            )
            self.interior = np.arange(1, grid.n)
        else:
            self._dim = 2
            self._M2, self._A2 = _assemble_2d(grid, diffusion, potential)
            self.interior = np.where(grid.interior_mask())[0]
        self._factor_cache: dict[float, object] = {}

    # -- full-node matvecs ---------------------------------------------------
    def _tri_matvec(self, diag, off, v):
        if v.ndim == 1:
            out = diag * v
            out[:-1] += off * v[1:]
            out[1:] += off * v[:-1]
        else:
            out = diag[:, None] * v
            out[:-1] += off[:, None] * v[1:]
            out[1:] += off[:, None] * v[:-1]
        return out

    def mass_apply(self, v: np.ndarray) -> np.ndarray:
        if self._dim == 1:
            return self._tri_matvec(self._m_diag, self._m_off, v)
        return self._M2 @ v

    def elliptic_apply(self, v: np.ndarray) -> np.ndarray:
        if self._dim == 1:
            return self._tri_matvec(self._a_diag, self._a_off, v)
        return self._A2 @ v

    def mass_apply_interior(self, v_int: np.ndarray) -> np.ndarray:
        """M_II v (interior-to-interior)."""
        if self._dim == 1:
            full_shape = (self.grid.n_nodes,) + v_int.shape[1:]
            full = np.zeros(full_shape)
            full[self.interior] = v_int
            return self.mass_apply(full)[self.interior]
        return (self._M2[self.interior][:, self.interior]) @ v_int

    def factorized(self, c: float):
        """Solver for (c M + A)_II x = rhs; cached per scale c."""
        key = float(c)
        if key not in self._factor_cache:
            if self._dim == 1:
                diag = (c * self._m_diag + self._a_diag)[self.interior]
                off = (c * self._m_off + self._a_off)[self.interior[:-1]]
                ab = np.zeros((2, diag.size))
                ab[0, 1:] = off
                ab[1, :] = diag
                try:
                    cb = cholesky_banded(ab)
                except Exception as exc:  # pragma: no cover - guarded by a>=a_min
                    raise NumericalError(f"banded factorization failed: {exc}")
                self._factor_cache[key] = ("banded", cb)
            else:
                K = (c * self._M2 + self._A2).tocsc()[self.interior][:, self.interior]
                try:
                    lu = splu(K.tocsc())
                except Exception as exc:  # pragma: no cover
                    raise NumericalError(f"sparse factorization failed: {exc}")
                self._factor_cache[key] = ("splu", lu)
        kind, solver = self._factor_cache[key]
        if kind == "banded":
            return lambda rhs: cho_solve_banded((solver, False), rhs)
        return lambda rhs: solver.solve(rhs)


@dataclass
class Trajectory:
    """Full time history of nodal fields, u[k] at time k*tau."""

    grid: GridLike
    times: np.ndarray
    values: np.ndarray  # (n_steps + 1, n_nodes)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def l1_evolve(
    op: FemOperator,
    alpha: float,
    tg: TimeGrid,
    w0_int: np.ndarray,
    load_at: Optional[Callable[[int], np.ndarray]] = None,
    keep_history: bool = True,
) -> np.ndarray:
    """March the zero-boundary unknown w on interior nodes through all steps.

    w0_int may be a vector (m,) or a matrix (m, p) of p simultaneous states;
    load_at(k) returns the interior load at step k with matching trailing
    shape (or None). Returns the full history (n_steps+1, m[, p]) or just the
    final state when keep_history is False.
    """
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)

    # the memory term needs the full history regardless of keep_history
    past = np.empty((tg.n_steps + 1,) + w0_int.shape)
    past[0] = w0_int
    for k in range(1, tg.n_steps + 1):
        combo = np.tensordot(weights.history_coefficients(k), past[:k], axes=1)
        rhs = c * op.mass_apply_interior(combo)
        if load_at is not None:
            f = load_at(k)
            if f is not None:
                rhs = rhs + f
        past[k] = solve(rhs)
    return past if keep_history else past[-1]


def _load_vector(op: FemOperator, f_nodal: np.ndarray) -> np.ndarray:
    """Interior Galerkin load of a P1-interpolated source: (M f)_I."""
    return op.mass_apply(f_nodal)[op.interior]


def _lift_vector(spec: ProblemSpec, grid: GridLike) -> np.ndarray:
    if spec.dirichlet is None:
        return np.zeros(grid.n_nodes)
    a0, a1 = spec.dirichlet
    if isinstance(grid, Grid1D):
        return a0 * (1.0 - grid.nodes) + a1 * grid.nodes
    raise ParameterError("constant Dirichlet lift is defined on the interval")


def solve_fem(spec: ProblemSpec, grid: GridLike, tg: TimeGrid,
              op: Optional[FemOperator] = None) -> Trajectory:
    """P1 + L1 forward solve; returns the full nodal trajectory."""
    if op is None:
        op = FemOperator(grid, spec.diffusion, spec.potential)
    u0 = as_nodal_values(spec.u0, grid)
    lift = _lift_vector(spec, grid)
    w0 = (u0 - lift)[op.interior]

    if isinstance(spec.source, TimeIndependentSource):
        f_nodal = spec.sample("f", grid)
        base = _load_vector(op, f_nodal) - op.elliptic_apply(lift)[op.interior]

        def load_at(k):
            return base

    else:
        psi_nodal = spec.sample("psi", grid)
        psi_load = _load_vector(op, psi_nodal)
        lift_load = op.elliptic_apply(lift)[op.interior]
        g = spec.source.g
        times = tg.times

        def load_at(k):
            return float(g(times[k])) * psi_load - lift_load

    hist = l1_evolve(op, spec.alpha, tg, w0, load_at)
    values = np.tile(lift, (tg.n_steps + 1, 1))
    values[:, op.interior] += hist
    values[0] = u0
    return Trajectory(grid=grid, times=tg.times, values=values)


def caputo_derivative_at_T(traj: Trajectory, tg: TimeGrid, alpha: float) -> np.ndarray:
    """Discrete L1 evaluation of the order-alpha time derivative at t = T."""
    if traj.values.shape[0] < 2:
        raise InsufficientHistoryError("need at least two stored steps")
    if traj.values.shape[0] != tg.n_steps + 1:
        raise ShapeError("trajectory length does not match the time grid")
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    N = tg.n_steps
    coef = weights.history_coefficients(N)
    return c * (traj.values[N] - np.tensordot(coef, traj.values[:N], axes=1))


# ---------------------------------------------------------------------------
# discrete L2 geometry


@lru_cache(maxsize=32)
def _mass_for(grid: GridLike):
    return FemOperator(grid, 1.0, 0.0)


def mass_inner(grid: GridLike, u: np.ndarray, v: np.ndarray) -> float:
    """Consistent-mass L2 inner product over the domain."""
    return float(np.dot(np.asarray(u, float), _mass_for(grid).mass_apply(np.asarray(v, float))))


def mass_norm(grid: GridLike, u: np.ndarray) -> float:
    return float(np.sqrt(max(mass_inner(grid, u, u), 0.0)))


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceReport:
    space_order: float
    time_order: float
    space_errors: list
    time_diffs: list


def convergence_study(
    spec: ProblemSpec,
    space_levels=(32, 64, 128),
    time_levels=(64, 128, 256),
    reference: Optional[Callable[[GridLike], np.ndarray]] = None,
    fine_steps: int = 2048,
    fine_n: int = 512,
) -> ConvergenceReport:
    """Observed orders: spatial vs a reference solution at fixed fine tau,
    temporal by self-differences at fixed fine h (both least-squares slopes).
    """
    if reference is None:
        from .spectral import build_eigendecomposition, solve_spectral

        ed = build_eigendecomposition(spec.potential, 256, grid=Grid1D(4096))

        def reference(grid):
            u = solve_spectral(spec, ed, spec.T).nodal()
            return np.interp(grid.nodes, ed.grid.nodes, u)

    space_errors = []
    for n in space_levels:
        grid = spec.grid_for(n)
        u = solve_fem(spec, grid, TimeGrid(fine_steps, spec.T)).final
        err = mass_norm(grid, u - reference(grid))
        space_errors.append((1.0 / n, err))
    hs, es = zip(*space_errors)
    space_order = float(np.polyfit(np.log(hs), np.log(es), 1)[0])

    grid = spec.grid_for(fine_n)
    finals = {}
    for n_steps in list(time_levels) + [2 * max(time_levels)]:
        finals[n_steps] = solve_fem(spec, grid, TimeGrid(n_steps, spec.T)).final
    time_diffs = []
    for n_steps in time_levels:
        d = mass_norm(grid, finals[n_steps] - finals[2 * n_steps])
        time_diffs.append((spec.T / n_steps, d))
    taus, ds = zip(*time_diffs)
    time_order = float(np.polyfit(np.log(taus), np.log(ds), 1)[0])
    return ConvergenceReport(space_order, time_order, space_errors, time_diffs)
