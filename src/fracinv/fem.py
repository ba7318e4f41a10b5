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

Both grids store M and A as sparse matrices and factor the SPD system
(c M + A)_II by one banded Cholesky. The interior nodes are numbered
row-major, so a node couples only to nodes at most one grid row away: the
bandwidth b is 1 on the interval and n on the n x n square (the SW-NE
diagonal neighbour sits n interior indices on). The band is read off the
stored entries; the factor costs O(m b^2) and each solve O(m b) for m
interior nodes.

The same scheme also runs mode by mode: in the eigenbasis of the pencil
(A_II, M_II) each step is a scalar product (`l1_responses`). On the interval
the inversion's u(T) and v-Jacobian share one such march per (alpha, N, T)
(`FemOperator.responses`); the time stepper (`l1_evolve`, `solve_fem`) serves
the square, data synthesis and the tests' oracles. Both engines run on one
march (`_l1_march`), which sums the history in blocks of steps by GEMMs; they
differ only in the step that turns a history combination into u^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.special import gamma as gamma_fn

from .errors import NumericalError, ParameterError
from .grids import Grid1D, Grid2D, GridLike, as_nodal_values
from .problems import ProblemSpec, TimeGrid

__all__ = [
    "L1Weights",
    "FemOperator",
    "Trajectory",
    "l1_responses",
    "solve_fem",
    "convergence_study",
    "ConvergenceReport",
    "mass_inner",
    "mass_norm",
]

_GAUSS_XI = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
HISTORY_BLOCK = 32  # steps per block of the L1 history; see _l1_march


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
    diag_a[:-1] += a_bar / h + m00
    diag_a[1:] += a_bar / h + m11
    off_a = s_off + m01

    diag_m = np.zeros(nn)
    off_m = np.full(nn - 1, h / 6.0)
    diag_m[:-1] += h / 3.0
    diag_m[1:] += h / 3.0
    M = sp.diags([off_m, diag_m, off_m], [-1, 0, 1], format="csr")
    A = sp.diags([off_a, diag_a, off_a], [-1, 0, 1], format="csr")
    return M, A


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


def _upper_band(K: sp.spmatrix) -> np.ndarray:
    """Upper band storage of the symmetric K, as `cholesky_banded` reads it:
    ab[u + i - j, j] = K[i, j] for i <= j, with the bandwidth u measured
    from the stored entries."""
    K = K.tocoo()
    upper = K.col >= K.row
    rows, cols = K.row[upper], K.col[upper]
    u = int(np.max(cols - rows))
    ab = np.zeros((u + 1, K.shape[0]))
    ab[u + rows - cols, cols] = K.data[upper]
    return ab


class FemOperator:
    """Sparse mass M and elliptic A = S_a + M_q on all nodes, the interior
    block M_II, and a banded Cholesky factor of (c M + A)_II per scale c.

    One factorization path serves both grids: with the row-major interior
    numbering, (c M + A)_II is SPD with bandwidth 1 on the interval and n on
    the n x n square, so `cholesky_banded` factors it on either.
    """

    def __init__(self, grid: GridLike, diffusion=1.0, potential=0.0):
        self.grid = grid
        if isinstance(grid, Grid1D):
            self.M, self.A = _assemble_1d(grid, diffusion, potential)
            self.interior = np.arange(1, grid.n)
        else:
            self.M, self.A = _assemble_2d(grid, diffusion, potential)
            self.interior = np.where(grid.interior_mask())[0]
        self.M_II = self.M[self.interior][:, self.interior]
        self._factor_cache: dict[float, np.ndarray] = {}
        self._responses: tuple = (None, None)  # ((alpha, tg), (r, s)) of the last march

    def mass_apply(self, v: np.ndarray) -> np.ndarray:
        return self.M @ v

    def elliptic_apply(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def mass_apply_interior(self, v_int: np.ndarray) -> np.ndarray:
        """M_II v (interior-to-interior)."""
        return self.M_II @ v_int

    def factorized(self, c: float):
        """Solver for (c M + A)_II x = rhs: LAPACK's dpbtrs on a factor cached per c."""
        key = float(c)
        if key not in self._factor_cache:
            K = (c * self.M + self.A)[self.interior][:, self.interior]
            try:
                self._factor_cache[key] = cholesky_banded(_upper_band(K))
            except (np.linalg.LinAlgError, ValueError) as exc:  # pragma: no cover - SPD
                raise NumericalError(f"banded factorization failed: {exc}")
        cb = self._factor_cache[key]

        def solve(rhs):
            x, info = dpbtrs(cb, rhs)
            if info != 0:
                raise NumericalError(f"banded solve failed: dpbtrs info {info}")
            return x

        return solve

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (lam, V) of the pencil (A_II, M_II), V^T M_II V = I.

        A Cholesky reduction: M_II = L L^T, L^-1 A_II L^-T = W diag(lam) W^T,
        V = L^-T W. Dense, O(m^3) time and O(m^2) memory, once per operator.
        """
        # numpy's LAPACK, not scipy's: the numpy and scipy wheels each bundle
        # their own OpenBLAS, and after a scipy LAPACK call scipy's idle BLAS
        # threads keep spinning and slow the GEMMs of the L1 march that follow
        A_II = self.A[self.interior][:, self.interior].toarray()
        L_inv = np.linalg.inv(np.linalg.cholesky(self.M_II.toarray()))
        lam, W = np.linalg.eigh(L_inv @ A_II @ L_inv.T)
        return lam, L_inv.T @ W

    def responses(self, alpha: float, tg: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """`l1_responses` on `modes`, read-only; the last (alpha, N, T) is
        kept, so F and the v-Jacobian at one LM iterate share one march."""
        if self._responses[0] != (alpha, tg):
            self._responses = (None, None)  # free the old pair before the march
            r, s = l1_responses(alpha, tg, self.modes[0])
            r.setflags(write=False)
            s.setflags(write=False)
            self._responses = ((alpha, tg), (r, s))
        return self._responses[1]


@dataclass
class Trajectory:
    """Full time history of nodal fields, u[k] at time k*tau."""

    grid: GridLike
    times: np.ndarray
    values: np.ndarray  # (n_steps + 1, n_nodes)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _l1_march(weights: L1Weights, first: np.ndarray,
              step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The L1 history u^0 = first, u^k = step(combo_k), k = 1..n_steps, with
    combo_k what the bracket in the module docstring subtracts from u^k.
    Returns the whole history, (n_steps+1,) + first.shape.

    The history runs in blocks of HISTORY_BLOCK steps (after Hairer, Lubich
    and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): one GEMM writes the
    settled steps' share into the block's rows of the history, and each step
    adds its in-block terms. On the 5.3 data synthesis (2,048 cells, 1,024
    steps; 2-core VM, 2 BLAS threads) blocks of 16/32/64/128/256 steps took
    0.14/0.13/0.13/0.13/0.17 s, one step at a time 0.28 s.
    """
    b = weights.b
    drop = b[:-1] - b[1:]  # drop[i] weighs u^(k-1-i) in step k's history, for k-1-i >= 1
    # step k weighs rows k0..k by the last k - k0 + 1 entries (row k: the settled share)
    inblock = np.append(drop[:HISTORY_BLOCK - 1][::-1], 1.0)

    n = weights.n_steps
    past = np.empty((n + 1,) + first.shape)
    past[0] = first
    flat = past.reshape(n + 1, -1)
    for k0 in range(1, n + 1, HISTORY_BLOCK):
        k1 = min(k0 + HISTORY_BLOCK, n + 1)
        ks = np.arange(k0, k1)
        panel = drop[ks[:, None] - np.arange(k0) - 1]
        panel[:, 0] = b[ks - 1]
        np.matmul(panel, flat[:k0], out=flat[k0:k1])
        for k in ks:
            past[k] = step((inblock[k0 - k - 1:] @ flat[k0:k + 1]).reshape(first.shape))
    return past


def l1_evolve(
    op: FemOperator,
    alpha: float,
    tg: TimeGrid,
    w0_int: np.ndarray,
    load: Optional[np.ndarray] = None,
) -> np.ndarray:
    """March the zero-boundary unknown w on interior nodes through all steps.

    w0_int may be a vector (m,) or a matrix (m, p) of p simultaneous states;
    load is the interior load, constant in time, with matching shape (or
    None). Returns the full history (n_steps+1, m[, p]); each step solves
    (c M + A)_II w^k = c M_II combo_k + load.
    """
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)

    def step(combo):
        rhs = c * op.mass_apply_interior(combo)
        if load is not None:
            rhs += load
        return solve(rhs)

    return _l1_march(weights, w0_int, step)


def l1_responses(alpha: float, tg: TimeGrid, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L1 scheme on one mode of eigenvalue lam_j, for all modes at once.

    In the eigenbasis of the pencil (A_II, M_II) the step (c M + A) w^k =
    c M combo_k + F splits into (c + lam_j) a_j^k = c combo_k(a_j) + F_j, so
    each mode's state at step k is r_j^k a_j^0 + s_j^k F_j, with the
    responses r (a^0 = 1, no load) and s (a^0 = 0, unit load). The history
    coefficients sum to 1, so the steady state a = F / lam is a fixed point
    and s = (1 - r) / lam: one march serves both. Returns (r, s) at every
    step, (n_steps+1, m) each.
    """
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    gain = c / (c + lam)
    r = _l1_march(weights, np.ones(lam.size), lambda combo: combo * gain)
    s = 1.0 - r
    s /= lam
    return r, s


def _initial_and_load(spec: ProblemSpec, op: FemOperator):
    """u0, the Dirichlet lift, and w0 = u0 - lift and the load on the interior."""
    u0 = as_nodal_values(spec.u0, op.grid)
    lift = np.zeros(op.grid.n_nodes)
    if spec.dirichlet is not None:
        if not isinstance(op.grid, Grid1D):
            raise ParameterError("constant Dirichlet lift is defined on the interval")
        lift = spec.dirichlet[0] * (1.0 - op.grid.nodes) + spec.dirichlet[1] * op.grid.nodes
    load = (op.mass_apply(spec.sample("f", op.grid)) - op.elliptic_apply(lift))[op.interior]
    return u0, lift, (u0 - lift)[op.interior], load


def modal_data(spec: ProblemSpec, op: FemOperator):
    """(lift, V^T M_II w0, V^T load) on the modes (lam, V) of `op`."""
    _, lift, w0, load = _initial_and_load(spec, op)
    V = op.modes[1]
    return lift, V.T @ op.mass_apply_interior(w0), V.T @ load


def solve_fem(spec: ProblemSpec, grid: GridLike, tg: TimeGrid,
              op: Optional[FemOperator] = None) -> Trajectory:
    """P1 + L1 forward solve through the time stepper; returns the full nodal
    trajectory (the inversion on the interval runs mode by mode instead)."""
    if op is None:
        op = FemOperator(grid, spec.diffusion, spec.potential)
    u0, lift, w0, load = _initial_and_load(spec, op)
    hist = l1_evolve(op, spec.alpha, tg, w0, load)
    hist += lift[op.interior]
    values = np.tile(lift, (tg.n_steps + 1, 1))
    values[:, op.interior] = hist
    values[0] = u0
    return Trajectory(grid=grid, times=tg.times, values=values)


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
    reference: Callable[[GridLike], np.ndarray],
    space_levels=(32, 64, 128),
    time_levels=(64, 128, 256),
    fine_steps: int = 2048,
    fine_n: int = 512,
) -> ConvergenceReport:
    """Observed orders: spatial vs reference(grid), the solution's values at
    the grid's nodes, at fixed fine tau; temporal by self-differences at
    fixed fine h (both least-squares slopes).
    """
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
