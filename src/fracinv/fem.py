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

Both grids store M and A as CSR arrays, which scipy.sparse's compiled
kernels assemble and apply without the package, and the operator keeps M's
interior block M_II. The interior nodes are numbered row-major, so
a node couples only to nodes at most one grid row away: the bandwidth kd is
1 on the interval and n on the n x n square (the SW-NE diagonal neighbour
sits n interior indices on). At construction the operator also stores the
lower bands of M_II and A_II, and at each new scale c LAPACK from numpy's
OpenBLAS, the process's only one, factors c M_b + A_b in place. On the
interval the band is tridiagonal: dpttrf factors it as L D L^T and a solve,
dpttrs, is two O(m) recurrences (19 us against dpbtrs' 41 us at 2,047
unknowns, 4.7 against 11 us at 255; 2-core VM). On the square dpbtrf
factors it in O(m kd^2) for m interior nodes. In lower storage, for
kd <= 64 LAPACK's unblocked dpbtf2 makes unit-stride rank-1 updates, which
OpenBLAS runs inline (the upper sweep's strided ones went to its thread
pool), in the same order as the upper sweep, so both give bit-identical
factors. The operator's one solve, `FemOperator.factorized`, takes a vector
or a column block. On the square dpbtrs solves a vector by two level-2
sweeps of O(m kd), and a column block takes two sweeps over grid-row
blocks: U = L^T stays inside the envelope of (c M + A)_II, so in blocks of
a grid row's n - 1 nodes it is block upper bidiagonal (the in-band
U[i, i + n] at a row's end lies outside the envelope and is 0.0), and
n - 1 small dense products solve U^T Y = R and U X = Y (Golub and Van Loan,
Matrix Computations, ch. 4). 36 columns on Grid2D(32) took 0.3 ms against
dpbtrs' 1.4 ms, one vector 0.14 ms against 0.04 ms (2-core VM).

Two propagators, each the other's test oracle, take (op, alpha, tg, w0, load)
to w^N shaped as w0, a vector or a column block. In the eigenbasis of the
pencil (A_II, M_II) each step multiplies by the gain g = c / (c + lam), so the
step-N response is one polynomial in g per (alpha, N), whose coefficients one
blocked march builds (`_l1_march`, whose step shifts them by one degree;
`_l1_polynomial`). `l1_modal`, the inversion's on the interval, evaluates it
at the modes' gains at every T (`l1_responses`). The time stepper
(`l1_evolve`; `solve_fem`), which serves the square and data synthesis,
evaluates it at G = c (c M + A)_II^-1 M_II by Horner's rule, one solve per
step and no history; where the state has fewer than N + 1 entries it marches
the state instead. A process builds one
operator per grid and diffusion (`_fixed_operator`), and LAPACK's banded dsbgvd
its modes (`FemOperator.modes`: 0.8-1.0 ms at m = 127 where a dense Cholesky
reduction and eigh took 1.7-2.1 ms; 2-core VM, 2 BLAS threads).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, ParameterError, ShapeError
from .grids import Grid1D, Grid2D, GridLike, as_nodal_values, at_points
from .mittag_leffler import MLParams, _load_core, gamma as gamma_fn
from .problems import ProblemSpec, TimeGrid

__all__ = [
    "L1Weights",
    "FemOperator",
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
_SPARSETOOLS = _load_core("sparse", "_sparsetools")  # the kernels of scipy.sparse's CSR


def _numpy_openblas() -> ctypes.CDLL:
    """numpy's own OpenBLAS, as numpy's Linux wheels bundle it (ILP64, symbols
    scipy_<name>_64_): scipy's _flapack would start a second thread pool."""
    folder = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(folder.glob("libscipy_openblas64_*.so")):
        return ctypes.CDLL(str(path))
    raise ImportError(f"numpy's bundled OpenBLAS is not in {folder} (see README, private names)")


_OPENBLAS = _numpy_openblas()
_DPBTRF, _DPBTRS = _OPENBLAS.scipy_dpbtrf_64_, _OPENBLAS.scipy_dpbtrs_64_
for _fn, _n in ((_DPBTRF, 5), (_DPBTRS, 8)):  # by the Fortran ABI: uplo, _n pointers, len(uplo)
    _fn.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * _n + [ctypes.c_size_t]
_DPTTRF, _DPTTRS = _OPENBLAS.scipy_dpttrf_64_, _OPENBLAS.scipy_dpttrs_64_
for _fn, _n in ((_DPTTRF, 4), (_DPTTRS, 7)):  # _n pointers, no character argument
    _fn.argtypes = [ctypes.c_void_p] * _n
_DSBGVD = _OPENBLAS.scipy_dsbgvd_64_  # jobz, uplo, 15 pointers, len(jobz), len(uplo)
_DSBGVD.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 15 + [ctypes.c_size_t] * 2


@dataclass(frozen=True)
class L1Weights:
    """L1 convolution weights b_j = (j+1)^(1-alpha) - j^(1-alpha)."""

    alpha: float
    n_steps: int

    def __post_init__(self):
        MLParams(self.alpha)  # the order rule, alpha in (0, 1]

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


@dataclass(frozen=True, eq=False)
class _Csr:
    """A square matrix held as scipy.sparse's CSR holds it. `@`, its only
    operator, runs the compiled csr_matvec(s) that CSR's `@` runs."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __matmul__(self, v):
        n = self.indptr.size - 1
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape[:1] != (n,):
            raise ShapeError(f"dimension mismatch: {n} x {n} matrix @ shape {v.shape}")
        out, csr = np.zeros(v.shape), (self.indptr, self.indices, self.data)
        if v.ndim == 1:
            _SPARSETOOLS.csr_matvec(n, n, *csr, v, out)
        else:
            _SPARSETOOLS.csr_matvecs(n, n, v.size // n, *csr, v, out)
        return out


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> _Csr:
    """scipy.sparse's coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr(),
    by the kernels it runs: int32 indices sorted in each row, then an entry's
    contributions summed in that order."""
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    indptr, indices, data = np.empty(n + 1, np.int32), np.empty_like(cols), np.empty_like(vals)
    _SPARSETOOLS.coo_tocsr(n, n, vals.size, rows, cols, vals, indptr, indices, data)
    if not _SPARSETOOLS.csr_has_sorted_indices(n, indptr, indices):
        _SPARSETOOLS.csr_sort_indices(n, indptr, indices, data)
    _SPARSETOOLS.csr_sum_duplicates(n, n, indptr, indices, data)
    return _Csr(indptr, indices[:indptr[-1]], data[:indptr[-1]])


def _interior_block(K: _Csr, interior: np.ndarray, kd: int) -> tuple[tuple, np.ndarray]:
    """The entries (rows, cols, vals) of K_II = K[interior][:, interior], interior sorted,
    and its lower band lb[i - j, j] = K_II[i, j], i >= j, of bandwidth kd, in Fortran
    order so LAPACK factors it in place."""
    new = np.full(K.indptr.size - 1, -1)
    new[interior] = np.arange(interior.size)
    rows, cols = np.repeat(new, np.diff(K.indptr)), new[K.indices]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, vals = rows[keep], cols[keep], K.data[keep]
    lower = rows >= cols
    lb = np.zeros((kd + 1, interior.size), order="F")
    lb[(rows - cols)[lower], cols[lower]] = vals[lower]
    return (rows, cols, vals), lb


def _coeff_at(vals_or_callable, pts_1d: np.ndarray, grid: Grid1D) -> np.ndarray:
    if callable(vals_or_callable):
        return at_points(vals_or_callable, pts_1d)
    # a constant interpolates to its own bits: slope 0 times an offset, plus the constant
    return np.interp(pts_1d, grid.nodes, as_nodal_values(vals_or_callable, grid))


def _check_coefficients(a: np.ndarray, q: np.ndarray) -> None:
    """The coefficient rule, on a's and q's values at the quadrature points:
    the diffusion finite and > 0, the potential finite and >= 0 (NaN fails)."""
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ParameterError("diffusion must be finite and strictly positive")
    if not np.all((q >= 0.0) & (q < np.inf)):
        raise ParameterError("potential must be finite and nonnegative")


def _assemble_1d(grid: Grid1D, a, q):
    n = grid.n
    h = grid.h
    xl = grid.nodes[:-1]
    gauss = xl[:, None] + h * _GAUSS_XI[None, :]
    a_g = _coeff_at(a, gauss.ravel(), grid).reshape(n, 3)
    q_g = _coeff_at(q, gauss.ravel(), grid).reshape(n, 3)
    _check_coefficients(a_g, q_g)

    a_bar = a_g @ _GAUSS_W
    # element e's local [[k00, k01], [k01, k11]] on nodes e, e + 1; q's mass by 3-pt Gauss
    m00 = h * (q_g * (1.0 - _GAUSS_XI) ** 2) @ _GAUSS_W
    m01 = h * (q_g * _GAUSS_XI * (1.0 - _GAUSS_XI)) @ _GAUSS_W
    m11 = h * (q_g * _GAUSS_XI**2) @ _GAUSS_W
    k_a = np.column_stack([a_bar / h + m00, -a_bar / h + m01, -a_bar / h + m01, a_bar / h + m11])
    rows, cols = ((np.arange(n)[:, None] + d).ravel() for d in ([0, 0, 1, 1], [0, 1, 0, 1]))
    return (_csr(rows, cols, np.tile([h / 3.0, h / 6.0, h / 6.0, h / 3.0], n), grid.n_nodes),
            _csr(rows, cols, k_a.ravel(), grid.n_nodes))  # M, A


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
            return at_points(fun, mids[..., 0], mids[..., 1])
        # nodal values: P1 value at edge midpoints = average of edge endpoints
        v = as_nodal_values(fun, grid)[tris]  # (ntri, 3)
        return (v + np.roll(v, -1, axis=1)) / 2

    a_m = coeff2(a)
    q_m = coeff2(q)
    _check_coefficients(a_m, q_m)
    a_bar = a_m.mean(axis=1)

    # local P1 values at the three edge midpoints (edge k joins vertices k, k+1)
    lam_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])  # (mid, vtx)

    rows = np.repeat(tris, 3, axis=1).ravel()  # of entry (t, i, j) of the local matrices
    cols = np.tile(tris, (1, 3)).ravel()

    dots = np.einsum("tid,tjd->tij", grads, grads)
    s_loc = (a_bar * area)[:, None, None] * dots
    m_loc = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))[None, :, :]
    q_loc = np.einsum(
        "t m, m i, m j -> t i j", q_m * (area / 3.0)[:, None], lam_mid, lam_mid
    )

    A = _csr(rows, cols, (s_loc + q_loc).ravel(), grid.n_nodes)
    M = _csr(rows, cols, m_loc.ravel(), grid.n_nodes)
    return M, A


class FemOperator:
    """The grid and the coefficients a and q of a forward problem: mass M and
    elliptic A = S_a + M_q on all nodes in CSR form, M's interior block M_II,
    the lower bands of M_II and A_II, and the banded Cholesky
    factor of (c M + A)_II at the last scale c asked for, on either grid
    (module docstring). Construction checks the coefficients."""

    def __init__(self, grid: GridLike, diffusion=1.0, potential=0.0):
        self.grid = grid
        # a nodal array at its nodes too, so the rule reads them on both grids
        nodal = (np.asarray([] if callable(c) else c, float) for c in (diffusion, potential))
        _check_coefficients(*nodal)
        if isinstance(grid, Grid1D):
            self.M, self.A = _assemble_1d(grid, diffusion, potential)
            self.interior, kd = np.arange(1, grid.n), 1
        else:
            self.M, self.A = _assemble_2d(grid, diffusion, potential)
            self.interior, kd = np.where(grid.interior_mask())[0], grid.n
        (mass, M_b), (_, A_b) = (_interior_block(K, self.interior, kd) for K in (self.M, self.A))
        self.M_II, self._bands = _csr(*mass, self.interior.size), (M_b, A_b)
        self._factor: tuple = (None, None, None)  # (c, banded factor, LAPACK integers)

    def factorized(self, c: float):
        """Solver for (c M + A)_II X = R on the factor at c, which it holds:
        solve(R) returns X for R of shape (m,) or (m, p) and may overwrite R,
        so a float64 R that LAPACK reads in place is not copied. The operator
        keeps the last c's factor only: an LM run asks for each T's in turn.
        On the interval (kd = 1) dpttrf factors the tridiagonal c M_b + A_b as
        L D L^T, held as the rows (d, e) of D and L's sub-diagonal, and dpttrs
        solves. On the square dpbtrf factors it in lower storage (bit-identical
        to the upper for kd <= 64, module docstring), held as L^T in upper
        storage, as dpbtrs rounds differently in lower. There dpbtrs solves a
        vector, and a column block takes Y_i = U_ii^-T R_i - (U_(i-1,i)
        U_ii^-1)^T Y_(i-1) and X_i = U_ii^-1 Y_i - U_ii^-1 U_(i,i+1) X_(i+1)
        over grid-row blocks, whose inverses and couplings the solver builds
        at its first column block."""
        if self._factor[0] != float(c):
            M_b, A_b = self._bands
            tri = M_b.shape[0] == 2
            fb = np.multiply(c, M_b, order="C" if tri else "F")  # factored in place
            fb += A_b
            ints = (ctypes.c_int64 * 5)(fb.shape[1], fb.shape[0] - 1, fb.shape[0], 0, 1)
            p = ctypes.addressof(ints)  # at p, p + 8, ..: n, kd, ldab, info, nrhs
            if tri:  # fb's rows d and e; e's last entry is not read
                _DPTTRF(p, fb.ctypes.data, fb[1].ctypes.data, p + 24)
            else:
                _DPBTRF(b"L", p, p + 8, fb.ctypes.data, p + 16, p + 24, 1)
            if ints[3] != 0:
                name = "dpttrf" if tri else "dpbtrf"
                raise NumericalError(f"banded factorization failed: {name} info {ints[3]}")
            if not tri:
                lb, fb = fb, np.zeros_like(fb)  # U = L^T: ub[kd - d, d:] = lb[d, :m - d]
                for d, row in enumerate(lb):
                    fb[-1 - d, d:] = row[:row.size - d]
            self._factor = (float(c), fb, ints)
        _, fb, ints = self._factor
        p, ab, tri = ctypes.addressof(ints), fb.ctypes.data, fb.shape[0] == 2
        blocks = []  # the square's (inverses, forward and backward couplings), once built

        def sweep(R):
            if not blocks:
                b = fb.shape[0] - 2  # kd = b + 1: U[r, r + d] = ub[b + 1 - d, r + d]
                ub = np.pad(fb, ((0, 0), (0, b + 1)))
                i, a, d = np.ogrid[:b, :b, :b + 2]  # block row i of U, columns ib .. ib + 2b
                rows = np.zeros((b, b, 2 * b + 1))
                rows[i, a, a + d] = ub[b + 1 - d, i * b + a + d]
                inv = np.linalg.inv(rows[:, :, :b])
                couple = rows[:-1, :, b:2 * b]  # U_(i,i+1); column 2b is the 0.0 above
                blocks.extend((inv, couple @ inv[1:], inv[:-1] @ couple))
            inv, fwd, bwd = blocks
            R = np.require(R, requirements="CW").reshape(inv.shape[:2] + (-1,))
            X = np.matmul(inv.transpose(0, 2, 1), R)
            for i in range(1, len(X)):
                X[i] -= fwd[i - 1].T @ X[i - 1]  # X holds Y
            np.matmul(inv, X, out=R)
            X[-1] = R[-1]
            for i in range(len(X) - 2, -1, -1):
                np.subtract(R[i], bwd[i] @ X[i + 1], out=X[i])
            return X.reshape(fb.shape[1], -1)

        def solve(rhs):
            x = np.asarray(rhs, dtype=float)
            if x.shape[:1] != fb.shape[1:]:  # the closure holds fb, into which ab points
                raise ShapeError(f"right-hand side of shape {x.shape} for {fb.shape[1]} unknowns")
            if x.ndim == 2 and not tri:
                return sweep(x)
            if not (x.flags.f_contiguous and x.flags.behaved):  # else LAPACK overwrites x
                x = np.array(x, order="F")  # (np.require: 1 us, twice this copy at m = 2,047)
            ints[4] = x.size // fb.shape[1]
            if tri:  # n, nrhs, d, e, b, ldb = n, info
                _DPTTRS(p, p + 32, ab, ab + 8 * fb.shape[1], x.ctypes.data, p, p + 24)
            else:
                _DPBTRS(b"U", p, p + 8, p + 32, ab, p + 16, x.ctypes.data, p, p + 24, 1)
            if ints[3] != 0:
                raise NumericalError(f"banded solve failed: {'dpttrs' if tri else 'dpbtrs'} "
                                     f"info {ints[3]}")
            return x

        return solve

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (lam, V) of the pencil (A_II, M_II), lam ascending, V^T M_II V = I
        and V C-contiguous, by dsbgvd on copies of the held bands (module docstring)."""
        A_b, M_b = (np.array(b, order="F") for b in self._bands[::-1])  # overwritten
        m, kd = A_b.shape[1], A_b.shape[0] - 1
        lam, Z = np.empty(m), np.empty((m, m), order="F")
        work, iwork = np.empty(1 + 5 * m + 2 * m * m), np.empty(3 + 5 * m, np.int64)
        ints = (ctypes.c_int64 * 6)(m, kd, kd + 1, work.size, iwork.size, 0)
        p = ctypes.addressof(ints)  # at p, p + 8, ..: n = ldz, kd, kd + 1, lwork, liwork, info
        _DSBGVD(b"V", b"L", p, p + 8, p + 8, A_b.ctypes.data, p + 16, M_b.ctypes.data, p + 16,
                lam.ctypes.data, Z.ctypes.data, p, work.ctypes.data, p + 24,
                iwork.ctypes.data, p + 32, p + 40, 1, 1)
        if ints[5] != 0:
            raise NumericalError(f"banded eigensolve failed: dsbgvd info {ints[5]}")
        return lam, np.ascontiguousarray(Z)


def _l1_march(weights: L1Weights, first: np.ndarray,
              step: Callable[[np.ndarray, np.ndarray], None]) -> np.ndarray:
    """The L1 history u^0 = first, u^k, k = 1..n_steps, which step(combo_k, out)
    writes into out, the history's row k; combo_k is what the bracket in the
    module docstring subtracts from u^k. Returns the whole history.

    The history runs in blocks of HISTORY_BLOCK steps (after Hairer, Lubich
    and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): one GEMM writes the
    settled steps' share into the block's rows of the history, and each step
    adds its in-block terms. On the 5.3 data synthesis (2,048 cells, 1,024
    steps; 2-core VM, 2 BLAS threads) blocks of 16/32/64/128/256 steps took
    0.14/0.13/0.13/0.13/0.17 s, one step at a time 0.28 s. The weights are
    gathered once per march; each block's panel is a view of them.
    """
    b = weights.b
    drop = b[:-1] - b[1:]  # drop[i] weighs u^(k-1-i) in step k's history, for k-1-i >= 1
    # step k weighs rows k0..k by the last k - k0 + 1 entries (row k: the settled share)
    inblock = np.append(drop[:HISTORY_BLOCK - 1][::-1], 1.0)

    n = weights.n_steps
    past = np.empty((n + 1,) + first.shape)
    past[0] = first
    flat = past.reshape(n + 1, -1)
    # one Toeplitz buffer, buf[i, c] = drop[kl + i - c - 1] with kl the last block's
    # first step (clipped where no block reads); block k0's panel is buf[:, kl - k0:]
    kl = n - (n - 1) % HISTORY_BLOCK
    buf = drop[np.minimum(kl - 1 + np.arange(HISTORY_BLOCK)[:, None] - np.arange(kl), n - 1)]
    for k0 in range(1, n + 1, HISTORY_BLOCK):
        k1 = min(k0 + HISTORY_BLOCK, n + 1)
        panel = buf[:k1 - k0, kl - k0:]
        panel[:, 0] = b[k0 - 1:k1 - 1]  # u^0 weighs b_(k-1)
        np.matmul(panel, flat[:k0], out=flat[k0:k1])
        panel[:, 0] = drop[k0 - 1:k1 - 1]  # the later blocks' panels read it
        for k in range(k0, k1):
            step((inblock[k0 - k - 1:] @ flat[k0:k + 1]).reshape(first.shape), past[k])
    return past


def l1_evolve(
    op: FemOperator,
    alpha: float,
    tg: TimeGrid,
    w0_int: np.ndarray,
    load: Optional[np.ndarray] = None,
) -> np.ndarray:
    """w^N, the zero-boundary unknown on interior nodes at the last step.

    w0_int may be a vector (m,) or a matrix (m, p) of p simultaneous states;
    load is the interior load, constant in time, with matching shape (or
    None). Returns w^N, shaped as w0_int, from N solves of (c M + A)_II x =
    c M_II y + t_n load by `FemOperator.factorized`; no history is kept.

    With G = c (c M + A)_II^-1 M_II and z = (c M + A)_II^-1 load,
    w^N = sum_n G^n (p_n w0 + t_n z) for the step polynomial p of (alpha, N)
    (`_l1_polynomial`) and its tail sums t_n = sum_{k>n} p_k (the load's
    share is `l1_responses`' s = (1 - r) / lam: c s = sum_n t_n g^(n+1)).
    Horner's rule runs y <- G y + t_n z + p_n w0 for n = N - 1..0 from
    y = p_N w0, one solve per n with t_n load in its right-hand side. Where
    m p < N + 1 the polynomial's own march, (N + 1)^2 floats, would outweigh
    the state's history, so the state marches (`_l1_march`, t_n = 1) and its
    last step is returned.
    """
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)

    def step(combo, share=1.0):
        rhs = op.M_II @ combo
        rhs *= c
        if load is not None:
            rhs += share * load
        return solve(rhs)

    if np.size(w0_int) < tg.n_steps + 1:
        return _l1_march(weights, w0_int, lambda combo, out: np.copyto(out, step(combo)))[-1]
    p = _l1_polynomial(alpha, tg.n_steps)
    tail = np.append(np.cumsum(p[:0:-1])[::-1], 0.0)  # t_n, a sum of terms >= 0
    y = p[-1] * w0_int
    for n in range(tg.n_steps - 1, -1, -1):
        y = step(y, tail[n])
        y += p[n] * w0_int
    return y


@lru_cache(maxsize=32)
def _l1_polynomial(alpha: float, n_steps: int) -> np.ndarray:
    """p of r^N(g) = sum_n p_n g^n, read-only: r^k = g combo_k with weights free
    of g, so one march of coefficient vectors builds it. p >= 0 sums to 1 (r = 1
    at g = 1), p = e_N at alpha = 1; the (N + 1)^2 history is freed on return."""
    def step(combo, out):  # r^k = g combo_k, one degree up; combo_k has degree k - 1 < N
        out[0], out[1:] = 0.0, combo[:-1]

    p = _l1_march(L1Weights(alpha, n_steps), np.eye(1, n_steps + 1)[0], step)[-1].copy()
    p.setflags(write=False)
    return p


def l1_responses(alpha: float, tg: TimeGrid, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """The L1 scheme on one mode of eigenvalue lam_j at step N, for all modes at once.

    In the eigenbasis of the pencil (A_II, M_II) the step (c M + A) w^k =
    c M combo_k + F splits into (c + lam_j) a_j^k = c combo_k(a_j) + F_j, so
    each mode's state at step k is r_j^k a_j^0 + s_j^k F_j, with the
    responses r (a^0 = 1, no load) and s (a^0 = 0, unit load). The history
    coefficients sum to 1, so a = F / lam is a fixed point and s = (1 - r) / lam.
    r^N is `_l1_polynomial` at g_j = c / (c + lam_j), a sum of terms >= 0, and
    dg/dlam = -g^2 / c. Returns (r^N, s^N, dr^N/dlam), (m,) each."""
    p = _l1_polynomial(alpha, tg.n_steps)
    c = L1Weights(alpha, tg.n_steps).scale(tg.tau)
    gain = c / (c + lam)
    powers = np.cumprod(np.broadcast_to(gain, (tg.n_steps, lam.size)), axis=0)  # g^1..g^N
    r = p[1:] @ powers
    dr = (np.arange(1, tg.n_steps + 1) * p[1:]) @ powers
    return r, (1.0 - r) / lam, -gain / c * dr


def l1_modal(op: FemOperator, alpha: float, tg: TimeGrid, w0_int: np.ndarray,
             load: Optional[np.ndarray] = None) -> np.ndarray:
    """`l1_evolve`'s w^N, shaped as w0_int (m,) or (m, p), on the modes (lam, V) of
    `op`: V (r^N o V^T M_II w0 + s^N o V^T load), r and s from `l1_responses`. A
    zero w0_int, where the source problem's sensitivities start, is not projected."""
    lam, V = op.modes
    r, s, _ = l1_responses(alpha, tg, lam)
    r, s = (x.reshape(x.shape + (1,) * (np.ndim(w0_int) - 1)) for x in (r, s))  # per mode
    coef = r * (V.T @ (op.M_II @ w0_int)) if np.any(w0_int) else np.zeros(np.shape(w0_int))
    if load is not None:
        coef += s * (V.T @ load)
    return V @ coef


def dirichlet_lift(dirichlet: Optional[tuple[float, float]], grid: GridLike) -> np.ndarray:
    """The affine lift a0 (1 - x) + a1 x of the constant Dirichlet values
    (a0, a1) at the interval's nodes; zero where `dirichlet` is None."""
    if dirichlet is None:
        return np.zeros(grid.n_nodes)
    if not isinstance(grid, Grid1D):
        raise ParameterError("constant Dirichlet lift is defined on the interval")
    x = grid.nodes
    return dirichlet[0] * (1.0 - x) + dirichlet[1] * x


def _initial_and_load(spec: ProblemSpec, op: FemOperator):
    """u0, the Dirichlet lift, and w0 = u0 - lift and the load on the interior."""
    u0 = as_nodal_values(spec.u0, op.grid)
    lift = dirichlet_lift(spec.dirichlet, op.grid)
    load = (op.M @ as_nodal_values(spec.f, op.grid) - op.A @ lift)[op.interior]
    return u0, lift, (u0 - lift)[op.interior], load


def solve_fem(spec: ProblemSpec, op: FemOperator, tg: TimeGrid) -> np.ndarray:
    """P1 + L1 forward solve of the data `spec` with the coefficients of `op`,
    on its grid, through the time stepper; returns the nodal u(T), the lift
    plus w^N from `l1_evolve`, with no trajectory formed."""
    _, u, w0, load = _initial_and_load(spec, op)  # u = lift
    u[op.interior] = l1_evolve(op, spec.alpha, tg, w0, load) + u[op.interior]
    return u


# ---------------------------------------------------------------------------
# discrete L2 geometry


@lru_cache(maxsize=32)
def _fixed_operator(grid: GridLike, diffusion, /) -> FemOperator:
    """`mass_inner`'s operator and `InverseSetup.fixed_operator`, with all it
    holds; positional, as lru_cache keys a keyword apart."""
    return FemOperator(grid, diffusion)


def mass_inner(grid: GridLike, u: np.ndarray, v: np.ndarray) -> float:
    """Consistent-mass L2 inner product over the domain."""
    u, mass = np.asarray(u, float), _fixed_operator(grid, 1.0).M @ v
    if u.shape != mass.shape:
        raise ShapeError(f"dimension mismatch: shape {u.shape} . shape {mass.shape}")
    return float(np.dot(u, mass))


def mass_norm(grid: GridLike, u: np.ndarray) -> float:
    return float(np.sqrt(max(mass_inner(grid, u, u), 0.0)))


# ---------------------------------------------------------------------------
# convergence studies


# the levels of `convergence_study`: cells of the space study at SPACE_STEPS
# steps, and steps of the time study on TIME_N cells; each level doubles the
# one before, so a level's half step is the next level's solve
SPACE_LEVELS, SPACE_STEPS = (16, 32, 64), 2048
TIME_LEVELS, TIME_N = (32, 64, 128), 512


@dataclass
class ConvergenceReport:
    space_order: float
    time_order: float
    space_diffs: list
    time_diffs: list


def _slope(pairs) -> float:
    """Least-squares slope of log(diff) against log(step)."""
    steps, diffs = zip(*pairs)
    return float(np.polyfit(np.log(steps), np.log(diffs), 1)[0])


def convergence_study(spec: ProblemSpec, T: float) -> ConvergenceReport:
    """Observed orders of u(T) on the interval, a = 1 and q = 0, both by
    self-differences: in space ||u_h - u_{h/2}|| at SPACE_STEPS steps,
    u_{h/2} restricted to the coarse nodes and measured in the coarse mass
    norm; in time ||u_tau - u_{tau/2}|| on TIME_N cells. Only the finest
    level of each study adds a solve, at half its step. Both orders are
    least-squares slopes.
    """
    tg = TimeGrid(SPACE_STEPS, T)
    by_n = {n: solve_fem(spec, FemOperator(Grid1D(n)), tg)
            for n in SPACE_LEVELS + (2 * SPACE_LEVELS[-1],)}
    space_diffs = [(1.0 / n, mass_norm(Grid1D(n), by_n[n] - by_n[2 * n][::2]))
                   for n in SPACE_LEVELS]
    op = FemOperator(Grid1D(TIME_N))
    by_steps = {k: solve_fem(spec, op, TimeGrid(k, T))
                for k in TIME_LEVELS + (2 * TIME_LEVELS[-1],)}
    time_diffs = [(T / k, mass_norm(op.grid, by_steps[k] - by_steps[2 * k])) for k in TIME_LEVELS]
    return ConvergenceReport(_slope(space_diffs), _slope(time_diffs), space_diffs, time_diffs)
