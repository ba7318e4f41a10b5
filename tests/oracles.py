"""Independent reference implementations used only by the test suite.

The Mittag-Leffler references deliberately avoid the production code paths:
closed forms via scipy.special, arbitrary-precision summation via mpmath, and
a composite fixed-node Gauss-Legendre quadrature of the cut integral for
arguments where summation is infeasible. The derived checks below them (decay
bounds, the derivative identity, the L1 derivative at the final time) are
properties the tests assert of the production code. `l1_trajectory` marches
the time stepper's every step (`fem._l1_march` with its solve), of which
`fem.l1_evolve` evaluates the last by Horner's rule, and `fem_trajectory`
keeps every level of the forward solve, of which `fem.solve_fem` returns the
last. The L1 time stepper and the modal recursion have step-by-step oracles
that sum each step's history directly, against which the blocked march,
Horner's rule and the step polynomial are checked. From the modal one two
GEMMs form the potential problem's history sums, the oracle of their
divided differences. `l1_march_per_block` is the blocked march with each
block's weight panel gathered anew and each step returning u^k, against
whose bits the march is checked. `upper_band_factor` factors (c M + A)_II in
upper band storage, the operator's path before it moved to lower storage
(and on the interval to dpttrf), against which its factor and solves are
checked. `dense_modes` finds the pencil's eigenpairs by the dense Cholesky
reduction that `FemOperator.modes` ran before LAPACK's banded dsbgvd, and
the modal forward map and v-Jacobians are checked on them. The potential
problem's v-Jacobian has a column oracle that steps every sensitivity
through the L1 time stepper, against which the modal Jacobian is
checked. The Jacobian's action and its adjoint in the mass pairing, which the
adjoint and directional-derivative checks call, are formed from the dense
v-Jacobian, and `nodal_to_param` maps a nodal direction to the parameter
vector it acts on. At the end, eigenpairs of -d_xx + q by finite
differences with Richardson-extrapolated eigenvalues, and the exact-in-time
modal solve on them, are the FEM solver's reference on the interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded, eigh_tridiagonal
from scipy.special import erfcx, roots_legendre

from fracinv.errors import DomainError, FracinvError, ParameterError
from fracinv.fem import HISTORY_BLOCK, L1Weights, _initial_and_load, _l1_march
from fracinv.grids import Grid1D, as_nodal_values
from fracinv.inverse import _trilinear_mass_1d, jacobian_v_matrix
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import ProblemSpec
from fracinv.spectral import build_eigendecomposition, propagate_modes


def ml_reference(alpha: float, beta: float, x: float) -> float:
    """High-accuracy E_{alpha,beta}(-x) for x >= 0, 0 < alpha <= 1.

    Closed forms where available, arbitrary-precision summation for small x,
    composite Gauss-Legendre quadrature of the cut integral beyond (checked
    against mpmath at the gap points of ml_neg by
    test_mittag_leffler.py::test_oracle_self_check).
    """
    if x == 0.0:
        return float(mp.rgamma(beta))
    if alpha == 1.0 and beta == 1.0:
        return math.exp(-x)
    if alpha == 0.5 and beta == 1.0:
        return float(erfcx(x))
    if x < 2.0:
        return mp_series(alpha, beta, -x)
    return _composite_gl(alpha, beta, x)


def mp_series(alpha: float, beta: float, z: float) -> float:
    x = abs(z)
    # the largest series term is ~exp(x^(1/alpha)); add guard digits
    log10_max = x ** (1.0 / alpha) / math.log(10.0)
    dps = int(max(35, min(log10_max, 3000) + 35))
    with mp.workdps(dps):
        # the Gamma argument must be formed in mp arithmetic: float rounding
        # in alpha*k is amplified by the cancellation ratio of the sum
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zz = mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        while True:
            t = zz**k * mp.rgamma(a * k + b)
            s += t
            if k > 4 and abs(t) < mp.mpf(10) ** (-dps) * abs(s):
                break
            k += 1
            if k > 500000:
                raise RuntimeError("oracle series not converging")
        return float(s)


def _sinpi(y: float) -> float:
    m = round(y)
    return (-1.0) ** (m % 2) * math.sin(math.pi * (y - m))


def _composite_gl(alpha: float, beta: float, x: float) -> float:
    """Cut integral by composite 48-point Gauss-Legendre panels (float64).

    E_{a,b}(-x) = (1/(a pi)) int_0^inf r^((1-b)/a) e^{-r^(1/a)}
                  (r sin(pi(1-b)) + x sin(pi(1-b+a)))
                  / (r^2 + 2 r x cos(pi a) + x^2) dr
    """
    a, b = alpha, beta
    nodes, weights = roots_legendre(48)
    sin1 = _sinpi(1 - b)
    sin2 = _sinpi(1 - b + a)
    cosa = math.cos(math.pi * a)

    def kern(r):
        num = r * sin1 + x * sin2
        den = r * r + 2 * r * x * cosa + x * x
        return (r ** ((1 - b) / a)) * np.exp(-(r ** (1.0 / a))) * num / den

    upper = 46.0**a
    breaks = [0.0]
    if cosa < 0 and 0 < -x * cosa < upper:
        peak = -x * cosa
        width = x * math.sqrt(max(1 - cosa * cosa, 1e-30))
        for c in (peak - 3 * width, peak - width, peak + width, peak + 3 * width):
            if 0 < c < upper:
                breaks.append(c)
    breaks.append(upper)
    breaks = sorted(set(breaks))
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        # geometric refinement towards each panel's lower edge, where the
        # kernel's fractional powers have limited smoothness
        sub = np.unique(np.concatenate([[lo], lo + (hi - lo) * 0.5 ** np.arange(28, -1, -1.0), [hi]]))
        for p, q in zip(sub[:-1], sub[1:]):
            mid = 0.5 * (p + q)
            half = 0.5 * (q - p)
            total += half * float(np.dot(weights, kern(mid + half * nodes)))
    return total / (a * math.pi)


_BOUNDS_CACHE: dict[float, tuple[float, float]] = {}


def _calibrated_bounds(alpha: float) -> tuple[float, float]:
    """Empirical constants (c0, c1) with c0/(1+x) <= E_{a,1}(-x) <= c1/(1+x).

    The two-sided decay bound holds with alpha-dependent constants that no
    closed form supplies; we calibrate them on a coarse grid (with a safety
    margin) and treat the bound as a regression property on finer grids.
    """
    key = round(alpha, 12)
    if key not in _BOUNDS_CACHE:
        xs = np.concatenate([[0.0], np.logspace(-3, 7, 41)])
        e = ml_neg(alpha, 1.0, xs)
        ratio = e * (1.0 + xs)
        c0 = float(ratio.min()) * (1.0 - 1e-9)
        c1 = float(ratio.max()) * (1.0 + 1e-9)
        _BOUNDS_CACHE[key] = (c0, c1)
    return _BOUNDS_CACHE[key]


def ml_e1_bounds_check(alpha: float, x: float) -> tuple[bool, bool]:
    """Check c0/(1+x) <= E_{alpha,1}(-x) <= c1/(1+x) with calibrated c0, c1."""
    if not (0.1 <= alpha <= 0.9):
        raise ValueError("bounds check calibrated for alpha in [0.1, 0.9]")
    if x < 0:
        raise ValueError("x must be nonnegative")
    c0, c1 = _calibrated_bounds(alpha)
    e = float(ml_neg(alpha, 1.0, np.asarray([x]))[0])
    ref = 1.0 / (1.0 + x)
    return (e >= c0 * ref, e <= c1 * ref)


def ml_derivative_identity_residual(alpha: float, lam: float, t: float, h: float) -> float:
    """|centered difference of E_{a,1}(-lam t^a) minus the closed-form derivative|.

    The time derivative of the modal decay factor equals
    -lam * t^(a-1) * E_{a,a}(-lam t^a); the centered difference of the left
    side should match to O(h^2).
    """
    if lam <= 0 or t <= 0 or h <= 0:
        raise ValueError("lam, t, h must be positive")
    if t - h <= 0:
        raise ValueError("need t - h > 0")

    def e1(s):
        return float(ml_neg(alpha, 1.0, np.asarray([lam * s**alpha]))[0])

    cd = (e1(t + h) - e1(t - h)) / (2.0 * h)
    eaa = float(ml_neg(alpha, alpha, np.asarray([lam * t**alpha]))[0])
    rhs = -lam * t ** (alpha - 1.0) * eaa
    return abs(cd - rhs)


def history_coefficients(weights: L1Weights, k: int) -> np.ndarray:
    """coef[j] multiplying u^j, j = 0..k-1, in step k's history combination."""
    b = weights.b
    coef = np.empty(k)
    coef[0] = b[k - 1]
    if k > 1:
        j = np.arange(1, k)
        coef[1:] = b[k - 1 - j] - b[k - j]
    return coef


def caputo_derivative_at_T(values, tg, alpha: float) -> np.ndarray:
    """Discrete L1 evaluation of the order-alpha time derivative at t = T of
    the trajectory values[k] at t_k, (n_steps + 1, n_nodes)."""
    if values.shape[0] < 2:
        raise ValueError("need at least two stored steps")
    if values.shape[0] != tg.n_steps + 1:
        raise ValueError("trajectory length does not match the time grid")
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    N = tg.n_steps
    coef = history_coefficients(weights, N)
    return c * (values[N] - np.tensordot(coef, values[:N], axes=1))


def _stepper(op, alpha: float, tg, load):
    """The L1 weights of `fem.l1_evolve` and its step, which writes into out
    the solve of (c M + A)_II x = c M_II combo + load."""
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)

    def step(combo, out):
        rhs = c * (op.M_II @ combo)
        if load is not None:
            rhs += load
        out[...] = solve(rhs)

    return weights, step


def l1_trajectory(op, alpha: float, tg, w0_int: np.ndarray, load=None) -> np.ndarray:
    """Every step w^0..w^N of the L1 time stepper, of which `fem.l1_evolve`
    returns the last, (n_steps + 1, m[, p]): `fem._l1_march` with the
    stepper's solve step."""
    weights, step = _stepper(op, alpha, tg, load)
    return _l1_march(weights, w0_int, step)


def fem_trajectory(spec: ProblemSpec, op, tg) -> np.ndarray:
    """Every level u^0..u^N of the forward solve whose last `fem.solve_fem`
    returns, (n_steps + 1, n_nodes): u^0 = u0, then the Dirichlet lift plus
    the stepped w^k on the interior (`l1_trajectory`)."""
    u0, lift, w0, load = _initial_and_load(spec, op)
    hist = l1_trajectory(op, spec.alpha, tg, w0, load)
    hist += lift[op.interior]
    values = np.tile(lift, (tg.n_steps + 1, 1))
    values[:, op.interior] = hist
    values[0] = u0
    return values


def l1_evolve_stepwise(op, alpha: float, tg, w0_int: np.ndarray, load=None) -> np.ndarray:
    """`l1_trajectory` with each step's history summed over all earlier steps
    at that step, with no blocking."""
    weights, step = _stepper(op, alpha, tg, load)
    past = np.empty((tg.n_steps + 1,) + w0_int.shape)
    past[0] = w0_int
    for k in range(1, tg.n_steps + 1):
        step(np.tensordot(history_coefficients(weights, k), past[:k], axes=1), past[k])
    return past


def l1_responses_stepwise(alpha: float, tg, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The responses of `fem.l1_responses` at every step, each step's history
    summed over all earlier steps at that step, with no blocking: (r, s),
    (n_steps + 1, m) each."""
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    gain = c / (c + lam)
    r = np.empty((tg.n_steps + 1, lam.size))
    r[0] = 1.0
    for k in range(1, tg.n_steps + 1):
        r[k] = (history_coefficients(weights, k) @ r[:k]) * gain
    return r, (1.0 - r) / lam


def history_sums_by_gemm(alpha: float, tg, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`inverse._history_sums` as two GEMMs over every step's responses, the
    potential problem's v-Jacobian before it used the step-N responses alone:
    (K^T r, K^T s) over steps 1..N, with K's row k - 1 the increment K(N - k),
    K_j(n) = s_j^(n+1) - s_j^n."""
    r, s = l1_responses_stepwise(alpha, tg, lam)
    K = s[:0:-1] - s[-2::-1]
    return K.T @ r[1:], K.T @ s[1:]


def l1_march_per_block(weights: L1Weights, first: np.ndarray, step) -> np.ndarray:
    """`fem._l1_march` with each block's weight panel gathered from the
    weights on its own and u^k = step(combo_k) returned by the step."""
    b = weights.b
    drop = b[:-1] - b[1:]
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


def upper_band(K) -> np.ndarray:
    """Upper band storage of the symmetric sparse K, as `cholesky_banded`
    reads it by default: ab[u + i - j, j] = K[i, j] for i <= j, with the
    bandwidth u measured from the stored entries."""
    K = K.tocoo()
    upper = K.col >= K.row
    rows, cols = K.row[upper], K.col[upper]
    u = int(np.max(cols - rows))
    ab = np.zeros((u + 1, K.shape[0]))
    ab[u + rows - cols, cols] = K.data[upper]
    return ab


def upper_band_factor(op, c: float) -> np.ndarray:
    """The upper band Cholesky factor of (c M + A)_II that `fem.FemOperator`
    factored before it moved to lower storage: `cholesky_banded` on the upper
    band, which LAPACK's dpbtrs reads as it is."""
    K = (c * scipy_csr(op.M) + scipy_csr(op.A))[op.interior][:, op.interior]
    return cholesky_banded(upper_band(K))


def dense_modes(op) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) of the pencil (A_II, M_II), V^T M_II V = I, by a dense Cholesky
    reduction: M_II = L L^T, L^-1 A_II L^-T = W diag(lam) W^T, V = L^-T W."""
    eye = np.eye(op.interior.size)  # K @ eye is K dense, bit for bit
    L_inv = np.linalg.inv(np.linalg.cholesky(op.M_II @ eye))
    lam, W = np.linalg.eigh(L_inv @ (op.A_II @ eye) @ L_inv.T)
    return lam, L_inv.T @ W


def scipy_csr(K) -> sp.csr_matrix:
    """scipy.sparse's CSR matrix on the arrays of one of `FemOperator`'s
    square CSR matrices."""
    n = K.indptr.size - 1
    return sp.csr_matrix((K.data, K.indices, K.indptr), shape=(n, n))


def ipp_jacobian_columns(setup, v_nodal, T: float) -> np.ndarray:
    """The potential problem's v-Jacobian (n_nodes, m), one column per interior
    node i, each the sensitivity solve d_t^alpha w + A_q w = -B(u) e_i,
    w(0) = 0, stepped through the L1 scheme with the trajectory u^k of F(v, T)
    from the time stepper on the same operator (a load that changes at every
    step)."""
    spec, op, tg = setup._forward_problem(v_nodal, T)  # v clamped as F clamps it
    base = fem_trajectory(spec, op, tg)
    weights = L1Weights(spec.alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)
    m = op.interior.size
    cols0 = np.eye(m)
    w = np.zeros((tg.n_steps + 1, m, m))
    for k in range(1, tg.n_steps + 1):
        # B(u^k) cols0 on the interior nodes 1..n-1; B is tridiagonal
        diag, off = _trilinear_mass_1d(setup.grid, base[k])
        d, o = diag[1:-1, None], off[1:-1, None]
        load = d * cols0
        load[:-1] += o * cols0[1:]
        load[1:] += o * cols0[:-1]
        combo = np.tensordot(history_coefficients(weights, k), w[:k], axes=1)
        w[k] = solve(c * (op.M_II @ combo) - load)
    J = np.zeros((setup.grid.n_nodes, m))
    J[op.interior] = w[-1]
    return J


def nodal_to_param(setup, v_nodal: np.ndarray) -> np.ndarray:
    """The parameter vector of a nodal field, the inverse of
    `InverseSetup.param_to_nodal` on its range: the interior values for a
    nodal setup, the L2 projection onto the span of a basis."""
    if setup.basis is None:
        return np.asarray(v_nodal, float)[setup.fixed_operator.interior]
    W = setup.fixed_operator.M @ setup.basis.T  # (nodes, p)
    return np.linalg.solve(setup.param_gram, W.T @ v_nodal)


def jacobian_v_apply(setup, v, T: float, h) -> np.ndarray:
    """Directional derivative dF(v,T)[h] as a nodal field."""
    J = jacobian_v_matrix(setup, v, T)
    return J @ nodal_to_param(setup, as_nodal_values(h, setup.grid))


def jacobian_v_adjoint_apply(setup, v, T: float, w) -> np.ndarray:
    """Adjoint J* w in the discrete L2 pairing: P^{-1} J^T M w."""
    J = jacobian_v_matrix(setup, v, T)
    Mw = setup.fixed_operator.M @ as_nodal_values(w, setup.grid)
    coeffs = np.linalg.solve(setup.param_gram, J.T @ Mw)
    return setup.param_to_nodal(coeffs)


class ResolutionError(FracinvError, ValueError):
    """Requested modes exceed what the finite-difference grid resolves."""


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


def fd_eigendecomposition(q, n_modes: int, grid: Optional[Grid1D] = None) -> EigenDecomposition:
    """Eigenpairs of -d_xx + q by second-order finite differences with
    Richardson-extrapolated eigenvalues (q == 0 uses the library's
    closed-form sines)."""
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    if grid is None:
        n = max(2048, 8 * n_modes)
        grid = Grid1D(n + n % 2)
    if grid.n % 2:
        raise ParameterError("grid must have an even interval count (Richardson)")
    if n_modes > grid.n // 4:
        raise ResolutionError(f"n_modes={n_modes} exceeds grid resolution {grid.n}/4")
    q_nodal = as_nodal_values(q, grid)
    if q_nodal.min() < 0.0:
        raise DomainError("potential must be nonnegative")

    if q_nodal.max() == 0.0:
        lam, phi = build_eigendecomposition(n_modes, grid)
        gap = 0.0
    else:
        lam_f, vecs = _fd_eigs(q_nodal[1:-1], grid.h, n_modes)
        coarse = Grid1D(grid.n // 2)
        lam_c, _ = _fd_eigs(q_nodal[::2][1:-1], coarse.h, n_modes)
        lam = (4.0 * lam_f - lam_c) / 3.0
        phi = np.zeros((n_modes, grid.n_nodes))
        phi[:, 1:-1] = (vecs / np.sqrt(grid.h)).T
        flip = phi[:, 1] < 0
        phi[flip] *= -1.0
        gap = float(np.max(np.abs(lam - (np.arange(1, n_modes + 1) * np.pi) ** 2)))

    if not np.all(np.diff(lam) > 0) or lam[0] <= 0:
        raise DomainError("spectrum not simple/positive; resolution too coarse")
    return EigenDecomposition(eigenvalues=lam, eigenfunctions=phi, potential=q_nodal,
                              grid=grid, count=n_modes, asymptotic_gap=gap)


def solve_spectral(spec: ProblemSpec, ed: EigenDecomposition, t: float) -> np.ndarray:
    """Exact modal solve at time t, as nodal values on ed.grid, of the data
    `spec` with zero boundary values, on the eigenpairs of -d_xx + q in `ed`,
    which hold the coefficients: a = 1 and ed's potential q. Backward- and
    source-problem specs are alike here: each is a pair (u0, f), whichever of
    the two is the unknown. Warns when the modes miss more than 1e-6 of the
    squared norm of u0 or f."""
    if not isinstance(ed.grid, Grid1D):
        raise ParameterError("spectral solver is one-dimensional")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if spec.dirichlet is not None and any(abs(v) > 0 for v in spec.dirichlet):
        raise ParameterError("spectral solver requires zero boundary values")

    coeffs = []
    for what in ("u0", "f"):
        nodal = as_nodal_values(getattr(spec, what), ed.grid)
        c = ed.project(nodal)
        total = ed.inner(nodal, nodal)
        if total > 0 and np.sum(c**2) < total * (1.0 - 1e-6):
            warnings.warn(f"{what} is truncated by {ed.count} modes", RuntimeWarning)
        coeffs.append(c)
    return ed.synthesize(propagate_modes(spec.alpha, ed.eigenvalues, t, *coeffs))
