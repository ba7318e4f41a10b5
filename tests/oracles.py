"""Independent reference implementations used only by the test suite.

The Mittag-Leffler references deliberately avoid the production code paths:
closed forms via scipy.special, arbitrary-precision summation via mpmath, and
a composite fixed-node Gauss-Legendre quadrature of the cut integral for
arguments where summation is infeasible. The derived checks below them (decay
bounds, the derivative identity, the L1 derivative at the final time) are
properties the tests assert of the production code. The L1 time stepper and
the modal recursion have step-by-step oracles that sum each step's history
directly, against which the blocked march is checked. The potential
problem's v-Jacobian has a column oracle that steps every sensitivity
through the L1 time stepper, against which the modal Jacobian is checked.
The Jacobian's action and its adjoint in the mass pairing, which the
adjoint and directional-derivative checks call, are formed from the dense
v-Jacobian at the end.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import erfcx, roots_legendre

from fracinv.fem import L1Weights, solve_fem
from fracinv.grids import as_nodal_values
from fracinv.inverse import _clamp_ipp, _trilinear_mass_1d, jacobian_v_matrix
from fracinv.mittag_leffler import ml_neg
from fracinv.problems import TimeGrid


def ml_reference(alpha: float, beta: float, x: float) -> float:
    """High-accuracy E_{alpha,beta}(-x) for x >= 0, 0 < alpha <= 1.

    Closed forms where available, arbitrary-precision summation for small x,
    composite Gauss-Legendre quadrature of the cut integral beyond (validated
    against mpmath in test_oracle_self_check).
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
            t = zz**k / mp.gamma(a * k + b)
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


def caputo_derivative_at_T(traj, tg, alpha: float) -> np.ndarray:
    """Discrete L1 evaluation of the order-alpha time derivative at t = T."""
    if traj.values.shape[0] < 2:
        raise ValueError("need at least two stored steps")
    if traj.values.shape[0] != tg.n_steps + 1:
        raise ValueError("trajectory length does not match the time grid")
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    N = tg.n_steps
    coef = history_coefficients(weights, N)
    return c * (traj.values[N] - np.tensordot(coef, traj.values[:N], axes=1))


def l1_evolve_stepwise(op, alpha: float, tg, w0_int: np.ndarray, load=None) -> np.ndarray:
    """`fem.l1_evolve` with each step's history summed over all earlier steps
    at that step, with no blocking."""
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)

    past = np.empty((tg.n_steps + 1,) + w0_int.shape)
    past[0] = w0_int
    for k in range(1, tg.n_steps + 1):
        combo = np.tensordot(history_coefficients(weights, k), past[:k], axes=1)
        rhs = c * op.mass_apply_interior(combo)
        if load is not None:
            rhs = rhs + load
        past[k] = solve(rhs)
    return past


def l1_responses_stepwise(alpha: float, tg, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fem.l1_responses` with each step's history summed over all earlier
    steps at that step, with no blocking: (r, s) at every step."""
    weights = L1Weights(alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    gain = c / (c + lam)
    r = np.empty((tg.n_steps + 1, lam.size))
    r[0] = 1.0
    for k in range(1, tg.n_steps + 1):
        r[k] = (history_coefficients(weights, k) @ r[:k]) * gain
    return r, (1.0 - r) / lam


def ipp_jacobian_columns(setup, v_nodal, T: float) -> np.ndarray:
    """The potential problem's v-Jacobian (n_nodes, m), one column per interior
    node i, each the sensitivity solve d_t^alpha w + A_q w = -B(u) e_i,
    w(0) = 0, stepped through the L1 scheme with the trajectory u^k of F(v, T)
    from the time stepper on the same operator (a load that changes at every
    step)."""
    v_nodal = _clamp_ipp(np.asarray(v_nodal, float))
    op = setup._operator_for(v_nodal)
    tg = TimeGrid(setup.n_steps, T)
    base = solve_fem(setup.spec_for(v_nodal, T), setup.grid, tg, op=op)
    weights = L1Weights(setup.alpha, tg.n_steps)
    c = weights.scale(tg.tau)
    solve = op.factorized(c)
    m = op.interior.size
    cols0 = np.eye(m)
    w = np.zeros((tg.n_steps + 1, m, m))
    for k in range(1, tg.n_steps + 1):
        # B(u^k) cols0 on the interior nodes 1..n-1; B is tridiagonal
        diag, off = _trilinear_mass_1d(setup.grid, base.values[k])
        d, o = diag[1:-1, None], off[1:-1, None]
        load = d * cols0
        load[:-1] += o * cols0[1:]
        load[1:] += o * cols0[:-1]
        combo = np.tensordot(history_coefficients(weights, k), w[:k], axes=1)
        w[k] = solve(c * op.mass_apply_interior(combo) - load)
    J = np.zeros((setup.grid.n_nodes, m))
    J[op.interior] = w[-1]
    return J


def jacobian_v_apply(setup, v, T: float, h) -> np.ndarray:
    """Directional derivative dF(v,T)[h] as a nodal field."""
    J = jacobian_v_matrix(setup, v, T)
    return J @ setup.nodal_to_param(as_nodal_values(h, setup.grid))


def jacobian_v_adjoint_apply(setup, v, T: float, w) -> np.ndarray:
    """Adjoint J* w in the discrete L2 pairing: P^{-1} J^T M w."""
    J = jacobian_v_matrix(setup, v, T)
    Mw = setup.fixed_operator.mass_apply(as_nodal_values(w, setup.grid))
    coeffs = np.linalg.solve(setup.param_gram, J.T @ Mw)
    return setup.param_to_nodal(coeffs)
