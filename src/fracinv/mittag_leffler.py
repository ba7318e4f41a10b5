"""Evaluation of the two-parameter Mittag-Leffler function E_{a,b}(z) on the
negative real axis (plus small arguments of either sign).

E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) is the modal decay factor of
subdiffusion: every solver in this package ultimately calls into here with
z = -lambda_n * t^alpha <= 0.

Branch strategy (target: <= 1e-10 relative error for 0 < a < 1, b <= 1):

* power series with compensated summation, accepted only when the running
  maximum term stays small relative to the sum (the series on the negative
  axis cancels catastrophically once |z| grows, so acceptance is checked a
  posteriori, not assumed);
* asymptotic expansion E_{a,b}(z) ~ -sum_{k>=1} z^{-k}/Gamma(b-a*k) with
  adaptively chosen truncation, accepted when the first omitted term is
  negligible (optimal truncation gives ~exp(-|z|^(1/a)) error, so this
  covers |z|^(1/a) >~ 35);
* in the gap between the two, a real integral representation obtained by
  collapsing the Hankel contour onto the cut,

      E_{a,b}(-x) = (1/(a*pi)) * int_0^inf r^((1-b)/a) exp(-r^(1/a))
                    * [r sin(pi(1-b)) + x sin(pi(1-b+a))]
                    / (r^2 + 2 r x cos(a*pi) + x^2) dr,

  evaluated by QUADPACK (valid for 0 < a < 1, 0 < b <= 1, x > 0);
* a high-precision summation fallback for parameter corners the above do not
  cover (b > 1 in the gap, a very close to 1).

Note on the expansion: several references print the asymptotic sum with a
fixed 1/z in every term; the correct expansion carries z^{-k}, which is what
is implemented and tested here (order checks would fail otherwise).

All functions are pure and hold no mutable state.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.special import gammaln, gammasgn, rgamma

from .errors import DomainError, ParameterError

__all__ = [
    "MLParams",
    "ml_eval",
    "ml_neg",
]

# Largest positive argument served by the series-only region.
POSITIVE_Z_MAX = 1.0

# Accept the float64 series only if max|term| <= cap * |sum|.
_SERIES_CANCEL_CAP = 1e3
_SERIES_MAX_TERMS = 4000

# Attempt the asymptotic expansion once x^(1/a) exceeds this.
_ASYM_MIN_POWER = 35.0
_ASYM_TOL = 1e-14
_ASYM_MAX_TERMS = 400


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of E_{alpha,beta}.

    alpha must lie in (0, 1]; alpha = 1 is allowed for the classical-diffusion
    comparison runs (E_{1,1}(z) = exp(z)). beta is typically 1 or alpha in
    solver code; other real values are accepted for testing.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        if not np.isfinite(self.beta):
            raise ParameterError(f"beta must be finite, got {self.beta}")


def ml_eval(params: MLParams, z: float) -> float:
    """Evaluate E_{alpha,beta}(z) for z <= POSITIVE_Z_MAX.

    Positive z is served by the power series only, hence the small cutoff;
    large positive arguments grow like exp(z^(1/alpha)) and are out of scope.
    """
    if not isinstance(params, MLParams):
        params = MLParams(*params)
    z = float(z)
    if not np.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z > POSITIVE_Z_MAX:
        raise DomainError(
            f"z={z} is in the unsupported growth region (z > {POSITIVE_Z_MAX})"
        )
    if z >= 0.0:
        value, ok = _series_scalar(params.alpha, params.beta, z)
        if not ok:
            raise DomainError(f"series did not converge for z={z}")
        return value
    return float(ml_neg(params.alpha, params.beta, np.asarray([-z]))[0])


def ml_neg(alpha: float, beta: float, x) -> np.ndarray:
    """Vectorized E_{alpha,beta}(-x) for x >= 0.

    This is the solver-facing entry point: x = lambda_n * t^alpha.
    """
    MLParams(alpha, beta)  # validate
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError("ml_neg requires finite x >= 0")
    out = np.empty_like(x)

    if alpha == 1.0 and beta == 1.0:
        np.exp(-x, out=out)
        return out

    zero = x == 0.0
    if np.any(zero):
        out[zero] = rgamma(beta)

    todo = ~zero
    if not np.any(todo):
        return out

    xs = x[todo]
    vals = np.full(xs.shape, np.nan)

    # 1. asymptotic expansion where optimal truncation is guaranteed sharp
    asym_mask = xs ** (1.0 / alpha) >= _ASYM_MIN_POWER
    if np.any(asym_mask):
        v, ok = _asymptotic_batch(alpha, beta, xs[asym_mask])
        got = np.where(asym_mask)[0][ok]
        vals[got] = v[ok]

    # 2. power series where cancellation stays controlled
    need = np.isnan(vals)
    if np.any(need):
        attempt = need & (_predict_series_log_max(alpha, beta, xs) < math.log(50.0))
        if np.any(attempt):
            v, ok = _series_batch(alpha, beta, -xs[attempt])
            got = np.where(attempt)[0][ok]
            vals[got] = v[ok]

    # 3. the gap: integral representation, then high-precision summation
    for i in np.where(np.isnan(vals))[0]:
        vals[i] = _gap_scalar(alpha, beta, float(xs[i]))

    out[todo] = vals
    return out


# ---------------------------------------------------------------------------
# power series


def _series_scalar(alpha: float, beta: float, z: float) -> tuple[float, bool]:
    v, ok = _series_batch(alpha, beta, np.asarray([z]))
    return float(v[0]), bool(ok[0])


def _series_batch(alpha, beta, z):
    """Kahan-compensated power series; returns (values, accepted mask).

    A point is accepted only if the series converged within the term budget
    and max|term| <= cap * |sum| so that roundoff stays near eps. Terms are
    built from log-magnitudes so z^k cannot overflow before Gamma catches up.
    """
    z = np.asarray(z, dtype=float)
    s = np.full(z.shape, rgamma(beta))
    comp = np.zeros_like(s)
    maxterm = np.abs(s).copy()
    absz = np.abs(z)
    sgnz = np.sign(z)
    converged = absz == 0.0
    active = ~converged
    logabsz = np.log(np.where(absz > 0, absz, 1.0))

    for k in range(1, _SERIES_MAX_TERMS + 1):
        if not np.any(active):
            break
        arg = alpha * k + beta
        # gammaln(pole) = inf makes the term vanish, matching 1/Gamma = 0;
        # clip keeps rejected points finite instead of overflowing
        logmag = np.minimum(k * logabsz - gammaln(arg), 700.0)
        term = np.where(active, (sgnz**k) * gammasgn(arg) * np.exp(logmag), 0.0)
        maxterm = np.maximum(maxterm, np.abs(term))
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        past_peak = (alpha * k) ** alpha >= absz
        done = active & (np.abs(term) <= 1e-18 * np.abs(s)) & past_peak & (k >= 3)
        converged |= done
        active &= ~done
    accepted = converged & (maxterm <= _SERIES_CANCEL_CAP * np.abs(s)) & (np.abs(s) > 0)
    return s, accepted


def _predict_series_log_max(alpha, beta, x):
    """log of the predicted largest series term at argument -x (x > 0)."""
    x = np.asarray(x, dtype=float)
    k_hat = np.clip(x ** (1.0 / alpha) / alpha, 1.0, 1e7)
    return k_hat * np.log(x) - gammaln(alpha * k_hat + beta)


# ---------------------------------------------------------------------------
# asymptotic expansion


def _asymptotic_batch(alpha, beta, x):
    """E_{a,b}(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(b - a k), adaptive N.

    Returns (values, accepted mask). Convergence and divergence checks use the
    smooth reflection envelope Gamma(1 + a k - b)/pi >= |1/Gamma(b - a k)|:
    the raw coefficients pass through zero at Gamma poles (exactly or to
    rounding), which would otherwise fake convergence.
    """
    x = np.asarray(x, dtype=float)
    ks = np.arange(1, _ASYM_MAX_TERMS + 2, dtype=float)
    ys = beta - alpha * ks
    lcoef = -gammaln(ys)  # log|1/Gamma|, -inf at poles
    sgn = gammasgn(ys) * (-((-1.0) ** ks))
    pole = ~np.isfinite(lcoef)
    lcoef[pole] = -745.0  # term underflows to exactly 0
    sgn[pole] = 0.0  # gammasgn is nan at poles
    yr = 1.0 + alpha * ks - beta
    lenv = np.where(yr > 0.5, gammaln(np.maximum(yr, 0.6)) - math.log(math.pi), lcoef)

    s = np.zeros_like(x)
    prev_env = np.full(x.shape, np.inf)
    ok = np.zeros(x.shape, dtype=bool)
    active = np.ones(x.shape, dtype=bool)
    logx = np.log(x)
    for i in range(_ASYM_MAX_TERMS):
        k = i + 1.0
        term = sgn[i] * np.exp(np.minimum(lcoef[i] - k * logx, 700.0))
        env = np.exp(np.minimum(lenv[i] - k * logx, 700.0))
        env_next = np.exp(np.minimum(lenv[i + 1] - (k + 1.0) * logx, 700.0))
        done_ok = (
            active
            & (env <= _ASYM_TOL * np.abs(s))
            & (env_next <= _ASYM_TOL * np.abs(s))
            & (np.abs(s) > 0)
        )
        ok |= done_ok
        active &= ~done_ok
        # stop before the divergent tail starts growing
        active &= ~(active & (env > prev_env))
        if not np.any(active):
            break
        s = np.where(active, s + term, s)
        prev_env = np.where(active, env, prev_env)
    return s, ok


# ---------------------------------------------------------------------------
# gap region


def _gap_scalar(alpha: float, beta: float, x: float) -> float:
    if 0.0 < alpha < 0.99 and 0.0 < beta <= 1.0:
        return _integral_scalar(alpha, beta, x)
    return _highprec_scalar(alpha, beta, -x)


def _sinpi(y: float) -> float:
    """sin(pi*y) with exact zeros at integer y (plain sin(pi*y) rounds)."""
    m = round(y)
    return (-1.0) ** (m % 2) * math.sin(math.pi * (y - m))


def _load_quadpack():
    """scipy.integrate.quad's compiled QUADPACK core, loaded from its file: the
    package import pulls in scipy.optimize, ~0.3 s and ~18 MB a cold start."""
    folder = Path(scipy.__file__).parent / "integrate"
    for path in (folder / f"_quadpack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if path.exists():
            spec = importlib.util.spec_from_file_location("scipy.integrate._quadpack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"QUADPACK's compiled core is not in {folder}")


_QUADPACK = _load_quadpack()


def _integral_scalar(alpha: float, beta: float, x: float) -> float:
    """Hankel-collapse integral, adaptive QUADPACK on [0, R], called as quad calls it."""
    a, b = alpha, beta
    sin1 = _sinpi(1.0 - b)
    sin2 = _sinpi(1.0 - b + a)
    cosa = math.cos(math.pi * a)
    p = (1.0 - b) / a

    def kernel(r):
        num = r * sin1 + x * sin2
        den = r * r + 2.0 * r * x * cosa + x * x
        return (r**p) * math.exp(-(r ** (1.0 / a))) * num / den / (a * math.pi)

    upper = 46.0**a
    opts = ((), 0, 0.0, 1e-12, 300)  # quad's args, full_output, epsabs, epsrel, limit
    if cosa < 0.0 and -x * cosa < upper:  # quad's points: those in (0, upper), then 0, 0
        val, err, _ = _QUADPACK._qagpe(kernel, 0.0, upper, np.array([-x * cosa, 0.0, 0.0]), *opts)
    else:
        val, err, _ = _QUADPACK._qagse(kernel, 0.0, upper, *opts)
    if not np.isfinite(val) or err > 1e-10 * max(abs(val), 1e-300):
        return _highprec_scalar(alpha, beta, -x)
    return val


def _highprec_scalar(alpha: float, beta: float, z: float) -> float:
    """Arbitrary-precision series with precision scaled to the cancellation."""
    import mpmath as mp

    x = abs(z)
    log10_max = _predict_series_log_max(alpha, beta, np.asarray([x]))[0] / math.log(10)
    dps = int(max(30, log10_max + 30))
    with mp.workdps(dps):
        # Gamma argument formed in mp arithmetic: float rounding in alpha*k
        # would be amplified by the cancellation ratio of the sum
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zz = mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        while True:
            term = zz**k / mp.gamma(a * k + b)
            s += term
            if k > 4 and abs(term) < mp.mpf(10) ** (-dps) * abs(s):
                break
            k += 1
            if k > 200000:
                raise DomainError(
                    f"high-precision series did not converge (alpha={alpha}, z={z})"
                )
        return float(s)
