"""The sine eigenbasis of -d_xx on (0,1), the per-mode propagator and the
terminal-time estimator, all on plain arrays.

The decay factor of mode n at time t is E_{alpha,1}(-lambda_n t^alpha); its
product with lambda_n approaches 1/(Gamma(1-alpha) t^alpha) as n grows, which
is what makes the terminal time recoverable from a single snapshot: the
estimator extrapolates that product from a window of mode ratios. It reads
eigenvalues and two coefficient arrays, whatever basis they come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateReferenceError, InconsistentDataError, ParameterError
from .grids import Grid1D
from .mittag_leffler import MLParams, gamma as gamma_fn, ml_neg

__all__ = [
    "build_eigendecomposition",
    "propagate_modes",
    "estimate_T",
    "TEstimate",
]


@lru_cache(maxsize=4)
def build_eigendecomposition(n_modes: int, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The first n_modes Dirichlet eigenpairs of -d_xx on (0,1) in closed
    form: eigenvalues (n pi)^2 and the rows sqrt(2) sin(n pi x) at the grid's
    nodes, orthonormal in L2(0,1). Read-only: a pair is built once per
    (n_modes, grid) and the last few are kept, since every call of
    `cases.estimate_prior_T` asks for the same two tables."""
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    ns = np.arange(1, n_modes + 1)
    pair = (ns * np.pi) ** 2, np.sqrt(2.0) * np.sin(np.outer(ns, np.pi * grid.nodes))
    for a in pair:
        a.setflags(write=False)
    return pair


def propagate_modes(alpha: float, lam: np.ndarray, t: float,
                    u0c: np.ndarray, fc: np.ndarray) -> np.ndarray:
    """Modal coefficients of u(t) for the time-independent source f:
    E_{alpha,1}(-lambda_n t^alpha) (u0, phi_n)
    + (1 - E_{alpha,1}(-lambda_n t^alpha)) / lambda_n (f, phi_n)."""
    e1 = ml_neg(alpha, 1.0, lam * t**alpha)
    return e1 * u0c + (1.0 - e1) / lam * fc


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
    kind: str, obs_c: np.ndarray, ref_c: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode ratio a_n whose limit is 1/(Gamma(1-alpha) T^alpha), from the
    coefficients obs_c of u(T) and ref_c of the reference field (f for bp,
    u0 for isp and ipp) on eigenpairs with eigenvalues lam.

    bp:  a_n = lambda_n (1 - lambda_n (u(T), phi_n) / (f, phi_n))
    isp: a_n = lambda_n (u(T), phi_n) / (u0, phi_n)
    ipp: a_n = (n pi)^2 (u(T) - phi_0, sin_n) / (u0 - phi_0, sin_n), i.e. the
         spectral form of -(d_xx u(T), sin_n) / (u0 - phi_0, sin_n); the
         caller subtracts the boundary lift phi_0 before projecting

    Returns (a_n, valid mask); invalid modes have a near-zero reference
    coefficient.
    """
    kind = kind.lower()
    if kind not in ("bp", "isp", "ipp"):
        raise ParameterError(f"unknown problem kind {kind!r}")
    valid = np.abs(ref_c) > 1e-13 * max(np.max(np.abs(ref_c)), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "bp":
            a = lam * (1.0 - lam * obs_c / ref_c)
        else:
            a = lam * obs_c / ref_c
    a[~valid] = np.nan
    return a, valid


def _median(x: np.ndarray) -> np.float64:
    """np.median of a finite 1-D array, bit for bit, without the NaN check
    that imports numpy.ma: the middle value, or the mean of the middle two."""
    s = np.sort(x)
    h = s.size // 2
    return s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2


def estimate_T(
    obs_c: np.ndarray,
    ref_c: np.ndarray,
    lam: np.ndarray,
    alpha: float,
    mode_window: tuple[int, int],
    kind: str,
) -> TEstimate:
    """Estimate the unknown terminal time from the modal coefficients of one
    snapshot (see `mode_ratio_sequence` for the arguments).

    Robust extrapolation of the mode-ratio sequence over the 1-based modes
    mode_window: median over each half of the window, then Richardson
    elimination of the O(1/lambda_n) bias, then
    T = (Gamma(1-alpha) Lambda)^{-1/alpha}.

    Raises DegenerateReferenceError if every window mode has a vanishing
    reference coefficient, InconsistentDataError if the extrapolated level is
    nonpositive or the order is 1 (classical diffusion: the product
    lambda_n exp(-lambda_n T) vanishes and T is not identifiable).
    """
    MLParams(alpha)  # the order rule, alpha in (0, 1]
    obs_c, ref_c, lam = (np.asarray(a, float) for a in (obs_c, ref_c, lam))
    n_lo, n_hi = mode_window
    if not (1 <= n_lo <= n_hi <= lam.size):
        raise ParameterError(f"bad mode window {mode_window} for {lam.size} modes")

    a_all, valid_all = mode_ratio_sequence(kind, obs_c, ref_c, lam)
    sel = slice(n_lo - 1, n_hi)
    a = a_all[sel]
    lam = lam[sel]
    valid = valid_all[sel] & np.isfinite(a_all[sel])
    if not np.any(valid):
        raise DegenerateReferenceError(
            "all reference coefficients in the window are below threshold"
        )
    av, lv = a[valid], lam[valid]

    if av.size >= 4:
        half = av.size // 2
        m1, m2 = _median(av[:half]), _median(av[half:])
        mu1 = _median(1.0 / lv[:half])
        mu2 = _median(1.0 / lv[half:])
        lam_hat = float((m2 * mu1 - m1 * mu2) / (mu1 - mu2))
    else:
        lam_hat = float(_median(av))

    with np.errstate(invalid="ignore", over="ignore"):
        per_mode_t = np.where(
            av > 0, (gamma_fn(1.0 - alpha) * np.maximum(av, 1e-300)) ** (-1.0 / alpha), np.nan
        )

    diagnostics = {
        "n_used": int(av.size),
        "a_median": float(_median(av)),
        # NaN where no mode gives a time, without nanstd's warning on no value
        "per_mode_t_std": (float(np.nanstd(per_mode_t)) if not np.isnan(per_mode_t).all()
                           else float("nan")),
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
