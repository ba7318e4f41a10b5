"""Eigen-decompositions of -u'' + q u on (0,1), spectral solution operators,
Sobolev-scale diagnostics, and the terminal-time estimator.

The decay factor of mode n at time t is E_{alpha,1}(-lambda_n t^alpha); its
product with lambda_n approaches 1/(Gamma(1-alpha) t^alpha) as n grows, which
is what makes the terminal time recoverable from a single snapshot: the
estimator extrapolates that product from a window of mode ratios.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import gamma as gamma_fn

from .errors import (
    DegenerateReferenceError,
    DomainError,
    InconsistentDataError,
    ParameterError,
    ResolutionError,
)
from .grids import Field, Grid1D, as_nodal_values
from .mittag_leffler import ml_neg
from .problems import ProblemSpec, TimeIndependentSource

__all__ = [
    "EigenDecomposition",
    "build_eigendecomposition",
    "sine_basis",
    "hs_norm",
    "apply_F",
    "solve_spectral",
    "solve_spectral_ipp",
    "estimate_T",
    "TEstimate",
    "coefficient_decay_rate",
    "save_eigendecomposition",
    "load_eigendecomposition",
    "eigendecomposition_cache_key",
]


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

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, float))
        object.__setattr__(self, "eigenfunctions", np.asarray(self.eigenfunctions, float))

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


def build_eigendecomposition(
    q, n_modes: int, grid: Optional[Grid1D] = None
) -> EigenDecomposition:
    """Eigenpairs of -d_xx + q by second-order finite differences with
    Richardson-extrapolated eigenvalues (q == 0 uses the exact spectrum)."""
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    if grid is None:
        n = max(2048, 8 * n_modes)
        n += n % 2
        grid = Grid1D(n)
    if grid.n % 2:
        raise ParameterError("grid must have an even interval count (Richardson)")
    if n_modes > grid.n // 4:
        raise ResolutionError(
            f"n_modes={n_modes} exceeds grid resolution {grid.n}/4"
        )
    q_nodal = as_nodal_values(q, grid)
    if q_nodal.min() < 0.0:
        raise DomainError("potential must be nonnegative")

    x = grid.nodes
    ns = np.arange(1, n_modes + 1)
    if q_nodal.max() == 0.0:
        lam = (ns * np.pi) ** 2
        phi = np.sqrt(2.0) * np.sin(np.outer(ns, np.pi * x))
        gap = 0.0
    else:
        lam_f, vecs = _fd_eigs(q_nodal[grid.interior], grid.h, n_modes)
        coarse = Grid1D(grid.n // 2)
        lam_c, _ = _fd_eigs(q_nodal[::2][coarse.interior], coarse.h, n_modes)
        lam = (4.0 * lam_f - lam_c) / 3.0
        phi = np.zeros((n_modes, grid.n_nodes))
        phi[:, grid.interior] = (vecs / np.sqrt(grid.h)).T
        flip = phi[:, 1] < 0
        phi[flip] *= -1.0
        gap = float(np.max(np.abs(lam - (ns * np.pi) ** 2)))

    if not np.all(np.diff(lam) > 0) or lam[0] <= 0:
        raise DomainError("spectrum not simple/positive; resolution too coarse")
    return EigenDecomposition(
        eigenvalues=lam,
        eigenfunctions=phi,
        potential=q_nodal,
        grid=grid,
        count=n_modes,
        asymptotic_gap=gap,
    )


def sine_basis(n_modes: int, grid: Optional[Grid1D] = None) -> EigenDecomposition:
    """Pure sine basis sqrt(2) sin(n pi x) with eigenvalues (n pi)^2."""
    return build_eigendecomposition(0.0, n_modes, grid)


# ---------------------------------------------------------------------------
# cache sidecar


def eigendecomposition_cache_key(q_nodal: np.ndarray, grid_n: int, n_modes: int) -> str:
    payload = np.asarray(q_nodal, float).tobytes() + f"|{grid_n}|{n_modes}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def save_eigendecomposition(ed: EigenDecomposition, path) -> None:
    """Binary sidecar (.npz): eigenvalues, eigenfunctions, potential, grid_n,
    count, asymptotic_gap."""
    np.savez_compressed(
        path,
        eigenvalues=ed.eigenvalues,
        eigenfunctions=ed.eigenfunctions,
        potential=ed.potential,
        grid_n=np.array([ed.grid.n]),
        count=np.array([ed.count]),
        asymptotic_gap=np.array([ed.asymptotic_gap]),
    )


def load_eigendecomposition(path) -> EigenDecomposition:
    with np.load(path) as data:
        return EigenDecomposition(
            eigenvalues=data["eigenvalues"],
            eigenfunctions=data["eigenfunctions"],
            potential=data["potential"],
            grid=Grid1D(int(data["grid_n"][0])),
            count=int(data["count"][0]),
            asymptotic_gap=float(data["asymptotic_gap"][0]),
        )


# ---------------------------------------------------------------------------
# Sobolev scale


def hs_norm(v, ed: EigenDecomposition, s: float) -> float:
    """(sum_n lambda_n^s (v, phi_n)^2)^(1/2) over the available modes.

    For s >= 0 this is a truncated lower bound of the full-scale norm.
    """
    if not -2.0 <= s <= 2.0:
        raise ParameterError(f"Sobolev index must lie in [-2, 2], got {s}")
    c = v.spectral(ed) if isinstance(v, Field) else ed.project(np.asarray(v, float))
    return float(np.sqrt(np.sum(ed.eigenvalues**s * c**2)))


# ---------------------------------------------------------------------------
# solution operators


def _coeffs_of(v, ed: EigenDecomposition) -> np.ndarray:
    if isinstance(v, Field):
        return v.spectral(ed)
    return ed.project(as_nodal_values(v, ed.grid))


def apply_F(ed: EigenDecomposition, alpha: float, t: float, v) -> Field:
    """F(t) v = sum_n E_{alpha,1}(-lambda_n t^alpha) (v, phi_n) phi_n."""
    if t < 0:
        raise ParameterError("t must be nonnegative")
    c = _coeffs_of(v, ed)
    decay = ml_neg(alpha, 1.0, ed.eigenvalues * t**alpha)
    return Field(grid=ed.grid, coeffs=decay * c, basis=ed)


def _truncation_meta(ed: EigenDecomposition, nodal: np.ndarray, coeffs: np.ndarray) -> dict:
    total = ed.inner(nodal, nodal)
    captured = float(np.sum(coeffs**2))
    if total > 0 and captured < total * (1.0 - 1e-6):
        return {"truncation_warning": 1.0 - captured / total}
    return {}


def duhamel_coefficients(
    ed: EigenDecomposition, alpha: float, t: float, g, rtol: float = 1e-11
) -> np.ndarray:
    """Per-mode integral int_0^t s^(alpha-1) E_{alpha,alpha}(-lambda s^alpha)
    g(t-s) ds.

    Substituting y = (s/t)^alpha absorbs the endpoint singularity exactly:
    (t^alpha/alpha) int_0^1 E_{alpha,alpha}(-lambda t^alpha y) g(t(1-y^(1/alpha))) dy,
    evaluated by adaptive vector quadrature over all modes at once.
    """
    if t == 0.0:
        return np.zeros(ed.count)
    lam_ta = ed.eigenvalues * t**alpha

    def integrand(y):
        return ml_neg(alpha, alpha, lam_ta * y) * g(t * (1.0 - y ** (1.0 / alpha)))

    val, _err = quad_vec(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=rtol, limit=200)
    return t**alpha / alpha * val


def solve_spectral(spec: ProblemSpec, ed: EigenDecomposition, t: float) -> Field:
    """Exact modal solve at time t (1D, diffusion == 1).

    Time-independent source: E1 u0_n + (1 - E1)/lambda_n f_n per mode.
    Separable source g(t) psi: Duhamel integral per mode by quadrature.
    """
    if spec.domain != "interval":
        raise ParameterError("spectral solver is one-dimensional")
    a = as_nodal_values(spec.diffusion, ed.grid)
    if np.any(np.abs(a - 1.0) > 1e-14):
        raise ParameterError("spectral solver requires diffusion == 1")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if spec.dirichlet is not None and any(abs(v) > 0 for v in spec.dirichlet):
        return solve_spectral_ipp(spec, ed, t)

    u0_nodal = spec.sample("u0", ed.grid)
    u0c = ed.project(u0_nodal)
    meta = _truncation_meta(ed, u0_nodal, u0c)
    e1 = ml_neg(spec.alpha, 1.0, ed.eigenvalues * t**spec.alpha)
    if isinstance(spec.source, TimeIndependentSource):
        f_nodal = spec.sample("f", ed.grid)
        fc = ed.project(f_nodal)
        meta.update(_truncation_meta(ed, f_nodal, fc))
        coeffs = e1 * u0c + (1.0 - e1) / ed.eigenvalues * fc
    else:
        psi_nodal = spec.sample("psi", ed.grid)
        pc = ed.project(psi_nodal)
        meta.update(_truncation_meta(ed, psi_nodal, pc))
        coeffs = e1 * u0c + duhamel_coefficients(ed, spec.alpha, t, spec.source.g) * pc
    return Field(grid=ed.grid, coeffs=coeffs, basis=ed, meta=meta)


def poisson_solve(grid: Grid1D, q_nodal: np.ndarray, f_nodal: np.ndarray,
                  bc: tuple[float, float]) -> np.ndarray:
    """-u'' + q u = f on (0,1) with u(0), u(1) given; FD banded solve."""
    h = grid.h
    m = grid.n - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = -1.0 / h**2
    ab[1, :] = 2.0 / h**2 + q_nodal[grid.interior]
    ab[2, :-1] = -1.0 / h**2
    rhs = f_nodal[grid.interior].astype(float).copy()
    rhs[0] += bc[0] / h**2
    rhs[-1] += bc[1] / h**2
    u = np.empty(grid.n_nodes)
    u[0], u[-1] = bc
    u[grid.interior] = solve_banded((1, 1), ab, rhs)
    return u


def harmonic_lift(grid: Grid1D, q_nodal: np.ndarray, bc: tuple[float, float]) -> np.ndarray:
    """phi with -phi'' + q phi = 0, phi(0) = a0, phi(1) = a1."""
    return poisson_solve(grid, q_nodal, np.zeros(grid.n_nodes), bc)


def solve_spectral_ipp(spec: ProblemSpec, ed: EigenDecomposition, t: float) -> Field:
    """Modal solve of the potential-problem form with constant Dirichlet data.

    Writes u(t) = steady + F(t)(u0 - steady) where steady solves the
    stationary equation with the boundary values; the steady part comes from
    a grid solve (no truncation), only the decaying part is truncated.
    """
    if spec.domain != "interval":
        raise ParameterError("spectral solver is one-dimensional")
    if not isinstance(spec.source, TimeIndependentSource):
        raise ParameterError("the potential-problem form uses a time-independent source")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    bc = spec.dirichlet if spec.dirichlet is not None else (0.0, 0.0)
    q_nodal = spec.sample("potential", ed.grid)
    if np.max(np.abs(q_nodal - ed.potential)) > 1e-12:
        raise ParameterError("eigendecomposition was built for a different potential")
    f_nodal = spec.sample("f", ed.grid)
    u0_nodal = spec.sample("u0", ed.grid)

    steady = poisson_solve(ed.grid, q_nodal, f_nodal, bc)
    w0 = u0_nodal - steady
    w0c = ed.project(w0)
    meta = _truncation_meta(ed, w0, w0c)
    e1 = ml_neg(spec.alpha, 1.0, ed.eigenvalues * t**spec.alpha)
    values = steady + ed.synthesize(e1 * w0c)
    return Field(grid=ed.grid, values=values, meta=meta)


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
    kind: str,
    observation,
    reference,
    basis: EigenDecomposition,
    dirichlet: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode ratio a_n whose limit is 1/(Gamma(1-alpha) T^alpha).

    bp:  a_n = lambda_n (1 - lambda_n (u(T), phi_n) / (f, phi_n))
    isp: a_n = lambda_n (u(T), phi_n) / (u0, phi_n)
    ipp: a_n = (n pi)^2 (u(T) - phi_0, sin_n) / (u0 - phi_0, sin_n), i.e. the
         spectral form of -(d_xx u(T), sin_n) / (u0 - phi_0, sin_n)

    Returns (a_n, valid mask); invalid modes have a near-zero reference
    coefficient.
    """
    kind = kind.lower()
    if kind not in ("bp", "isp", "ipp"):
        raise ParameterError(f"unknown problem kind {kind!r}")
    lam = basis.eigenvalues
    ref_c = _coeffs_of(reference, basis)
    obs = observation
    if kind == "ipp" and any(abs(v) > 0 for v in dirichlet):
        a0, a1 = dirichlet
        phi0 = a0 * (1.0 - basis.grid.nodes) + a1 * basis.grid.nodes
        obs_nodal = obs.nodal() if isinstance(obs, Field) else as_nodal_values(obs, basis.grid)
        obs_c = basis.project(obs_nodal - phi0)
    else:
        obs_c = _coeffs_of(obs, basis)

    valid = np.abs(ref_c) > 1e-13 * max(np.max(np.abs(ref_c)), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "bp":
            a = lam * (1.0 - lam * obs_c / ref_c)
        else:
            a = lam * obs_c / ref_c
    a[~valid] = np.nan
    return a, valid


def estimate_T(
    observation,
    reference,
    basis: EigenDecomposition,
    alpha: float,
    mode_window: tuple[int, int],
    kind: str,
    dirichlet: tuple[float, float] = (0.0, 0.0),
) -> TEstimate:
    """Estimate the unknown terminal time from one snapshot.

    Robust extrapolation of the mode-ratio sequence: median over each half of
    the window, then Richardson elimination of the O(1/lambda_n) bias, then
    T = (Gamma(1-alpha) Lambda)^{-1/alpha}.

    Raises DegenerateReferenceError if every window mode has a vanishing
    reference coefficient, InconsistentDataError if the extrapolated level is
    nonpositive or the order is 1 (classical diffusion: the product
    lambda_n exp(-lambda_n T) vanishes and T is not identifiable).
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    n_lo, n_hi = mode_window
    if not (1 <= n_lo <= n_hi <= basis.count):
        raise ParameterError(f"bad mode window {mode_window} for {basis.count} modes")

    a_all, valid_all = mode_ratio_sequence(kind, observation, reference, basis, dirichlet)
    sel = slice(n_lo - 1, n_hi)
    a = a_all[sel]
    lam = basis.eigenvalues[sel]
    valid = valid_all[sel] & np.isfinite(a_all[sel])
    if not np.any(valid):
        raise DegenerateReferenceError(
            "all reference coefficients in the window are below threshold"
        )
    av, lv = a[valid], lam[valid]

    if av.size >= 4:
        half = av.size // 2
        m1, m2 = np.median(av[:half]), np.median(av[half:])
        mu1 = np.median(1.0 / lv[:half])
        mu2 = np.median(1.0 / lv[half:])
        lam_hat = float((m2 * mu1 - m1 * mu2) / (mu1 - mu2))
    else:
        lam_hat = float(np.median(av))

    with np.errstate(invalid="ignore", over="ignore"):
        per_mode_t = np.where(
            av > 0, (gamma_fn(1.0 - alpha) * np.maximum(av, 1e-300)) ** (-1.0 / alpha), np.nan
        )

    diagnostics = {
        "n_used": int(av.size),
        "a_median": float(np.median(av)),
        "per_mode_t_std": float(np.nanstd(per_mode_t)) if av.size else float("nan"),
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


def coefficient_decay_rate(v, ed: EigenDecomposition, window: Optional[tuple[int, int]] = None) -> float:
    """Heuristic decay diagnostic: least-squares slope of log|(v, phi_n)|
    against log lambda_n. No finite test decides the underlying decay class;
    this only summarizes the resolved modes."""
    c = _coeffs_of(v, ed)
    lam = ed.eigenvalues
    if window is not None:
        c = c[window[0] - 1 : window[1]]
        lam = lam[window[0] - 1 : window[1]]
    keep = np.abs(c) > 1e-300
    if keep.sum() < 2:
        raise DegenerateReferenceError("too few nonzero coefficients for a decay fit")
    return float(np.polyfit(np.log(lam[keep]), np.log(np.abs(c[keep])), 1)[0])
