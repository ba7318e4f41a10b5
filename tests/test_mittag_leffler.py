import functools
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfcx, gamma

import fracinv.mittag_leffler as ml_mod
from fracinv.errors import DomainError, ParameterError
from fracinv.mittag_leffler import (
    MLParams,
    ml_eval,
    ml_neg,
    _asymptotic_batch,
    _integral_scalar,
    _series_batch,
)

from oracles import ml_derivative_identity_residual, ml_e1_bounds_check, ml_reference, mp_series

# E_{1/2,1}(-5) = exp(25) erfc(5), frozen from a 40-digit computation
E_HALF_AT_M5 = 0.1107046377330686263702


def test_value_at_zero_is_one():
    assert ml_eval(MLParams(0.5, 1.0), 0.0) == 1.0


def test_alpha_one_is_exponential():
    assert ml_eval(MLParams(1.0, 1.0), -2.0) == pytest.approx(
        0.1353352832366127, rel=1e-14
    )


def test_half_closed_form_frozen_value():
    got = ml_eval(MLParams(0.5, 1.0), -5.0)
    assert got == pytest.approx(E_HALF_AT_M5, rel=1e-11)


def test_half_closed_form_grid():
    xs = np.concatenate([[0.0], np.logspace(-2, 6, 60)])
    got = ml_neg(0.5, 1.0, xs)
    ref = erfcx(xs)
    assert np.max(np.abs(got - ref) / ref) < 1e-11


def test_deep_asymptotic_one_term():
    # at z = -1e4 the one-term tail 1/(Gamma(1-a) x) is accurate to ~1e-4
    got = ml_eval(MLParams(0.5, 1.0), -1e4)
    lead = 1.0 / (gamma(0.5) * 1e4)
    assert abs(got - lead) / lead < 1e-3
    # the k=2 term vanishes at a Gamma pole; next correction is x^-3/Gamma(-1/2)
    two_term = lead + 1.0 / (gamma(-0.5) * 1e12)
    assert abs(got - two_term) / lead < 1e-8


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("beta_kind", ["one", "alpha"])
def test_against_reference_oracle(alpha, beta_kind):
    beta = 1.0 if beta_kind == "one" else alpha
    xs = np.concatenate([[0.0], np.logspace(-3, 6, 25)])
    got = ml_neg(alpha, beta, xs)
    ref = np.array([ml_reference(alpha, beta, float(x)) for x in xs])
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
    assert rel.max() < 1e-10, f"worst rel err {rel.max():.3e} at x={xs[rel.argmax()]}"


def test_general_beta_small_arguments():
    # general beta accepted for testing; series region
    for beta in [0.3, 1.5, 2.0]:
        got = ml_eval(MLParams(0.7, beta), -0.8)
        ref = ml_reference(0.7, beta, 0.8)
        assert got == pytest.approx(ref, rel=1e-12)


def test_branch_consistency_overlap():
    # wherever two branches both claim validity they must agree to 1e-9
    for alpha in [0.25, 0.5, 0.75]:
        for beta in [1.0, alpha]:
            x_lo = 35.0**alpha
            xs = np.linspace(x_lo, 2 * x_lo, 7)
            asym, ok = _asymptotic_batch(alpha, beta, xs)
            quadv = np.array([_integral_scalar(alpha, beta, float(x)) for x in xs])
            rel = np.abs(asym[ok] - quadv[ok]) / np.abs(quadv[ok])
            assert ok.any() and rel.max() < 1e-9

    # series vs integral on the inner band
    for alpha in [0.5, 0.75]:
        xs = np.linspace(0.5, 1.5, 5)
        ser, ok = _series_batch(alpha, 1.0, -xs)
        quadv = np.array([_integral_scalar(alpha, 1.0, float(x)) for x in xs])
        assert ok.all()
        assert np.max(np.abs(ser - quadv) / np.abs(quadv)) < 1e-9


GAP_ALPHAS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.98]


def gap_points(alpha, beta, count=8):
    """`count` points spread over the x that ml_neg hands to the integral."""
    seen = []

    def spy(a, b, x):
        seen.append(x)
        return _integral_scalar(a, b, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml_mod, "_integral_scalar", spy)
        ml_neg(alpha, beta, np.linspace(0.01, 35.0**alpha, 400))
    return np.linspace(min(seen), max(seen), count)


@functools.lru_cache(maxsize=None)
def mpmath_gap(alpha, beta):
    """Gap points and their arbitrary-precision values."""
    xs = gap_points(alpha, beta)
    return xs, np.array([mp_series(alpha, beta, -x) for x in xs])


@pytest.mark.parametrize("alpha", GAP_ALPHAS)
def test_gap_integral_against_mpmath(alpha):
    for beta in (alpha, 1.0):
        xs, ref = mpmath_gap(alpha, beta)
        assert np.max(np.abs(ml_neg(alpha, beta, xs) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("alpha", GAP_ALPHAS)
def test_oracle_self_check(alpha):
    # ml_reference's quadrature is checked against mpmath on its own
    for beta in (alpha, 1.0):
        xs, ref = mpmath_gap(alpha, beta)
        got = np.array([ml_reference(alpha, beta, x) for x in xs])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
def test_gap_integral_general_beta(beta):
    for alpha in GAP_ALPHAS:
        xs = gap_points(alpha, beta)
        ref = np.array([ml_reference(alpha, beta, x) for x in xs])
        assert np.max(np.abs(ml_neg(alpha, beta, xs) - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_gap_integral_is_quad():
    # the compiled core, loaded on its own, returns scipy.integrate.quad's
    # numbers bit for bit; the package is imported here only
    from scipy.integrate import quad

    def quad_integral(a, b, x):
        s1, s2, c = ml_mod._sinpi(1 - b), ml_mod._sinpi(1 - b + a), math.cos(math.pi * a)
        kernel = lambda r: ((r ** ((1 - b) / a)) * math.exp(-(r ** (1 / a))) * (r * s1 + x * s2)
                            / (r * r + 2 * r * x * c + x * x) / (a * math.pi))
        pts = [-x * c] if c < 0 and -x * c < 46.0**a else None
        return quad(kernel, 0.0, 46.0**a, points=pts, limit=300, epsabs=0.0, epsrel=1e-12)[0]

    for alpha in GAP_ALPHAS:
        for beta in (alpha, 1.0, 0.5):
            for x in gap_points(alpha, beta):
                assert _integral_scalar(alpha, beta, x) == quad_integral(alpha, beta, x)


@pytest.mark.parametrize("alpha, beta, xs", [(0.995, 1.0, [8.0, 12.0]), (0.5, 1.5, [3.0, 4.0, 5.0])])
def test_gap_fallback_outside_integral(alpha, beta, xs, monkeypatch):
    # a close to 1 and b > 1 leave the integral's domain for the mpmath series
    calls = []
    highprec = ml_mod._highprec_scalar
    monkeypatch.setattr(ml_mod, "_highprec_scalar", lambda *args: calls.append(args) or highprec(*args))
    monkeypatch.setattr(ml_mod, "_integral_scalar", None)  # never reached
    got = ml_neg(alpha, beta, xs)
    assert len(calls) == len(xs)
    ref = np.array([mp_series(alpha, beta, -x) for x in xs])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_gap_fallback_on_quadrature_error(monkeypatch):
    # QUADPACK reporting an error estimate above 1e-10 relative hands the point
    # to the mpmath series
    calls = []
    highprec = ml_mod._highprec_scalar
    monkeypatch.setattr(ml_mod, "_highprec_scalar", lambda *args: calls.append(args) or highprec(*args))
    monkeypatch.setattr(ml_mod, "_QUADPACK", SimpleNamespace(_qagpe=lambda *args: (0.06, 1.0, 2)))
    got = ml_neg(0.75, 1.0, [5.9])
    assert calls == [(0.75, 1.0, -5.9)]
    assert got[0] == pytest.approx(mp_series(0.75, 1.0, -5.9), rel=1e-13)


def test_no_quadpack_package_on_import_path():
    code = ("import sys, fracinv\n"
            "from fracinv import cli\n"
            "fracinv.ml_neg(0.75, 1.0, [5.3, 5.9])\n"
            "cli.main(['ml-eval', '0.5', '1', '-5'])\n"
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.110704637733069", "[]"]


def test_complete_monotonicity_consequences():
    xs = np.logspace(-4, 7, 300)
    for alpha in [0.1, 0.3, 0.5, 0.7, 0.9]:
        e = ml_neg(alpha, 1.0, xs)
        assert np.all(e > 0)
        assert np.all(e <= 1.0 + 1e-15)
        assert np.all(np.diff(e) <= 1e-15)


def test_e_alpha_alpha_positive():
    xs = np.logspace(-4, 6, 200)
    for alpha in [0.2, 0.5, 0.8]:
        assert np.all(ml_neg(alpha, alpha, xs) > 0)


def test_one_term_asymptotic_limit():
    for alpha in [0.25, 0.5, 0.75]:
        x = 1e6
        val = x * float(ml_neg(alpha, 1.0, np.array([x]))[0])
        assert abs(val - 1.0 / gamma(1.0 - alpha)) * gamma(1.0 - alpha) < 1e-3


def test_alpha_one_degeneracy():
    x = 50.0
    assert x * float(ml_neg(1.0, 1.0, np.array([x]))[0]) < 1e-6


def test_bounds_check():
    assert ml_e1_bounds_check(0.5, 0.0) == (True, True)
    assert ml_e1_bounds_check(0.25, 100.0) == (True, True)
    assert ml_e1_bounds_check(0.75, 1e6) == (True, True)
    # calibrated constants must hold on a fine grid
    for alpha in [0.1, 0.5, 0.9]:
        for x in np.logspace(-2, 6.5, 120):
            lo, hi = ml_e1_bounds_check(alpha, float(x))
            assert lo and hi


def test_derivative_identity_alpha_one():
    r = ml_derivative_identity_residual(1.0, 1.0, 1.0, 1e-4)
    assert r <= 1e-7


def test_derivative_identity_fractional():
    r = ml_derivative_identity_residual(0.5, math.pi**2, 0.5, 1e-4)
    assert r <= 1e-5


def test_derivative_identity_second_order():
    h = 1e-3
    r1 = ml_derivative_identity_residual(0.5, math.pi**2, 0.5, h)
    r2 = ml_derivative_identity_residual(0.5, math.pi**2, 0.5, h / 2)
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        MLParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        MLParams(1.2, 1.0)
    with pytest.raises(DomainError):
        ml_eval(MLParams(0.5, 1.0), 5.0)
    with pytest.raises(DomainError):
        ml_neg(0.5, 1.0, np.array([-1.0]))


def test_positive_small_arguments_series():
    # z in (0, 1] allowed: compare against an mpmath summation
    import mpmath as mp

    got = ml_eval(MLParams(0.6, 1.0), 0.5)
    with mp.workdps(40):
        r = sum(mp.mpf(0.5) ** k / mp.gamma(0.6 * k + 1) for k in range(200))
    assert got == pytest.approx(float(r), rel=1e-13)
