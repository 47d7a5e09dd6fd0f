"""Nonlinearity evaluators and sampled hypothesis verdicts."""

import numpy as np
import pytest

from diractorus.nonlinearity import (
    NonlinearityError,
    check_hypotheses,
    critical_exponent,
    f5_integral,
    make_nonlinearity,
)


def test_critical_exponent():
    assert critical_exponent(2) == 4.0
    assert critical_exponent(3) == 3.0


def test_zero_kind_and_alias():
    nl = make_nonlinearity("bnd", 2)
    assert nl.is_zero()
    s = np.geomspace(1e-3, 1e3, 17)
    assert np.all(nl.f(s) == 0)
    assert np.all(nl.F(s) == 0)
    assert np.allclose(nl.g(s), s**2)
    assert np.allclose(nl.G(s), s**4 / 4)


def test_power_evaluators_and_consistency():
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    s = np.array([0.0, 0.5, 2.0])
    assert np.allclose(nl.f(s), [0.0, 0.5, 2.0])
    assert np.allclose(nl.F(s), s**3 / 3.0)
    assert nl.consistency_residual() < 1e-6


def test_power_domain_guard():
    with pytest.raises(NonlinearityError):
        make_nonlinearity("power", 2, alpha=1.0, p=4.0)  # p = 2*
    with pytest.raises(NonlinearityError):
        make_nonlinearity("power", 2, alpha=1.0, p=2.0)
    with pytest.raises(NonlinearityError):
        make_nonlinearity("power", 2, alpha=-1.0, p=3.0)
    with pytest.raises(NonlinearityError):
        make_nonlinearity("nosuch", 2)


def test_log_critical_consistency():
    nl = make_nonlinearity("log-critical", 2, alpha=1.0, q=1.0)
    assert nl.consistency_residual(1e-2, 1e2) < 1e-6
    assert float(nl.f(0.0)) == 0.0
    with pytest.raises(NonlinearityError):
        make_nonlinearity("log-critical", 2, alpha=1.0, q=3.0)  # q > 2/(m-1)


def test_hypotheses_zero():
    report = check_hypotheses(make_nonlinearity("zero", 2))
    assert report["f1"] and report["f2"] and report["f3"] and report["f4"]
    assert not report["f5"]
    assert report["remark_i"] and report["remark_ii"]


def test_hypotheses_power():
    report = check_hypotheses(make_nonlinearity("power", 2, alpha=1.0, p=3.0))
    for key in ("f1", "f2", "f3", "f4", "f5", "remark_i", "remark_ii"):
        assert report[key], key


def test_hypotheses_negative_custom_is_verdict_not_exception():
    nl = make_nonlinearity(
        "custom", 2, f=lambda s: -np.ones_like(s), F=lambda s: -(s**2) / 2.0
    )
    report = check_hypotheses(nl)
    assert not report["f1"]


def test_f5_growth_rate_power_m2():
    # F(s) = s^3/3 at m=2: the (f_5) quantity grows like rho^(-1/2)/|ln rho|.
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    rhos = np.array([0.04, 0.02, 0.01, 0.005])
    vals = np.array([f5_integral(nl, r) for r in rhos])
    big_l = np.abs(np.log(rhos))
    y = np.log(vals) + np.log(big_l)
    slope = np.polyfit(np.log(1.0 / rhos), y, 1)[0]
    assert abs(slope - 0.5) < 0.05


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["zero", "power", "log-critical"])
def test_g_prime_matches_differences_of_g(kind, m):
    p = 0.5 * (2.0 + critical_exponent(m))
    nl = make_nonlinearity(kind, m, alpha=0.7, p=p, q=1.0)
    s = np.geomspace(1e-2, 1e2, 41)
    h = 1e-5 * s
    fd = (nl.g(s + h) - nl.g(s - h)) / (2.0 * h)
    assert np.allclose(nl.g_prime(s), fd, rtol=1e-6, atol=0.0)
