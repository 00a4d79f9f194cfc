"""Nonlinearity families, weight profiles, recipes, hypothesis checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from quenchlab import (
    InitialData,
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    interval,
    validate_hypotheses,
)

FAMILIES = [Nonlinearity("log"), Nonlinearity("exp"), Nonlinearity("power", p=2.0),
            Nonlinearity("power", p=1.5), Nonlinearity("power", p=3.0)]
LATTICE = np.linspace(0.0, 0.95, 191)


@pytest.mark.parametrize("nl", FAMILIES, ids=lambda nl: f"{nl.family}-p{nl.p}")
def test_positive_increasing_convex(nl):
    vals = nl.value(LATTICE)
    d1 = nl.deriv(LATTICE)
    d2 = nl.deriv2(LATTICE)
    assert np.all(vals > 0.0)
    assert np.all(d1 > 0.0)
    assert np.all(d2 > 0.0)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("nl", FAMILIES, ids=lambda nl: f"{nl.family}-p{nl.p}")
def test_singular_growth(nl):
    assert nl.value(1.0 - 1e-6) > nl.singular_threshold()


@pytest.mark.parametrize("nl", FAMILIES, ids=lambda nl: f"{nl.family}-p{nl.p}")
def test_derivatives_match_finite_differences(nl):
    hs = 1e-6
    for s in (0.1, 0.4, 0.7, 0.9):
        fd1 = (nl.value(s + hs) - nl.value(s - hs)) / (2 * hs)
        fd2 = (nl.value(s + hs) - 2 * nl.value(s) + nl.value(s - hs)) / hs ** 2
        assert abs(nl.deriv(s) - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(nl.deriv2(s) - fd2) <= 1e-4 * max(1.0, abs(fd2))


@pytest.mark.parametrize("nl", FAMILIES, ids=lambda nl: f"{nl.family}-p{nl.p}")
def test_antiderivative_matches_quadrature(nl):
    for s in (0.2, 0.5, 0.8):
        ref, _ = quad(nl.value, 0.0, s, epsabs=1e-12, epsrel=1e-12)
        assert abs(nl.antideriv(s) - ref) <= 1e-8 * max(1.0, abs(ref))
    assert nl.antideriv(0.0) == 0.0


def test_power_two_closed_forms():
    nl = Nonlinearity("power", p=2.0)
    assert nl.value(0.5) == 4.0
    assert nl.antideriv(0.5) == pytest.approx(1.0, rel=1e-14)
    assert nl.deriv(0.0) == 2.0
    assert nl.at_zero == 1.0


def test_family_values_at_zero():
    assert Nonlinearity("log").at_zero == 1.0
    assert Nonlinearity("exp").at_zero == pytest.approx(np.e, rel=1e-15)
    assert Nonlinearity("power", p=2.5).at_zero == 1.0
    assert Nonlinearity("power", p=2.5).deriv(0.0) == 2.5


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        Nonlinearity("cubic")


def test_profiles_sample_positive():
    g = interval(0.0, 1.0, 49)
    for prof in (Profile("constant", c=2.0),
                 Profile("bump", c=1.0, width=6.0),
                 Profile("powerdist", kappa=1.5)):
        vals = prof.sample(g)
        assert vals.shape == (g.n_total,)
        assert np.all(vals > 0.0)


def test_constant_profile_value():
    g = interval(0.0, 1.0, 9)
    np.testing.assert_array_equal(Profile("constant", c=3.5).sample(g), 3.5)


def test_bump_profile_peaks_at_center():
    g = interval(0.0, 1.0, 99)
    vals = Profile("bump", c=1.0, width=8.0).sample(g)
    assert np.argmax(vals) == g.n_total // 2
    assert vals.max() <= 1.0 + 1e-15


def test_profile_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        Profile("constant", c=-1.0)


def test_param_point_requires_positive_amplitudes():
    with pytest.raises(ValueError):
        ParamPoint(-1.0, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(1.0, 0.0)


@pytest.mark.parametrize("cls, kwargs", [
    (Nonlinearity, dict(family="power", p=math.inf)),
    (Nonlinearity, dict(family="log", p=math.nan)),
    (Profile, dict(family="constant", c=math.inf)),
    (Profile, dict(family="constant", c=math.nan)),
    (Profile, dict(family="bump", width=math.inf)),
    (Profile, dict(family="constant", width=math.nan)),
    (Profile, dict(family="powerdist", kappa=math.inf)),
    (Profile, dict(family="bump", center=(0.5, math.nan))),
    (ParamPoint, dict(lam=math.inf, mu=1.0)),
    (ParamPoint, dict(lam=1.0, mu=math.inf)),
], ids=["power-p-inf", "log-p-nan", "c-inf", "c-nan", "bump-width-inf", "width-nan",
        "kappa-inf", "center-nan", "lam-inf", "mu-inf"])
def test_non_finite_parameters_are_rejected(cls, kwargs):
    # Each of these used to construct: a power family with p = inf evaluates
    # f(0) to nan, a constant weight of c = inf passed the hypothesis checks
    # (and put the analytic nonexistence bound at 0), and a bump of infinite
    # width weights its centre node with nan.
    with pytest.raises(ValueError, match="finite"):
        cls(**kwargs)


def _toy_model():
    nl = Nonlinearity("power", p=2.0)
    return Model(f=nl, g=nl, alpha=Profile("constant"), beta=Profile("constant"))


def test_validate_hypotheses_clean_model():
    g = interval(0.0, 1.0, 19)
    report = validate_hypotheses(_toy_model(), g)
    assert report.ok
    assert report.failures == ()
    # Steep powers overflow on the lattice: p = 60 at 1 - 1e-6, p = 160
    # already at 0.99.  Overflow is not a violation.
    for p in (60.0, 160.0):
        nl = Nonlinearity("power", p=p)
        steep = Model(f=nl, g=nl, alpha=Profile("constant"), beta=Profile("constant"))
        assert validate_hypotheses(steep, g).failures == ()


def test_validate_hypotheses_flags_trivial_weight():
    g = interval(0.0, 1.0, 19)
    nl = Nonlinearity("power", p=2.0)
    bad = Model(f=nl, g=nl, alpha=Profile("constant", c=0.0), beta=Profile("constant"))
    report = validate_hypotheses(bad, g)
    assert not report.ok
    assert any("alpha" in msg for msg in report.failures)


def _missing():
    raise ValueError("no such steady state")


def test_pair_flags_u0_out_of_range():
    g = interval(0.0, 1.0, 19)
    high = np.full(g.n_total, 1.5), np.zeros(g.n_total)
    with pytest.raises(ValueError, match="u0 leaves the admissible range"):
        InitialData("scaled_minimal", s=1.0).pair(g, lambda: high, _missing)
    with pytest.raises(ValueError, match="u0 leaves the admissible range"):
        InitialData("sine", amp=(1.5, 0.5)).pair(g, _missing, _missing)


def test_materialize_zero_and_scaled():
    g = interval(0.0, 1.0, 19)
    w = 0.5 * np.ones(g.n_total)
    u0, v0 = InitialData("zero").pair(g, _missing, _missing)
    np.testing.assert_array_equal(u0, 0.0)
    np.testing.assert_array_equal(v0, 0.0)
    u0, v0 = InitialData("scaled_minimal", s=0.5).pair(g, lambda: (w, w), _missing)
    np.testing.assert_allclose(u0, 0.25)


def test_materialize_combinations():
    g = interval(0.0, 1.0, 19)
    lo = 0.1 * np.ones(g.n_total)
    hi = 0.6 * np.ones(g.n_total)
    u0, _ = InitialData("convex_combo", s=0.25).pair(g, lambda: (lo, lo), lambda: (hi, hi))
    # s weights the minimal state, 1-s the second one
    np.testing.assert_allclose(u0, 0.25 * 0.1 + 0.75 * 0.6)
    u0, _ = InitialData("above_second", eps=0.1).pair(g, lambda: (lo, lo), lambda: (hi, hi))
    np.testing.assert_allclose(u0, 1.1 * 0.6 - 0.1 * 0.1)


def test_materialize_requires_context():
    # a recipe built on a missing state gets its lookup's error
    g = interval(0.0, 1.0, 19)
    with pytest.raises(ValueError):
        InitialData("scaled_minimal", s=0.5).pair(g, _missing, _missing)
    with pytest.raises(ValueError):
        InitialData("convex_combo", s=0.5).pair(
            g, lambda: (np.zeros(g.n_total), np.zeros(g.n_total)), _missing)


def test_materialize_explicit_validates_shape():
    # states handed to a recipe are checked against the grid
    g = interval(0.0, 1.0, 19)
    with pytest.raises(ValueError):
        InitialData("scaled_minimal").pair(g, lambda: (np.zeros(5), np.zeros(5)), _missing)


@pytest.mark.parametrize("kind, built_on", [
    ("zero", []), ("sine", []), ("scaled_minimal", ["minimal"]),
    ("convex_combo", ["minimal", "second"]), ("above_second", ["minimal", "second"])])
def test_pair_calls_only_the_states_it_is_built_on(kind, built_on):
    g = interval(0.0, 1.0, 19)
    calls = []

    def state(name, level):
        def lookup():
            calls.append(name)
            return np.full(g.n_total, level), np.full(g.n_total, level)
        return lookup

    u0, v0 = InitialData(kind).pair(g, state("minimal", 0.1), state("second", 0.6))
    assert calls == built_on
    assert u0.shape == v0.shape == (g.n_total,)


@pytest.mark.parametrize("kind, field, value, message", [
    ("scaled_minimal", "s", 1.5, "scaled_minimal needs s in [0, 1], got 1.5"),
    ("convex_combo", "s", 1.0, "convex_combo needs s in (0, 1), got 1.0"),
    ("above_second", "eps", 0.0, "above_second needs eps > 0, got 0.0"),
    ("explicit", "s", 0.5, "unknown initial-data recipe 'explicit'")])
def test_initial_data_checks_its_own_parameters(kind, field, value, message):
    with pytest.raises(ValueError) as info:
        InitialData(kind, **{field: value})
    assert str(info.value) == message
    # a parameter the recipe does not read is not checked
    InitialData("zero", s=1.5, eps=0.0)
