"""Quench-time bound, decay-rate certificate, case classification."""

import numpy as np
import pytest

from conftest import power2_model, unit_stack
from quenchlab import (
    ConfigError,
    InitialData,
    InsufficientDecayError,
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    StepperConfig,
    TerminalStatus,
    Trajectory,
    classify_case,
    integrate,
    quench_time_bound,
    rate_certificate,
    simulate,
    verify_quench_bound,
)


def log_model() -> Model:
    nl = Nonlinearity("log")
    return Model(f=nl, g=nl, alpha=Profile("constant"), beta=Profile("constant"))


def synthetic_trajectory(times, dist2):
    n = len(times)
    zeros = np.zeros(n)
    return Trajectory(times=np.asarray(times, dtype=float), max_u=zeros,
                      max_v=zeros, ut_l2=zeros, vt_l2=zeros, utvt=zeros,
                      energy=zeros, dist2_u=0.5 * np.asarray(dist2),
                      dist2_v=0.5 * np.asarray(dist2), dt=zeros, snapshots=(),
                      status=TerminalStatus.HORIZON, quench=None,
                      config=StepperConfig(), horizon=float(times[-1]),
                      final_u=zeros, final_v=zeros)


def test_rate_fit_recovers_synthetic_exponential():
    t = np.linspace(0.0, 8.0, 400)
    trj = synthetic_trajectory(t, 5.0 * np.exp(-3.0 * t))
    cert = rate_certificate(trj, 2.0, 4.0)
    assert cert.fitted_rate == pytest.approx(3.0, abs=1e-10)
    assert cert.prefactor == pytest.approx(5.0, rel=1e-9)
    assert cert.gamma_certified == 2.0
    assert cert.passes
    assert cert.window[0] < cert.window[1] <= 8.0
    assert cert.n_points >= 5


def test_rate_constants_formulas():
    t = np.linspace(0.0, 8.0, 400)
    trj = synthetic_trajectory(t, 5.0 * np.exp(-3.0 * t))
    cert = rate_certificate(trj, 1.0, 10.0)
    assert cert.gamma_claimed == pytest.approx(min(2.0 * 1.0, 10.0 / 2.0))
    assert cert.gamma_certified == pytest.approx(min(1.0, 10.0 / 2.0))
    assert cert.gamma_claimed > cert.gamma_certified
    assert cert.note  # the two constants differ; the report must say why


def test_rate_fit_failure_when_slow():
    t = np.linspace(0.0, 8.0, 400)
    trj = synthetic_trajectory(t, 5.0 * np.exp(-3.0 * t))
    cert = rate_certificate(trj, 40.0, 200.0)  # demands rate >= 38
    assert not cert.passes


def test_rate_rejects_insufficient_decay():
    t = np.linspace(0.0, 2.0, 50)
    with pytest.raises(InsufficientDecayError):
        rate_certificate(synthetic_trajectory(t, np.full(50, 3.0)), 1.0, 1.0)
    with pytest.raises(InsufficientDecayError):
        rate_certificate(synthetic_trajectory(t, np.zeros(50)), 1.0, 1.0)
    short = np.linspace(0.0, 8.0, 4)
    with pytest.raises(InsufficientDecayError):
        rate_certificate(synthetic_trajectory(short, 5.0 * np.exp(-3.0 * short)),
                         1.0, 1.0)


def _flagship(stack):
    g, op, eig = stack
    x = g.coordinates()[:, 0]
    u0 = 0.9 * np.sin(np.pi * x)
    return g, op, eig, u0


def test_quench_bound_closed_form():
    stack = unit_stack(99)
    g, _, eig, u0 = _flagship(stack)
    model = log_model()
    params = ParamPoint(20.0, 20.0)
    bound = quench_time_bound(u0, u0, g, model, params)
    lam1, phi = eig
    k_alpha = integrate(phi / model.alpha.sample(g), g)
    mass = integrate(u0 * phi, g)
    assert bound.lam1 == lam1
    assert bound.k_alpha == pytest.approx(k_alpha, rel=1e-14)
    assert bound.mass_u == pytest.approx(mass, rel=1e-14)
    assert bound.threshold_u == pytest.approx(lam1 * k_alpha / 20.0, rel=1e-14)
    assert bound.applicable
    expect = (1.0 / lam1) * np.log((20.0 - lam1 * k_alpha)
                                   / (20.0 - lam1 * k_alpha / mass))
    assert bound.bound_u == pytest.approx(expect, rel=1e-12)
    assert bound.best == pytest.approx(min(bound.bound_u, bound.bound_v), rel=1e-14)


def test_quench_bound_decreases_with_stronger_forcing():
    # raising f(0) from 1 to e (log -> exp family) tightens the bound
    stack = unit_stack(99)
    g, _, _, u0 = _flagship(stack)
    params = ParamPoint(20.0, 20.0)
    nl_exp = Nonlinearity("exp")
    hot = Model(f=nl_exp, g=nl_exp, alpha=Profile("constant"),
                beta=Profile("constant"))
    b_log = quench_time_bound(u0, u0, g, log_model(), params)
    b_exp = quench_time_bound(u0, u0, g, hot, params)
    assert b_exp.applicable and b_log.applicable
    assert b_exp.bound_u < b_log.bound_u


def test_quench_bound_inapplicable_from_rest():
    stack = unit_stack(99)
    g, _, _ = stack
    zero = np.zeros(g.n_total)
    bound = quench_time_bound(zero, zero, g, log_model(), ParamPoint(20.0, 20.0))
    assert not bound.applicable
    assert bound.mass_u == 0.0


def test_verify_quench_bound_branches():
    stack = unit_stack(99)
    g, _, _, u0 = _flagship(stack)
    model = log_model()
    params = ParamPoint(20.0, 20.0)
    bound = quench_time_bound(u0, u0, g, model, params)

    quenched = simulate((u0, u0), g, model, params, StepperConfig(), 1.0)
    assert quenched.status is TerminalStatus.QUENCHED
    check = verify_quench_bound(quenched, bound)
    assert check.passes
    assert check.observed_time <= 1.05 * bound.best

    # observed quench with an inapplicable bound: nothing to contradict
    zero = np.zeros(g.n_total)
    zbound = quench_time_bound(zero, zero, g, power2_model(),
                               ParamPoint(12.0, 12.0))
    zrun = simulate((zero, zero), g, power2_model(), ParamPoint(12.0, 12.0),
                    StepperConfig(), 1.0)
    zcheck = verify_quench_bound(zrun, zbound)
    assert not zbound.applicable
    assert zcheck.passes and zcheck.note

    # an applicable bound with a run cut off before quenching must fail
    stalled = simulate((u0, u0), g, model, params, StepperConfig(), 1e-5)
    assert stalled.status is TerminalStatus.HORIZON
    assert not verify_quench_bound(stalled, bound).passes


def test_classify_all_cases():
    stack = unit_stack(99)
    g, _, _ = stack
    model = power2_model()

    report = classify_case(g, model, ParamPoint(0.5, 0.5), InitialData.zero())
    assert report.case == "a1"
    assert report.membership.status == "in-lambda"
    assert not report.bound.applicable

    report = classify_case(g, model, ParamPoint(12.0, 12.0), InitialData.zero())
    assert report.case == "b"
    assert report.membership.status == "not-in-lambda"

    report = classify_case(g, model, ParamPoint(1.0, 1.0),
                           InitialData.convex_combo(0.5))
    assert report.case == "a21"
    assert report.second is not None

    report = classify_case(g, model, ParamPoint(1.0, 1.0),
                           InitialData.above_second(0.05))
    assert report.case == "a22"

    x = g.coordinates()[:, 0]
    u0 = 0.9 * np.sin(np.pi * x)
    report = classify_case(g, log_model(), ParamPoint(20.0, 20.0),
                           InitialData.explicit(u0, u0))
    assert report.case == "c"
    assert report.bound.applicable


def test_classify_searches_second_state_only_when_needed(monkeypatch):
    import quenchlab.certificates as certificates

    calls = []
    search = certificates.second_solution_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(certificates, "second_solution_search", counted)
    g, _, _ = unit_stack(99)
    model = power2_model()

    # data below the minimal state: a1 is decided without a second state
    for recipe in (InitialData.zero(), InitialData.scaled_minimal(0.5)):
        report = classify_case(g, model, ParamPoint(0.5, 0.5), recipe)
        assert report.case == "a1"
        assert report.second is None
    assert calls == []

    # recipes built on the second state, and data above the minimal state
    params = ParamPoint(1.0, 1.0)
    minimal = classify_case(g, model, params, InitialData.zero()).membership.solution
    for recipe, case in ((InitialData.convex_combo(0.5), "a21"),
                         (InitialData.above_second(0.05), "a22"),
                         (InitialData.explicit(1.5 * minimal.w, 1.5 * minimal.z), "a21")):
        report = classify_case(g, model, params, recipe)
        assert report.case == case
        assert report.second is not None
    assert len(calls) == 3


def test_classify_undetermined_membership():
    stack = unit_stack(99)
    g, _, _ = stack
    report = classify_case(g, power2_model(), ParamPoint(1.0, 1.0),
                           InitialData.zero(),
                           tol_stat=1e-16, max_iter=3)
    assert report.case == "none-established"
    assert report.membership.status == "undetermined"


def test_classify_rejects_impossible_recipe():
    stack = unit_stack(99)
    g, _, _ = stack
    with pytest.raises(ConfigError):
        classify_case(g, power2_model(), ParamPoint(12.0, 12.0),
                      InitialData.scaled_minimal(0.5))
