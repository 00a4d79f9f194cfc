"""Quench-time bound, decay-rate certificate, case classification."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import power2_model, rebind, unit_stack
from quenchlab import (
    InitialData,
    InLambda,
    InsufficientDecayError,
    Model,
    Nonlinearity,
    NotInLambda,
    ParamPoint,
    Profile,
    StepperConfig,
    TerminalStatus,
    Trajectory,
    Undetermined,
    classify_case,
    integrate,
    mass_bound_check,
    monotone_minimal_solution,
    quench_time_bound,
    rate_certificate,
    second_solution_search,
    simulate,
    solve_poisson,
    verify_quench_bound,
)
from quenchlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_quench_bound_with_a_vanishing_weight_uses_the_other_side():
    # alpha = exp(-1e4 |x - 1/2|^2) underflows to 0 near the boundary: K_alpha
    # is inf, so the u side asserts nothing and the beta side alone applies
    stack = unit_stack(99)
    g, _, eig, u0 = _flagship(stack)
    nl = Nonlinearity("log")
    model = Model(f=nl, g=nl, alpha=Profile("bump", width=1e4), beta=Profile("constant"))
    assert model.alpha.sample(g).min() == 0.0
    bound = quench_time_bound(u0, u0, g, model, ParamPoint(20.0, 20.0))
    assert bound.k_alpha == np.inf and bound.threshold_u == np.inf
    assert bound.bound_u is None and bound.bound_v is not None
    same = quench_time_bound(u0, u0, g, log_model(), ParamPoint(20.0, 20.0))
    assert bound.bound_v == same.bound_v and bound.best == same.bound_v
    # and the steady-state mass bound on that side passes vacuously
    s = monotone_minimal_solution(g, model, ParamPoint(0.5, 0.5)).solution
    report = mass_bound_check(s.w, s.z, g, model, ParamPoint(0.5, 0.5))
    assert report.bound_w == np.inf and report.passes


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


def classify(g, model, params, initial, search=second_solution_search,
             **membership_kwargs):
    """The verdict, and classify_case fed as the certify command feeds it:
    that verdict, the initial pair (a recipe's, or one given as is), and a
    second-state search run at most once, first for recipes built on the
    second state."""
    verdict = monotone_minimal_solution(g, model, params, **membership_kwargs)
    minimal = verdict.solution if isinstance(verdict, InLambda) else None
    find_second = functools.cache(lambda: search(g, model, params, minimal))
    if isinstance(initial, InitialData):
        initial = initial.pair(g, lambda: (minimal.w, minimal.z),
                               lambda: (find_second().w, find_second().z))
    return verdict, classify_case(g, model, params, verdict, initial, find_second)


def test_classify_all_cases():
    stack = unit_stack(99)
    g, _, _ = stack
    model = power2_model()

    verdict, report = classify(g, model, ParamPoint(0.5, 0.5), InitialData("zero"))
    assert report.case == "a1"
    assert verdict.status == "in-lambda"
    assert not report.bound.applicable

    verdict, report = classify(g, model, ParamPoint(12.0, 12.0), InitialData("zero"))
    assert report.case == "b"
    assert verdict.status == "not-in-lambda"

    _, report = classify(g, model, ParamPoint(1.0, 1.0), InitialData("convex_combo", s=0.5))
    assert report.case == "a21"
    assert report.second is not None

    _, report = classify(g, model, ParamPoint(1.0, 1.0), InitialData("above_second", eps=0.05))
    assert report.case == "a22"

    x = g.coordinates()[:, 0]
    u0 = 0.9 * np.sin(np.pi * x)
    _, report = classify(g, log_model(), ParamPoint(20.0, 20.0), (u0, u0))
    assert report.case == "c"
    assert report.bound.applicable


def test_classify_searches_second_state_only_when_needed():
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return second_solution_search(*args, **kwargs)

    g, _, _ = unit_stack(99)
    model = power2_model()

    # data below the minimal state: a1 is decided without a second state
    for recipe in (InitialData("zero"), InitialData("scaled_minimal", s=0.5)):
        _, report = classify(g, model, ParamPoint(0.5, 0.5), recipe, counted)
        assert report.case == "a1"
        assert report.second is None
    assert calls == []

    # recipes built on the second state, and data above the minimal state
    params = ParamPoint(1.0, 1.0)
    minimal = monotone_minimal_solution(g, model, params).solution
    for recipe, case in ((InitialData("convex_combo", s=0.5), "a21"),
                         (InitialData("above_second", eps=0.05), "a22"),
                         ((1.5 * minimal.w, 1.5 * minimal.z), "a21")):
        _, report = classify(g, model, params, recipe, counted)
        assert report.case == case
        assert report.second is not None
    assert len(calls) == 3


def test_classify_undetermined_membership():
    stack = unit_stack(99)
    g, _, _ = stack
    verdict, report = classify(g, power2_model(), ParamPoint(1.0, 1.0),
                               InitialData("zero"), tol_stat=1e-16, max_iter=3)
    assert report.case == "none-established"
    assert verdict.status == "undetermined"


@pytest.mark.parametrize("verdict", [
    Undetermined(iterations=3, last_change=0.1, hint="budget exhausted"),
    NotInLambda(evidence="analytic-bound", detail={})])
def test_classify_without_a_steady_state_solves_nothing(verdict, monkeypatch):
    # the verdict decides b or none-established; no state is solved for
    def no_solve(*args, **kwargs):
        raise AssertionError("classify_case solved a linear system")

    rebind(monkeypatch, solve_poisson, no_solve)
    g, _, _ = unit_stack(99)
    zero = np.zeros(g.n_total)

    def no_second():
        raise AssertionError("classify_case searched for a second state")

    report = classify_case(g, power2_model(), ParamPoint(1.0, 1.0), verdict,
                           (zero, zero), no_second)
    assert report.case == ("b" if verdict.status == "not-in-lambda"
                           else "none-established")
    assert report.second is None


def test_classify_rejects_impossible_recipe(tmp_path, capsys):
    # scaled_minimal data at a point with no steady state: certify stops
    # before classifying, with a configuration error
    out = tmp_path / "out"
    assert main(["certify", "--config", str(CONFIGS / "forced_quench.ini"),
                 "--out", str(out), "--override", "domain.n=99",
                 "--override", "model.initial_kind=scaled_minimal"]) == 2
    error = json.load(open(out / "error.json"))["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == ("initial recipe 'scaled_minimal' needs a minimal "
                                "steady state, but the membership verdict is "
                                "'not-in-lambda'")
    capsys.readouterr()
