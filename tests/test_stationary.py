"""Monotone construction, membership verdicts, curve trace, mass bounds."""

import numpy as np
import pytest

import frozen
from conftest import power2_model, unit_stack
from quenchlab import (
    InLambda,
    Model,
    Nonlinearity,
    NotInLambda,
    ParamPoint,
    Profile,
    Undetermined,
    analytic_nonexistence_bound,
    integrate,
    mass_bound_check,
    monotone_minimal_solution,
    ordered_triple_artifact,
    second_solution_search,
    trace_critical_curve,
)


def test_first_iterate_closed_form(unit99):
    # from rest the first update solves -w'' = lam * f(0) = 0.5, whose
    # discrete solution is exactly 0.25 x (1-x)
    g, _, _ = unit99
    captured = []
    monotone_minimal_solution(g, power2_model(), ParamPoint(0.5, 0.5),
                              iterate_hook=lambda i, w, z: captured.append(w.copy()))
    x = g.coordinates()[:, 0]
    np.testing.assert_allclose(captured[0], 0.25 * x * (1.0 - x), atol=1e-11)
    mid = g.n_total // 2
    assert captured[0][mid] == pytest.approx(0.0625, abs=1e-11)


def test_iterates_nondecreasing_and_converged(unit99):
    g, _, _ = unit99
    prev = {}
    def watch(_, w, z):
        if prev:
            assert np.all(w >= prev["w"])
            assert np.all(z >= prev["z"])
        prev["w"], prev["z"] = w.copy(), z.copy()
    verdict = monotone_minimal_solution(g, power2_model(), ParamPoint(1.0, 1.2),
                                        iterate_hook=watch)
    assert isinstance(verdict, InLambda)
    s = verdict.solution
    assert s.residual <= 1e-8
    assert max(s.w.max(), s.z.max()) < 1.0
    assert s.iterations > 0 and s.final_change <= 1e-10


def test_minimal_peak_matches_scalar_reduction(unit199):
    # symmetric case collapses to the scalar problem integrated in
    # oracles.py; discretization error at this h is ~1e-6
    g, _, _ = unit199
    for lam, peak in frozen.MINIMAL_PEAK_POWER2.items():
        s = monotone_minimal_solution(g, power2_model(), ParamPoint(lam, lam)).solution
        assert s.w.max() == pytest.approx(peak, abs=1e-4)
        np.testing.assert_allclose(s.w, s.z, atol=1e-12)


def test_peak_monotone_in_parameters(unit99):
    g, _, _ = unit99
    peaks = []
    for lam in (0.4, 0.8, 1.2):
        s = monotone_minimal_solution(g, power2_model(), ParamPoint(lam, lam)).solution
        peaks.append(s.w.max())
    assert peaks[0] < peaks[1] < peaks[2]


def test_analytic_box_values(unit99):
    g, _, _ = unit99
    nl = Nonlinearity("power", p=2.0)
    lam_bar, mu_bar = analytic_nonexistence_bound(
        g, power2_model())
    assert lam_bar == pytest.approx(np.pi ** 2, rel=1e-3)
    assert mu_bar == lam_bar
    # doubling the weight halves the box edge
    heavy = Model(f=nl, g=nl, alpha=Profile("constant", c=2.0),
                  beta=Profile("constant"))
    lam2, _ = analytic_nonexistence_bound(g, heavy)
    assert lam2 == pytest.approx(lam_bar / 2.0, rel=1e-12)
    # f(0) = e shrinks it by e
    hot = Model(f=Nonlinearity("exp"), g=nl, alpha=Profile("constant"),
                beta=Profile("constant"))
    lam3, _ = analytic_nonexistence_bound(g, hot)
    assert lam3 == pytest.approx(lam_bar / np.e, rel=1e-12)


def test_nonexistence_by_analytic_box(unit99):
    g, _, _ = unit99
    verdict = monotone_minimal_solution(g, power2_model(), ParamPoint(10.5, 0.3))
    assert isinstance(verdict, NotInLambda)
    assert verdict.evidence == "analytic-bound"


def test_nonexistence_by_iterate_escape(unit99):
    # lam = 3 sits inside the analytic box but beyond the fold, so only the
    # escaping iteration can certify it
    g, _, _ = unit99
    verdict = monotone_minimal_solution(g, power2_model(), ParamPoint(3.0, 3.0))
    assert isinstance(verdict, NotInLambda)
    assert verdict.evidence == "iterate-escape"


def test_undetermined_on_tiny_budget(unit99):
    g, _, _ = unit99
    verdict = monotone_minimal_solution(g, power2_model(), ParamPoint(1.0, 1.0),
                                        tol_stat=1e-16, max_iter=3)
    assert isinstance(verdict, Undetermined)
    assert verdict.iterations == 3
    assert verdict.last_change > 0.0


def test_second_solution_upper_branch(unit199):
    g, _, _ = unit199
    params = ParamPoint(1.0, 1.0)
    minimal = monotone_minimal_solution(g, power2_model(), params).solution
    second = second_solution_search(g, power2_model(), params, minimal)
    assert second is not None
    assert second.w.max() == pytest.approx(frozen.SECOND_PEAK_POWER2[1.0], abs=1e-4)
    assert float((second.w - minimal.w).min()) >= 0.0
    assert second.residual <= 1e-8


def test_second_solution_rejects_minimal_rediscovery(unit199):
    # seeding at the minimal state's own height collapses the search onto
    # the minimal branch, which must be reported as no second solution
    g, _, _ = unit199
    params = ParamPoint(1.0, 1.0)
    minimal = monotone_minimal_solution(g, power2_model(), params).solution
    hit = second_solution_search(g, power2_model(), params, minimal,
                                 seed_amplitude=float(minimal.w.max()))
    assert hit is None


def test_curve_trace_brackets_and_monotonicity():
    g, _, _ = unit_stack(49)
    curve = trace_critical_curve(g, power2_model(), [0.3, 0.7, 1.1, 1.5],
                                 bisect_tol=5e-3)
    assert len(curve.samples) == 4
    for s in curve.samples:
        assert s.status == "ok"
        assert s.bracket_lo <= s.mu_critical <= s.bracket_hi
        assert s.bracket_hi - s.bracket_lo <= 5e-3 * s.bracket_hi * (1 + 1e-12)
    assert curve.is_non_increasing()
    mus = [s.mu_critical for s in curve.samples]
    assert mus == sorted(mus, reverse=True)
    lo, hi = curve.lambda_star
    assert 0.0 < lo <= hi


def test_mass_bound_on_minimal_solution(unit99):
    g, _, eig = unit99
    model = power2_model()
    params = ParamPoint(0.5, 0.5)
    s = monotone_minimal_solution(g, model, params).solution
    report = mass_bound_check(s.w, s.z, g, model, params)
    assert report.passes
    # recompute the advertised bound from its ingredients
    lam1, phi = eig
    k_alpha = integrate(phi / model.alpha.sample(g), g)
    assert report.bound_w == pytest.approx(lam1 * k_alpha / (0.5 * model.f.at_zero),
                                           rel=1e-12)
    assert report.mass_w == pytest.approx(integrate(s.w * phi, g), rel=1e-12)
    assert report.mass_w < report.bound_w


def test_ordered_triple_artifact(unit99):
    g, _, _ = unit99
    params = ParamPoint(1.0, 1.0)
    minimal = monotone_minimal_solution(g, power2_model(), params).solution
    second = second_solution_search(g, power2_model(), params, minimal)
    assert second is not None
    mid = (0.5 * (minimal.w + second.w), 0.5 * (minimal.z + second.z))
    assert ordered_triple_artifact(g, (minimal.w, minimal.z), mid,
                                   (second.w, second.z))
    # a non-strict sandwich is not a third solution
    assert not ordered_triple_artifact(g, (minimal.w, minimal.z),
                                       (minimal.w, minimal.z),
                                       (second.w, second.z))
