"""Monotone construction, membership verdicts, curve trace, mass bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    interval,
    mass_bound_check,
    monotone_minimal_solution,
    ordered_triple_artifact,
    principal_laplacian_eigenpair,
    rectangle,
    second_solution_search,
    solve_poisson,
    stationary,
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


def _spy_solves(monkeypatch):
    """Replace stationary's solve_poisson by a wrapper; returns the list of
    (rhs shape, exception type or None) it records per call."""
    calls = []
    original = stationary.solve_poisson

    def spy(op, rhs, **kwargs):
        try:
            out = original(op, rhs, **kwargs)
        except Exception as exc:
            calls.append((np.shape(rhs), type(exc)))
            raise
        calls.append((np.shape(rhs), None))
        return out

    monkeypatch.setattr(stationary, "solve_poisson", spy)
    return calls


@pytest.mark.parametrize("params", [ParamPoint(1.0, 1.2), ParamPoint(3.0, 3.0)],
                         ids=["in-lambda", "iterate-escape"])
def test_one_block_solve_per_picard_iteration(unit99, monkeypatch, params):
    g, _, _ = unit99
    calls = _spy_solves(monkeypatch)
    seen = []
    monotone_minimal_solution(g, power2_model(), params,
                              iterate_hook=lambda it, w, z: seen.append(it))
    assert len(calls) == len(seen) == seen[-1]
    assert {shape for shape, _ in calls} == {(g.n_total, 2)}


@pytest.mark.parametrize("n, profile, lam", [(15, "powerdist", 8.74), (15, "constant", 0.72)],
                         ids=["overflowing-solution", "inf-source"])
def test_exp_overflow_is_iterate_escape(monkeypatch, n, profile, lam):
    # exp(1/(1-s)) leaves the float range near s = 0.9986, below the escape
    # level: the last Picard solve fails (backward error nan from an
    # overflowing solution, or an inf source), and the diagonal bound
    # x + b/diag(A) proves escape instead.
    g = interval(0.0, 1.0, n)
    model = Model(f=Nonlinearity("exp"), g=Nonlinearity("exp"),
                  alpha=Profile(profile), beta=Profile(profile))
    calls = _spy_solves(monkeypatch)
    verdict = monotone_minimal_solution(g, model, ParamPoint(lam, lam))
    assert isinstance(verdict, NotInLambda)
    assert verdict.evidence == "iterate-escape"
    assert verdict.detail["max_value"] >= 1.0 - verdict.detail["delta_blow"]
    assert verdict.detail["iteration"] == len(calls)
    assert calls[-1][1] is not None and all(exc is None for _, exc in calls[:-1])


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


def test_curve_brackets_are_honest(monkeypatch):
    # Each end of a certified bracket agrees with the membership verdict
    # there, and the fold lies inside the bracket bisection alone finds.
    g, _, _ = unit_stack(49)
    model = power2_model()
    lams = [0.3, 0.7, 1.1, 1.5]
    curve = trace_critical_curve(g, model, lams, bisect_tol=5e-3)
    for s in curve.samples:
        # certified by the fold: the bracket is mu_f (1 -+ bisect_tol / 4)
        assert s.bracket_hi - s.bracket_lo == pytest.approx(2.5e-3 * s.mu_critical, rel=1e-9)
        above = monotone_minimal_solution(g, model, ParamPoint(s.lam, s.bracket_hi),
                                          max_iter=2000)
        assert isinstance(above, NotInLambda)
        below = monotone_minimal_solution(g, model, ParamPoint(s.lam, s.bracket_lo),
                                          max_iter=100_000)
        assert isinstance(below, InLambda)
    monkeypatch.setattr(stationary, "_fold_newton", lambda *args, **kwargs: None)
    plain = trace_critical_curve(g, model, lams, bisect_tol=5e-3)
    for s, p in zip(curve.samples, plain.samples):
        assert p.status == "ok"
        assert p.bracket_lo < s.mu_critical < p.bracket_hi


def test_supersolution_check_unit_cases():
    # the fold at lam = 1, from the minimal solution at mu = 1 as a cold start
    g, _, _ = unit_stack(49)
    model = power2_model()
    sol = monotone_minimal_solution(g, model, ParamPoint(1.0, 1.0)).solution
    _, phi = principal_laplacian_eigenpair(g.laplacian)
    phi = phi * (g.n_total / phi.sum())
    start = stationary._Fold(w=sol.w, z=sol.z, phi=phi, psi=phi, mu=1.0)
    fold = stationary._fold_newton(g, model, 1.0, start, tol_res=1e-8, delta_blow=1e-4)
    assert fold is not None
    delta = 2.5e-4
    below = ParamPoint(1.0, fold.mu * (1.0 - delta))
    w, z = fold.lifted(model, delta)
    assert stationary._is_supersolution(g, model, below, w, z)
    # the same pair is no supersolution above the fold
    assert not stationary._is_supersolution(g, model, ParamPoint(1.0, fold.mu * (1.0 + delta)),
                                            w, z)

    # A touching = 1 / max(A^{-1} 1) = 8 exceeds lam f(z) at every node, so
    # only the range check can reject this pair
    bubble = solve_poisson(g.laplacian, np.ones(g.n_total))
    touching = bubble / bubble.max()
    assert touching.max() == 1.0
    assert np.all(g.laplacian.apply(touching) > below.lam * model.f.value(z))
    assert not stationary._is_supersolution(g, model, below, touching, z)

    # lower w at one node until A w - lam alpha f(z) there is minus half its
    # slack; the neighbours and the z equation only gain
    op = g.laplacian
    slack = op.apply(w) - below.lam * model.alpha.sample(g) * model.f.value(z)
    node = 17
    short = w.copy()
    short[node] -= 0.75 * slack[node] * g.h[0] ** 2
    new_slack = op.apply(short) - below.lam * model.alpha.sample(g) * model.f.value(z)
    assert np.flatnonzero(new_slack <= 0.0).tolist() == [node]
    assert not stationary._is_supersolution(g, model, below, short, z)


_GRIDS = {1: unit_stack(15)[0], 2: rectangle((0.0, 1.0), (0.0, 1.0), 7, 5)}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["log", "exp", "power"]),
       profile=st.sampled_from(["constant", "bump", "powerdist"]),
       dimension=st.sampled_from([1, 2]),
       a=st.floats(0.01, 0.2), b=st.floats(0.01, 0.2),
       c=st.floats(0.9, 1.1), s=st.floats(0.5, 1.1))
def test_supersolution_check_implies_membership(family, profile, dimension, a, b, c, s):
    # Candidates: the minimal pair at (lam1, mu1), scaled by c, offered as a
    # supersolution at s (lam1, mu1).
    g = _GRIDS[dimension]
    nl = Nonlinearity(family)
    model = Model(f=nl, g=nl, alpha=Profile(profile), beta=Profile(profile))
    lam_bar, mu_bar = analytic_nonexistence_bound(g, model)
    first = monotone_minimal_solution(g, model, ParamPoint(a * lam_bar, b * mu_bar))
    if not isinstance(first, InLambda):
        return
    w, z = c * first.solution.w, c * first.solution.z
    params = ParamPoint(s * a * lam_bar, s * b * mu_bar)
    if stationary._is_supersolution(g, model, params, w, z):
        verdict = monotone_minimal_solution(g, model, params, max_iter=100_000)
        assert isinstance(verdict, InLambda)
        # the comparison argument: the minimal pair lies below the candidate
        assert np.all(verdict.solution.w <= w + 1e-12)
        assert np.all(verdict.solution.z <= z + 1e-12)
    if c <= 1.0 < s - 1e-3:
        # f(c z) >= c f(z): a solution scaled down is no supersolution above it
        assert not stationary._is_supersolution(g, model, params, w, z)


def test_curve_no_bracket_survives_fold_newton():
    # floor_factor near 1 leaves no halving probe above the floor
    g, _, _ = unit_stack(49)
    curve = trace_critical_curve(g, power2_model(), [0.5], floor_factor=0.9)
    (s,) = curve.samples
    assert s.status == "no-bracket" and s.evaluations == 0
    assert np.isnan(s.mu_critical)
    assert curve.lambda_star[0] == 0.0 and curve.mu_star[0] == 0.0


def test_curve_wide_bracket_survives_fold_newton():
    # 40 iterations decide the halving probes but neither the escape check
    # next to the fold nor the bisection midpoints near it
    g, _, _ = unit_stack(49)
    curve = trace_critical_curve(g, power2_model(), [0.5], max_iter=40,
                                 max_iter_doublings=0)
    (s,) = curve.samples
    assert s.status == "wide-bracket"
    assert s.bracket_hi - s.bracket_lo > 1e-3 * s.bracket_hi
    assert s.bracket_lo < s.mu_critical < s.bracket_hi


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
