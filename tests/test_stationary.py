"""Monotone construction, membership verdicts, curve trace, mass bounds."""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen
import oracles
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
    assemble_linearization,
    integrate,
    interval,
    mass_bound_check,
    monotone_minimal_solution,
    principal_eigenpair,
    principal_laplacian_eigenpair,
    rectangle,
    second_solution_search,
    solve_poisson,
    stationary,
    trace_critical_curve,
)
from quenchlab.spectra import CoupledBand


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


@pytest.mark.parametrize("n, profile, lam, solve_fails",
                         [(15, "powerdist", 8.74, False), (15, "constant", 0.72, True)],
                         ids=["overflowing-solution", "inf-source"])
def test_exp_overflow_is_iterate_escape(monkeypatch, n, profile, lam, solve_fails):
    # exp(1/(1-s)) leaves the float range near s = 0.9986, below the escape
    # level.  A finite source of order 1e184, whose squares overflow, gives a
    # solution the backward-error check still passes, and that iterate
    # escapes; an inf source fails the last Picard solve, and the diagonal
    # bound x + b/diag(A) proves escape instead.
    g = interval(0.0, 1.0, n)
    model = Model(f=Nonlinearity("exp"), g=Nonlinearity("exp"),
                  alpha=Profile(profile), beta=Profile(profile))
    calls = _spy_solves(monkeypatch)
    verdict = monotone_minimal_solution(g, model, ParamPoint(lam, lam))
    assert isinstance(verdict, NotInLambda)
    assert verdict.evidence == "iterate-escape"
    assert verdict.detail["max_value"] >= 1.0 - verdict.detail["delta_blow"]
    assert verdict.detail["iteration"] == len(calls)
    assert [exc is not None for _, exc in calls] == [False] * (len(calls) - 1) + [solve_fails]


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
    # exact values of this search, so the Newton kernel cannot drift silently
    assert second.iterations == 7
    assert second.final_change == 2.2025118156984478e-07
    assert float(second.w.max()) == 0.651034422638678


def _scalar_system(value, slope, calls=None, converged=lambda r: False):
    """system(x) for the damped-Newton kernel from scalar F and F'."""
    def system(x):
        if calls is not None:
            calls.append(float(x[0]))
        r = np.array([value(x[0])])
        d = slope(x[0])
        return r, converged(r), lambda: None if d == 0.0 else (lambda rhs: rhs / d)
    return system


def _always(_):
    return True


def test_damped_newton_failures():
    newton = stationary._damped_newton
    x0 = np.array([1.0])
    singular = _scalar_system(lambda x: x, lambda x: 0.0)
    assert newton(x0, singular, _always, steps=5, floor=0.5) is None
    overflow = _scalar_system(lambda x: 1e300, lambda x: 1e-300)
    assert newton(x0, overflow, _always, steps=5, floor=0.5) is None
    # no admissible trial: t = 1, 1/2, 1/4, 1/8 are tried, then the floor stops it
    tried = []
    def never(x):
        tried.append(float(x[0]))
        return False
    assert newton(x0, _scalar_system(lambda x: x, lambda x: 1.0), never,
                  steps=5, floor=2.0**-3) is None
    assert tried == [0.0, 0.5, 0.75, 0.875]
    # F(x) = x + 1 reports no convergence: the cap stops it after 3 steps
    calls = []
    assert newton(x0, _scalar_system(lambda x: x + 1.0, lambda x: 1.0, calls),
                  _always, steps=3, floor=0.5) is None
    assert calls == [1.0, -1.0, -1.0, -1.0]


def test_singular_banded_factor_is_a_failed_step():
    # One node, A = [8]: M = [[8, -8], [-8, 8]] leaves an exactly zero
    # second pivot, and a nan coupling factors but gives a nan step; either
    # ends the search in None, with no exception and no warning
    g = interval(0.0, 1.0, 1)
    band = CoupledBand(g, 2)
    for coupling, pivot_zero in ((-8.0, True), (np.nan, False)):
        couplings = [(0, 1, np.array([coupling])), (1, 0, np.array([-8.0]))]
        assert (band.factor(couplings) is None) == pivot_zero

        def system(x):
            return x - 1.0, False, lambda: band.factor(couplings)
        assert stationary._damped_newton(np.zeros(2), system, _always, steps=5,
                                         floor=0.5) is None


def test_damped_newton_root_and_sufficient_decrease():
    newton = stationary._damped_newton
    found = newton(np.array([0.0]),
                   _scalar_system(lambda x: x - 3.0, lambda x: 1.0,
                                  converged=lambda r: r[0] == 0.0),
                   _always, steps=3, floor=0.5)
    x, residual, taken, change = found
    assert (x[0], residual[0], taken, change) == (3.0, 0.0, 1, 3.0)
    # Newton on arctan from 2 overshoots to -3.53, where |arctan| is larger:
    # undamped, the full step is taken; with the decrease test it is
    # rejected for the half step, and the iteration converges
    def arctan(calls):
        return _scalar_system(np.arctan, lambda x: 1.0 / (1.0 + x * x), calls,
                              converged=lambda r: abs(r[0]) <= 1e-12)
    calls = []
    assert newton(np.array([2.0]), arctan(calls), _always, steps=1, floor=0.5) is None
    assert calls == pytest.approx([2.0, -3.54], abs=0.01)
    calls = []
    found = newton(np.array([2.0]), arctan(calls), _always, steps=40,
                   floor=2.0**-12, decrease=0.25)
    assert calls[:3] == pytest.approx([2.0, -3.54, -0.77], abs=0.01)
    assert abs(found[0][0]) <= 1e-12


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


def _decline_fold_bound(monkeypatch):
    """Make the fold bound decline everywhere, so that every fold candidate's
    upper end goes to the escape verdicts."""
    monkeypatch.setattr(stationary, "_fold_bound", lambda *args, **kwargs: np.inf)


def _spy_curve(monkeypatch):
    """Records the fold Newton's starts and the membership verdicts of a trace
    by lam: (lam, start mu) and (lam, mu)."""
    starts, probes = [], []
    fold_newton, membership = stationary._fold_newton, stationary.monotone_minimal_solution

    def spy_newton(grid, model, lam, start, **kwargs):
        starts.append((lam, start.mu))
        return fold_newton(grid, model, lam, start, **kwargs)

    def spy_membership(grid, model, params, **kwargs):
        probes.append((params.lam, params.mu))
        return membership(grid, model, params, **kwargs)

    monkeypatch.setattr(stationary, "_fold_newton", spy_newton)
    monkeypatch.setattr(stationary, "monotone_minimal_solution", spy_membership)
    return starts, probes


def test_curve_fold_first_falls_back(monkeypatch):
    g, _, _ = unit_stack(49)
    model = power2_model()
    _, mu_bar = analytic_nonexistence_bound(g, model)
    lams = [0.5, 1.0]
    plain = trace_critical_curve(g, model, lams, bisect_tol=5e-3).samples

    # The warm fold fails its supersolution check at lam = 1: the sample is
    # halved, and the cold Newton from the halving's lower end certifies it.
    starts, probes = _spy_curve(monkeypatch)
    check = stationary._is_supersolution
    rejected = []

    def reject_first_at_1(grid, model, params, w, z, **kwargs):
        if params.lam == 1.0 and not rejected:
            rejected.append(params.mu)
            return False
        return check(grid, model, params, w, z, **kwargs)

    monkeypatch.setattr(stationary, "_is_supersolution", reject_first_at_1)
    curve = trace_critical_curve(g, model, lams, bisect_tol=5e-3)
    first, second = curve.samples
    assert first == plain[0] and second.certificate == "fold"
    (warm, cold) = [mu for lam, mu in starts if lam == 1.0]
    assert warm == pytest.approx(first.mu_critical, rel=1e-14)  # the fold of lam = 0.5
    halving = [mu for lam, mu in probes if lam == 1.0]
    assert halving[0] == mu_bar / 2.0 and cold == halving[-1]
    assert second.evaluations == len(halving) + 3
    assert second.mu_critical == pytest.approx(plain[1].mu_critical, rel=1e-12)

    # The fold bound declines and the escape checks fail (Undetermined or
    # InLambda): every sample is halved, then bisected, and its bracket is honest.
    monkeypatch.setattr(stationary, "_is_supersolution", check)
    escapes = []  # the upper ends mu_f (1 + d) left to an escape verdict

    def decline(grid, model, lam, fold):
        escapes.append(ParamPoint(lam, fold.mu * (1.0 + 5e-3 / 4.0)))
        return np.inf

    monkeypatch.setattr(stationary, "_fold_bound", decline)
    spied = stationary.monotone_minimal_solution  # _spy_curve's
    for outcome in ("undetermined", "in-lambda"):
        def failing(grid, model, params, **kwargs):
            if params not in escapes:
                return spied(grid, model, params, **kwargs)
            return (spied(grid, model, ParamPoint(params.lam, params.mu / 2.0), **kwargs)
                    if outcome == "in-lambda" else Undetermined(1, 1.0, "forced"))

        monkeypatch.setattr(stationary, "monotone_minimal_solution", failing)
        del starts[:], probes[:], escapes[:]
        curve = trace_critical_curve(g, model, lams, bisect_tol=5e-3)
        assert [p.lam for p in escapes][:2] == lams  # then the two intercepts'
        for s in curve.samples:
            assert (s.certificate, s.status) == ("bisection", "ok")
            assert s.bracket_hi - s.bracket_lo <= 5e-3 * s.bracket_hi
            assert (s.lam, mu_bar / 2.0) in probes
            assert isinstance(monotone_minimal_solution(
                g, model, ParamPoint(s.lam, s.bracket_lo), max_iter=100_000), InLambda)
            assert isinstance(monotone_minimal_solution(
                g, model, ParamPoint(s.lam, s.bracket_hi), max_iter=100_000), NotInLambda)
        assert [lam for lam, _ in starts if lam in lams] == [0.5, 1.0]  # warm at 1.0


def test_supersolution_check_unit_cases():
    # the fold at lam = 1, from the minimal solution at mu = 1 as a cold start
    g, _, _ = unit_stack(49)
    model = power2_model()
    sol = monotone_minimal_solution(g, model, ParamPoint(1.0, 1.0)).solution
    _, phi = principal_laplacian_eigenpair(g.laplacian)
    phi = phi * (g.n_total / phi.sum())
    start = stationary._Fold(w=sol.w, z=sol.z, phi=phi, psi=phi, mu=1.0)
    fold = stationary._fold_newton(g, model, 1.0, start, band=CoupledBand(g, 4),
                                   tol_res=1e-8, delta_blow=1e-4)
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


@pytest.mark.parametrize("bisect_tol", [0.0, -1.0, 1.0])
def test_curve_rejects_bisect_tol_outside_unit_interval(bisect_tol):
    # at 0 the bisection never shrinks below adjacent doubles
    g, _, _ = unit_stack(49)
    with pytest.raises(ValueError, match="bisect_tol"):
        trace_critical_curve(g, power2_model(), [0.5], bisect_tol=bisect_tol)


def test_curve_wide_bracket_survives_fold_newton(monkeypatch):
    # 40 iterations decide the halving probes but neither the escape check
    # next to the fold nor the bisection midpoints near it; the fold bound,
    # which needs no iteration, declines
    _decline_fold_bound(monkeypatch)
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


def _verdict_record(verdict):
    """Everything a verdict carries, with arrays as bytes."""
    if isinstance(verdict, InLambda):
        s = verdict.solution
        return ("in", s.params, s.iterations, s.final_change, s.residual_w, s.residual_z,
                s.w.tobytes(), s.z.tobytes())
    if isinstance(verdict, NotInLambda):
        return ("not", verdict.evidence, repr(verdict.detail))
    return ("undetermined", verdict.iterations, verdict.last_change, verdict.hint)


# Fractions t of the analytic box (t lam_bar, 0.9 t mu_bar): in-Lambda within
# the budget (0.02), over it (0.1 or 0.2), escaping, beyond the box (1.01),
# and, with exp, one point per grid and profile whose source overflows below
# the escape level (0.5565 to 0.8095).
_BATCH_FRACTIONS = (0.02, 0.1, 0.2, 0.5, 0.9, 1.01, 0.8095, 0.6975, 0.7725, 0.5565)

# sha256 (first 16 hex digits) of repr([_verdict_record(v) ...]) over the
# verdicts at every fraction with budget 12, then 10,000, as the m-point block
# iteration that the one-point iteration replaced wrote them, all points in
# one block per budget (its lone verdicts had the same digests); Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, x86-64.  The exp digests of
# (constant, 1), (constant, 2) and (bump, 2) were rewritten when the
# backward-error check began to scale rows whose squares overflow: the one
# point of each whose source is finite but past 1e154 now escapes with the
# iterate's own max_value instead of the diagonal bound after a failed solve
# (same iteration, same evidence); no other record changed.
_VERDICT_DIGESTS = {
    ("log", "constant", 1): "508dc6e22809c7af", ("log", "constant", 2): "32f3273d0673c006",
    ("log", "bump", 1): "72cb3f09637db874", ("log", "bump", 2): "138cede06d2d890b",
    ("exp", "constant", 1): "7e76e8293bfdbe64", ("exp", "constant", 2): "5482e96b934facb0",
    ("exp", "bump", 1): "b0a12c07da5d155f", ("exp", "bump", 2): "1517cfea1ab36d35",
    ("power", "constant", 1): "0e713db9835a06cc", ("power", "constant", 2): "d4a8d59fae2267e8",
    ("power", "bump", 1): "c420e7a4974e15fa", ("power", "bump", 2): "f5f470608678e04a",
}


@pytest.mark.parametrize("family", ["log", "exp", "power"])
@pytest.mark.parametrize("profile", ["constant", "bump"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_batched_verdicts_equal_lone_verdicts(monkeypatch, family, profile, dimension):
    g = interval(0.0, 1.0, 49) if dimension == 1 else rectangle((0.0, 1.0), (0.0, 1.0), 15, 7)
    nl = Nonlinearity(family)
    model = Model(f=nl, g=nl, alpha=Profile(profile), beta=Profile(profile))
    lam_bar, mu_bar = analytic_nonexistence_bound(g, model)
    points = [ParamPoint(t * lam_bar, 0.9 * t * mu_bar) for t in _BATCH_FRACTIONS]
    calls = _spy_solves(monkeypatch)
    records = []
    for max_iter in (12, 10_000):
        del calls[:]
        verdicts = [monotone_minimal_solution(g, model, p, tol_stat=1e-10, max_iter=max_iter,
                                              delta_blow=1e-4, tol_res=1e-8) for p in points]
        records += [_verdict_record(v) for v in verdicts]
        # an inf source fails its point's one solve, and escape is proved
        # without it; a finite source past 1e154 is checked like any other
        failed = [exc for _, exc in calls if exc is not None]
        assert failed == ([ValueError] if (family, profile, dimension) == ("exp", "bump", 1)
                          else [])
        if max_iter == 12:
            kinds = {(v.status, getattr(v, "evidence", None)) for v in verdicts}
            assert kinds == {("in-lambda", None), ("undetermined", None),
                             ("not-in-lambda", "iterate-escape"),
                             ("not-in-lambda", "analytic-bound")}
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == _VERDICT_DIGESTS[family, profile, dimension]


def _bmat_fold_matrices(g, model, lam, w, z, phi, psi, mu):
    """The fold Newton's M and extended Jacobian assembled by sp.bmat, the
    reference for its banded bordered step."""
    n = g.n_total
    alpha, beta = model.alpha.sample(g), model.beta.sample(g)
    lin = oracles.linearization_matrix(assemble_linearization(g, model, ParamPoint(lam, mu),
                                                              w, z))
    zeros = np.zeros(n)
    curvature = sp.diags([-mu * beta * model.g.deriv2(w) * phi,
                          -lam * alpha * model.f.deriv2(z) * psi],
                         [-n, n], shape=(2 * n, 2 * n))
    extended = sp.bmat(
        [[lin, None, np.concatenate([zeros, -beta * model.g.value(w)])[:, None]],
         [curvature, lin, np.concatenate([zeros, -beta * model.g.deriv(w) * phi])[:, None]],
         [None, sp.csr_matrix(np.ones((1, 2 * n))), None]], format="csc")
    return lin, extended


@pytest.mark.parametrize("family", ["log", "exp", "power"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_fold_step_matches_sparse_lu(family, dimension, monkeypatch):
    # The banded bordered step solves the extended Jacobian that sp.bmat
    # assembles, at a cold start and at the converged fold (where M is
    # singular), for the Newton right-hand side and a generic one; in 2D with
    # nx > ny and nx < ny, the two orientations of the node ordering
    grids = ([interval(0.0, 1.0, 49)] if dimension == 1
             else [rectangle((0.0, 2.0), (0.0, 1.0), 11, 7),
                   rectangle((0.0, 1.0), (0.0, 2.0), 7, 11)])
    nl = Nonlinearity(family)
    model = Model(f=nl, g=nl, alpha=Profile("bump"), beta=Profile("powerdist"))
    rng = np.random.default_rng(7)
    systems = []
    newton = stationary._damped_newton
    monkeypatch.setattr(stationary, "_damped_newton",
                        lambda x, system, *a, **k: systems.append(system) or newton(x, system, *a, **k))
    for g in grids:
        n = g.n_total
        lam_bar, mu_bar = analytic_nonexistence_bound(g, model)
        lam, mu = 0.3 * lam_bar, mu_bar / 2.0
        while not isinstance(verdict := monotone_minimal_solution(g, model, ParamPoint(lam, mu)),
                             InLambda):
            mu /= 2.0  # the halving of the curve trace
        sol = verdict.solution
        _, phi = principal_laplacian_eigenpair(g.laplacian)
        phi = phi * (n / phi.sum())
        cold = stationary._Fold(w=sol.w, z=sol.z, phi=phi, psi=phi, mu=mu)
        fold = stationary._fold_newton(g, model, lam, cold, band=CoupledBand(g, 4),
                                       tol_res=1e-8, delta_blow=1e-4)
        assert fold is not None
        for state, at_fold in ((cold, False), (fold, True)):
            x = np.concatenate([state.w, state.z, state.phi, state.psi, [state.mu]])
            residual, converged, factor = systems[-1](x)
            assert converged == at_fold
            solve = factor()
            _, extended = _bmat_fold_matrices(g, model, lam, *x[:4 * n].reshape(4, n), x[-1])
            for rhs in (-residual, rng.standard_normal(4 * n + 1)):
                exact = spla.spsolve(extended, rhs)
                assert np.abs(solve(rhs) - exact).max() <= 1e-12 * np.abs(exact).max()


def _spy_fold_bound(monkeypatch, mutate=None):
    """Records each fold bound of a trace as (model, lam, fold, delta, y), y
    the pairing vector (psi, phi) of the fold it was given (the lam
    intercept's model is the swapped one); ``mutate`` replaces that fold."""
    records, bound = [], stationary._fold_bound

    def spy_bound(grid, model, lam, fold):
        given = fold if mutate is None else mutate(fold)
        delta = bound(grid, model, lam, given)
        records.append((model, lam, fold, delta, np.concatenate([given.psi, given.phi])))
        return delta

    monkeypatch.setattr(stationary, "_fold_bound", spy_bound)
    return records


def test_curve_samples_do_not_depend_on_the_fold_bound(monkeypatch):
    # where the bound certifies the upper end, the escape verdict would too
    g, _, _ = unit_stack(49)
    lams = [0.3, 0.7, 1.1, 1.5]
    records = _spy_fold_bound(monkeypatch)
    bounded = trace_critical_curve(g, power2_model(), lams, bisect_tol=5e-3).samples
    assert [s.certificate for s in bounded] == ["fold"] * 4
    assert all(delta < 1.25e-3 * fold.mu for _, _, fold, delta, _ in records)
    _decline_fold_bound(monkeypatch)
    assert trace_critical_curve(g, power2_model(), lams, bisect_tol=5e-3).samples == bounded


_FAMILIES, _PROFILES = ["log", "exp", "power"], ["constant", "bump", "powerdist"]


@settings(max_examples=30, deadline=None)
@given(f=st.sampled_from(_FAMILIES), g_family=st.sampled_from(_FAMILIES),
       alpha=st.sampled_from(_PROFILES), beta=st.sampled_from(_PROFILES),
       dimension=st.sampled_from([1, 2]), a=st.floats(0.05, 0.95))
def test_fold_bound_certifies_only_nonexistence(f, g_family, alpha, beta, dimension, a):
    # Wherever the bound certifies mu_f (1 + d), d = bisect_tol / 4, it is a
    # finite delta >= 0 from a y >= 0, and the monotone iterates escape there.
    g = _GRIDS[dimension]
    model = Model(f=Nonlinearity(f), g=Nonlinearity(g_family),
                  alpha=Profile(alpha), beta=Profile(beta))
    lam_bar, _ = analytic_nonexistence_bound(g, model)
    with pytest.MonkeyPatch.context() as patch:
        records = _spy_fold_bound(patch)
        trace_critical_curve(g, model, [a * lam_bar])
    for model, lam, fold, delta, y in records:
        if delta < 2.5e-4 * fold.mu:
            assert 0.0 <= delta < np.inf and y.min() >= 0.0
            above = monotone_minimal_solution(g, model, ParamPoint(lam, fold.mu * (1.0 + 2.5e-4)),
                                              max_iter=200_000)
            assert isinstance(above, NotInLambda)


def _flipped(fold):
    return dataclasses.replace(fold, phi=-fold.phi, psi=-fold.psi)


def _right_null_vector(fold):
    """The fold with phi and psi swapped: y = (phi, psi), M's null vector."""
    return dataclasses.replace(fold, phi=fold.psi, psi=fold.phi)


_ASYMMETRIC = Model(f=Nonlinearity("power"), g=Nonlinearity("exp"),
                    alpha=Profile("bump"), beta=Profile("powerdist"))


@pytest.mark.parametrize("mutate", [_flipped, _right_null_vector])
def test_fold_bound_mutations_decline_or_agree(monkeypatch, mutate):
    # A wrong pairing vector must not certify a point that admits a steady
    # state.  On an asymmetric model M and M^T differ (M^T is M with its
    # fields swapped), so the right null vector is no left one.
    g, _, _ = unit_stack(49)
    records = _spy_fold_bound(monkeypatch, mutate)
    curve = trace_critical_curve(g, _ASYMMETRIC, [0.3, 1.0])
    assert len(records) >= 2
    assert [s.status for s in curve.samples] == ["ok", "ok"]
    for model, lam, fold, delta, y in records:
        assert y.max() > 0.0 if mutate is _right_null_vector else y.max() < 0.0
        if delta < 2.5e-4 * fold.mu:
            above = monotone_minimal_solution(g, model, ParamPoint(lam, fold.mu * (1.0 + 2.5e-4)),
                                              max_iter=200_000)
            assert isinstance(above, NotInLambda)


def test_fold_pairing_vector_is_the_left_null_vector(monkeypatch):
    # (psi_f, phi_f) spans the dense left null space of M at the fold, and
    # (phi_f, psi_f), its right null vector, does not on an asymmetric model.
    g, _, _ = unit_stack(49)
    records = _spy_fold_bound(monkeypatch)
    trace_critical_curve(g, _ASYMMETRIC, [0.3, 1.0])
    assert len(records) >= 2
    for model, lam, fold, _, _ in records:
        lin = assemble_linearization(g, model, ParamPoint(lam, fold.mu), fold.w, fold.z)
        u, sigma, _ = np.linalg.svd(oracles.linearization_matrix(lin).toarray())
        left = u[:, -1] * np.sign(u[:, -1].sum())
        assert sigma[-1] < 1e-6 * sigma[-2]
        swapped = np.concatenate([fold.psi, fold.phi])
        assert np.abs(swapped / np.linalg.norm(swapped) - left).max() <= 1e-6
        right = np.concatenate([fold.phi, fold.psi])
        assert np.abs(right / np.linalg.norm(right) - left).max() > 1e-2


def test_curve_certifies_tight_brackets_by_the_fold():
    # At bisect_tol 1e-6 the escape checks just above the folds run out of
    # budget; the fold bound still certifies the upper ends without iterating.
    g, _, _ = unit_stack(49)
    model = power2_model()
    curve = trace_critical_curve(g, model, [0.5, 1.0], bisect_tol=1e-6)
    assert [(s.certificate, s.status) for s in curve.samples] == [("fold", "ok")] * 2
    assert all(isinstance(monotone_minimal_solution(g, model, ParamPoint(s.lam, s.bracket_lo),
                                                    max_iter=100_000), InLambda)
               for s in curve.samples)



def _spy_starts(monkeypatch, forge=None):
    """Records each fold Newton of a trace as (lam, kind, fold, factorizations),
    kind "cold" (phi is psi, from the halving), "warm" (a fold an earlier
    Newton returned, the polishing start included) or "guess" (the secant
    prediction); ``forge(start)`` replaces a guess, None refuses it."""
    records, returned, fold_newton = [], [], stationary._fold_newton

    def spy(grid, model, lam, start, *, band, **kwargs):
        kind = ("cold" if start.phi is start.psi
                else "warm" if any(start is f for f in returned) else "guess")
        before = band.factorizations
        if kind == "guess" and forge is not None:
            start = forge(start)
        fold = None if start is None else fold_newton(grid, model, lam, start, band=band, **kwargs)
        if fold is not None:
            returned.append(fold)
        records.append((lam, kind, fold, band.factorizations - before))
        return fold

    monkeypatch.setattr(stationary, "_fold_newton", spy)
    return records


def _refused(start):
    return None


@pytest.mark.parametrize("lams", [[0.3, 0.7, 1.1, 1.5], [1.5, 1.1, 0.7, 0.3],
                                  [0.5, 1.0, 1.0, 1.5], [1.0, 1.0, 1.5, 0.3]],
                         ids=["ascending", "descending", "repeated", "repeated-first"])
def test_curve_secant_starts_keep_statuses_and_certificates(monkeypatch, lams):
    # Against the trace whose guesses are all refused (each sample's Newton
    # from the previous fold): the same statuses, certificates and
    # evaluations, the folds within 1e-9, and no more Newton steps.  Where
    # the last two samples share their lam, no guess is made.
    g, _, _ = unit_stack(49)
    model = power2_model()
    with pytest.MonkeyPatch.context() as patch:
        _spy_starts(patch, forge=_refused)
        plain = trace_critical_curve(g, model, lams, bisect_tol=5e-3).samples
    records = _spy_starts(monkeypatch)
    curve = trace_critical_curve(g, model, lams, bisect_tol=5e-3).samples
    assert [(s.status, s.certificate) for s in curve] == [("ok", "fold")] * len(lams)
    assert [s.evaluations for s in curve] == [s.evaluations for s in plain]
    for s, p in zip(curve, plain):
        assert s.mu_critical == pytest.approx(p.mu_critical, rel=1e-9)
    assert sum(s.newton_steps for s in curve) <= sum(s.newton_steps for s in plain)
    guesses = [lam for lam, kind, _, _ in records if kind == "guess"]
    assert guesses == [lam for k, lam in enumerate(lams) if k >= 2 and lams[k - 1] != lams[k - 2]]
    assert all(fold is not None for _, kind, fold, _ in records if kind == "guess")


def _leave_range(field, side):
    """A forge moving one field of the guess just out of [0, 1 - delta_blow):
    its max onto the escape level, or its min below 0."""
    def forge(start):
        x = getattr(start, field)
        moved = x + (1.0 - 1e-4 - x.max()) if side == "above" else x - x.min() - 1e-3
        return dataclasses.replace(start, **{field: moved})
    return forge


@pytest.mark.parametrize("forge", [
    _refused, _leave_range("w", "above"), _leave_range("z", "above"),
    _leave_range("w", "below"), _leave_range("z", "below"),
    lambda start: dataclasses.replace(start, mu=-start.mu)],
    ids=["newton-fails", "w-above", "z-above", "w-below", "z-below", "mu-negative"])
def test_curve_refused_guess_falls_back_to_the_previous_fold(monkeypatch, forge):
    # A guess outside the range takes no step, and a failed one leaves the
    # sample to the Newton from the previous fold: no halving, the
    # evaluations and certificates of the trace without guesses.
    g, _, _ = unit_stack(49)
    model = power2_model()
    lams = [0.3, 0.7, 1.1, 1.5]
    records = _spy_starts(monkeypatch, forge=forge)
    curve = trace_critical_curve(g, model, lams, bisect_tol=5e-3).samples
    assert [(s.status, s.certificate) for s in curve] == [("ok", "fold")] * 4
    assert [s.evaluations for s in curve[1:]] == [2, 2, 2]
    sampled = [(lam, kind, fold, steps) for lam, kind, fold, steps in records if lam in lams]
    assert [kind for _, kind, _, _ in sampled] == ["cold", "warm", "guess", "warm", "guess", "warm"]
    for lam, kind, fold, steps in sampled:
        if kind == "guess":
            assert fold is None
            if forge is not _refused:
                assert steps == 0
    for s in curve:
        assert s.newton_steps == sum(steps for lam, _, _, steps in sampled if lam == s.lam)


def test_curve_polishes_a_fold_the_bound_misses():
    # exp at bisect_tol 1e-6 (configs/curve.ini's grid): the fold at lam 2.15,
    # predicted from 1.85 and 2.0, converges with residuals that leave the
    # bound's delta above mu_f d; one more Newton step brings it below, and
    # the sample stays fold-certified, as from the previous fold's start.
    g = interval(0.0, 1.0, 99)
    model = Model(f=Nonlinearity("exp"), g=Nonlinearity("exp"),
                  alpha=Profile("constant"), beta=Profile("constant"))
    with pytest.MonkeyPatch.context() as patch:
        bounds = _spy_fold_bound(patch)
        curve = trace_critical_curve(g, model, [1.85, 2.0, 2.15], bisect_tol=1e-6).samples
    assert [(s.status, s.certificate) for s in curve] == [("ok", "fold")] * 3
    missed, polished = [(fold, delta) for _, lam, fold, delta, _ in bounds if lam == 2.15]
    assert 2.5e-7 * missed[0].mu <= missed[1] < np.inf
    assert polished[1] < 2.5e-7 * polished[0].mu
    assert curve[2].evaluations == 4  # the supersolution and the bound, each twice
    assert curve[2].mu_critical == polished[0].mu


def test_curve_newton_steps_count_the_band_factorizations(monkeypatch):
    # newton_steps is the fold Jacobian's factorizations while the sample
    # was traced: the polishing step included, forced here at lam 1.1 by a
    # bound that misses once
    g, _, _ = unit_stack(49)
    lams = [0.3, 0.7, 1.1, 1.5]
    current, counts, factor = [None], {}, CoupledBand.factor
    fold_newton, fold_bound = stationary._fold_newton, stationary._fold_bound

    def spy_newton(grid, model, lam, start, **kwargs):
        current[0] = lam
        return fold_newton(grid, model, lam, start, **kwargs)

    def spy_factor(self, couplings):
        counts[current[0]] = counts.get(current[0], 0) + 1
        return factor(self, couplings)

    def miss_once(grid, model, lam, fold):
        if lam == 1.1 and not missed:
            missed.append(fold)
            return fold.mu
        return fold_bound(grid, model, lam, fold)

    missed = []
    monkeypatch.setattr(stationary, "_fold_newton", spy_newton)
    monkeypatch.setattr(CoupledBand, "factor", spy_factor)
    monkeypatch.setattr(stationary, "_fold_bound", miss_once)
    curve = trace_critical_curve(g, power2_model(), lams, bisect_tol=5e-3).samples
    assert [s.newton_steps for s in curve] == [counts[lam] for lam in lams]
    assert [s.evaluations for s in curve[1:]] == [2, 4, 2]
    assert curve[2].certificate == "fold" and curve[2].mu_critical != missed[0].mu


def test_curve_secant_starts_on_the_shipped_curve():
    # configs/curve.ini's 16 samples: 53 fold Newton steps from the previous
    # folds alone, at most 42 with the secant starts
    g = interval(0.0, 1.0, 99)
    lams = [0.2 + 0.15 * k for k in range(16)]
    curve = trace_critical_curve(g, power2_model(), lams).samples
    assert [s.certificate for s in curve] == ["fold"] * 16
    assert sum(s.newton_steps for s in curve) <= 42

# Down to 1e-7 below the fold, where nu1 ~ 5e-3 and eigen stops at the
# rounding floor of M x, above its relative tolerance.
_EPSILONS = (3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7)


@pytest.mark.parametrize("f, g_family, alpha, lam", [
    ("power", "power", "constant", 0.5), ("log", "log", "constant", 0.5),
    ("exp", "exp", "constant", 0.5), ("power", "exp", "bump", 0.3)])
def test_nu1_squared_vanishes_linearly_at_the_fold(f, g_family, alpha, lam):
    # At a simple fold nu1 ~ C sqrt(mu_f - mu) on the minimal branch: the
    # Newton fold, the Picard minimal states and inverse iteration for nu1
    # must agree on where nu1^2 reaches 0.
    g = interval(0.0, 1.0, 99)
    model = Model(f=Nonlinearity(f), g=Nonlinearity(g_family),
                  alpha=Profile(alpha), beta=Profile("constant"))
    (sample,) = trace_critical_curve(g, model, [lam]).samples
    points = [ParamPoint(lam, sample.mu_critical * (1.0 - eps)) for eps in _EPSILONS]
    # Picard takes up to 14,578 iterations at 1e-7
    minimal = [monotone_minimal_solution(g, model, p, max_iter=20_000).solution for p in points]
    nus = np.array([principal_eigenpair(assemble_linearization(g, model, p, s.w, s.z)).nu1
                    for p, s in zip(points, minimal)])
    assert np.all(nus > 0.0)
    (mu_a, mu_b), (sq_a, sq_b) = [p.mu for p in points[-2:]], nus[-2:] ** 2
    zero = mu_b + sq_b * (mu_b - mu_a) / (sq_a - sq_b)
    assert sample.bracket_lo < zero < sample.bracket_hi
    ratios = np.diff(nus / np.sqrt(_EPSILONS))
    assert np.all(ratios > 0.0) or np.all(ratios < 0.0)


@pytest.mark.parametrize("grid", [interval(0.0, 1.0, 13), rectangle((0.0, 2.0), (0.0, 1.0), 7, 5)],
                         ids=["interval", "rectangle"])
def test_steady_residual_is_one_stacked_product(grid):
    # A w and A z come from one product on the stacked pair; the residuals
    # equal the per-field formula bit for bit, and a non-finite w or z raises
    model, params = power2_model(), ParamPoint(0.7, 1.3)
    rng = np.random.default_rng(6)
    w, z = 0.5 * rng.random(grid.n_total), 0.5 * rng.random(grid.n_total)
    fw, fz, _ = stationary._steady_residual(grid, model, params, w, z, 1e-8)
    op = grid.laplacian
    assert np.array_equal(fw, op.apply(w) - 0.7 * model.alpha.sample(grid) * model.f.value(z))
    assert np.array_equal(fz, op.apply(z) - 1.3 * model.beta.sample(grid) * model.g.value(w))
    for which in (0, 1):
        pair = [w.copy(), z.copy()]
        pair[which][3] = np.nan
        with pytest.raises(ValueError):
            stationary._steady_residual(grid, model, params, *pair, 1e-8)
