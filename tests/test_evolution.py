"""Time stepping, quench detection, energy identity."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import power2_model
from quenchlab import (
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    SolverBreakdownError,
    evolution,
    gradient_inner,
    StepperConfig,
    StepRangeError,
    TerminalStatus,
    integrate,
    interval,
    lyapunov_energy,
    monotone_minimal_solution,
    rectangle,
    simulate,
    step,
)


def _zeros(g):
    return np.zeros(g.n_total), np.zeros(g.n_total)


def fixed_config(dt, **kw):
    return StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, **kw)


def test_single_step_matches_dense_solve(unit99):
    # one implicit-diffusion/explicit-reaction step from rest, checked
    # against a dense factorization assembled from scratch
    g, op, eig = unit99
    model = power2_model()
    params = ParamPoint(0.5, 0.5)
    dt = 1e-3
    u0, v0 = _zeros(g)
    u1, v1 = step(u0, v0, dt, g, model, params)
    dense = np.eye(g.n_total) + dt * oracles.stencil(g).toarray()
    rhs = u0 + dt * 0.5 * model.alpha.sample(g) * model.f.value(v0)
    np.testing.assert_allclose(u1, np.linalg.solve(dense, rhs), atol=1e-13)
    np.testing.assert_allclose(v1, u1, atol=1e-15)


def test_step_range_error_on_oversized_step(unit99):
    # a huge implicit step from rest lands near the steady balance of the
    # forcing, whose peak at lam = 12 sits well above the singular level
    g, _, eig = unit99
    with pytest.raises(StepRangeError):
        step(*_zeros(g), 1.0, g, power2_model(), ParamPoint(12.0, 12.0))


def test_stationary_data_is_a_fixed_point(unit99):
    g, _, _ = unit99
    model = power2_model()
    params = ParamPoint(1.0, 1.0)
    s = monotone_minimal_solution(g, model, params).solution
    trj = simulate((s.w, s.z), g, model, params, StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.HORIZON
    drift = max(np.abs(trj.final_u - s.w).max(), np.abs(trj.final_v - s.z).max())
    assert drift < 1e-8


def test_monotone_growth_from_rest(unit99):
    g, _, eig = unit99
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.HORIZON
    assert np.all(np.diff(trj.max_u) >= -1e-12)
    assert np.all(np.diff(trj.energy) <= 1e-12)


def test_horizon_run_bookkeeping(unit99):
    g, _, eig = unit99
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   fixed_config(1e-2, snapshot_stride=7), 0.5)
    assert trj.times[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(trj.times) > 0.0)
    assert trj.n_steps == len(trj.times) - 1
    assert trj.quench is None
    assert np.isnan(trj.dist2_u).all()  # no reference supplied
    snap_times = [t for t, _, _ in trj.snapshots]
    assert snap_times[0] == 0.0
    assert snap_times[-1] == trj.times[-1]
    assert all(t in set(trj.times.tolist()) for t in snap_times)


def _spy_solves(monkeypatch):
    """Replace evolution's unchecked solve by a wrapper; returns the list of
    factors it was called with (kept alive, so their ids stay distinct)."""
    factors = []
    original = evolution._solve

    def spy(grid, factor, x, **kwargs):
        assert np.shape(x) == (2, grid.n_total)  # (u, v) as one block
        factors.append(factor)
        return original(grid, factor, x, **kwargs)

    monkeypatch.setattr(evolution, "_solve", spy)
    return factors


def test_fixed_step_run_solves_once_per_step(unit99, monkeypatch):
    g, _, _ = unit99
    ops = _spy_solves(monkeypatch)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   fixed_config(1e-2), 0.5)
    assert trj.n_steps == 50
    assert len(ops) == trj.n_steps


def test_half_step_pair_shares_one_shift(unit99, monkeypatch):
    # An adaptive trial step is one full step (its own factor of I + dt A, one
    # solve) and a pair of half steps (one factor, two solves).
    g, _, _ = unit99
    ops = _spy_solves(monkeypatch)
    shifts = []
    original = evolution._factor

    def spy_factor(grid, s, c):
        shifts.append((s, c, original(grid, s, c)))
        return shifts[-1][2]

    monkeypatch.setattr(evolution, "_factor", spy_factor)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.HORIZON
    uses = Counter(id(op) for op in ops)
    assert set(uses) == {id(op) for _, _, op in shifts}
    per_shift = Counter(uses.values())
    assert set(per_shift) == {1, 2}
    assert per_shift[1] == per_shift[2] >= trj.n_steps
    assert all(s == 1.0 for s, _, _ in shifts)
    assert all(half[1] == 0.5 * full[1] for half, full in zip(shifts[1::2], shifts[0::2]))


def _spy_reactions(monkeypatch):
    """Wrap Nonlinearity._value, which the reaction calls; returns the list of
    (nonlinearity id, argument bytes) of its calls."""
    calls = []
    original = Nonlinearity._value

    def spy(self, s):
        calls.append((id(self), np.asarray(s, dtype=float).tobytes()))
        return original(self, s)

    monkeypatch.setattr(Nonlinearity, "_value", spy)
    return calls


def _reactions_per_attempt(g, model, monkeypatch):
    """A horizon run's trajectory, its number of adaptive attempts (three
    solves each) and the calls of Nonlinearity._value it made."""
    ops = _spy_solves(monkeypatch)
    calls = _spy_reactions(monkeypatch)
    trj = simulate(_zeros(g), g, model, ParamPoint(0.5, 0.5), StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.HORIZON
    assert len(ops) % 3 == 0
    assert len(set(calls)) == len(calls)  # no state evaluated twice
    return trj, len(ops) // 3, calls


def test_reaction_evaluated_once_per_attempt(unit99, monkeypatch):
    # An adaptive attempt makes three solves (the full step and two half
    # steps) but evaluates f and g only at its start state, shared with every
    # other attempt from there, and at the half-step state.  With f == g one
    # call evaluates both, on the (v, u) block.
    g, _, _ = unit99
    model = power2_model()
    trj, attempts, calls = _reactions_per_attempt(g, model, monkeypatch)
    assert Counter(key for key, _ in calls) == {id(model.f): trj.n_steps + attempts}
    assert {len(arg) for _, arg in calls} == {2 * g.n_total * 8}


def test_reaction_evaluated_once_per_attempt_when_f_differs_from_g(unit99, monkeypatch):
    g, _, _ = unit99
    model = _weighted_model()
    trj, attempts, calls = _reactions_per_attempt(g, model, monkeypatch)
    assert Counter(key for key, _ in calls) == {id(model.f): trj.n_steps + attempts,
                                                id(model.g): trj.n_steps + attempts}
    assert {len(arg) for _, arg in calls} == {g.n_total * 8}


def test_quench_run_evaluates_each_state_once(unit99, monkeypatch):
    # Every attempt from an accepted state, the level bisections inside the
    # crossing step and the final partial step share one reaction there,
    # one call of f on the block (v, u) (f == g here).
    g, _, _ = unit99
    model = power2_model()
    calls = _spy_reactions(monkeypatch)
    trj = simulate(_zeros(g), g, model, ParamPoint(12.0, 12.0),
                   StepperConfig(snapshot_stride=1), 1.0)
    assert trj.status is TerminalStatus.QUENCHED
    calls = Counter(calls)
    assert len(trj.snapshots) == trj.n_steps + 1
    for _, u, v in trj.snapshots[:-1]:
        assert calls[(id(model.f), np.array([v, u]).tobytes())] == 1
    assert id(model.g) not in {key for key, _ in calls}


def test_quench_run_solves_each_system_once(unit99, monkeypatch):
    # In a symmetric run u and v cross each level in the same step, and the
    # bisections for successive levels share their first midpoints: each
    # step fraction is advanced once per crossing step.
    g, _, _ = unit99
    ops = _spy_solves(monkeypatch)
    rhs = []
    original = evolution._solve

    def spy(grid, factor, x, **kwargs):
        rhs.append((b"".join(part.tobytes() for part in factor), x.tobytes()))
        return original(grid, factor, x, **kwargs)

    monkeypatch.setattr(evolution, "_solve", spy)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0), StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED and trj.quench.which == "both"
    assert len(ops) == len(rhs) == len(set(rhs))


def test_crossing_machinery_runs_only_in_crossing_steps(unit99, monkeypatch):
    # The memoized advance of the level bisections is built in a step that
    # crosses a level, not in every accepted step: never in a run that stays
    # below the levels, and at most once per level in a symmetric quench.
    g, _, _ = unit99
    built = []
    original = evolution._memoized_advance

    def spy(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(evolution, "_memoized_advance", spy)
    simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5), StepperConfig(), 1.0)
    assert built == []
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0), StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED
    assert 1 <= len(built) <= 3


def test_memoized_advance_remembers_range_errors():
    calls = []

    def advance(w, react, dt):
        calls.append(dt)
        if dt > 0.5:
            raise StepRangeError(f"step of size {dt}")
        return w + np.array([dt, -dt])

    advance_by = evolution._memoized_advance(advance, np.array([1.0, 2.0]), None, 0.8)
    assert advance_by(0.5) is advance_by(0.5)
    assert advance_by(0.5).tolist() == [1.4, 1.6]
    for _ in range(2):
        with pytest.raises(StepRangeError):
            advance_by(1.0)
    assert calls == [0.4, 0.8]


@pytest.mark.parametrize("family", ["log", "exp", "power"])
def test_block_reaction_equals_row_reactions(family):
    # With f == g the kernel evaluates f once on the (v, u) block; each row
    # equals the per-component formula bit for bit, and the kernel's results
    # are new arrays, never views of its reused workspace.
    g = interval(0.0, 1.0, 49)
    nl = Nonlinearity(family, p=1.5)
    model = Model(f=nl, g=Nonlinearity(family, p=1.5), alpha=Profile("bump", c=1.2),
                  beta=Profile("powerdist", c=0.7))
    params = ParamPoint(0.9, 0.6)
    kernel = evolution._Kernel(g, model, params)
    w = np.random.default_rng(3).uniform(0.0, 0.99, (2, g.n_total))
    rows = np.array([params.lam * model.alpha.sample(g) * model.f._value(w[1]),
                     params.mu * model.beta.sample(g) * model.g._value(w[0])])
    react = kernel.reaction(w)
    assert react.tobytes() == rows.tobytes()
    low = 0.1 * w
    for out in kernel.attempt(low, kernel.reaction(low), 1e-4):
        assert not np.shares_memory(out, kernel.x) and not np.shares_memory(out, kernel.rhs)


def test_quench_run_snapshots_end_at_the_crossing(unit99):
    # The closing snapshot is the crossing state at the crossing time, once;
    # no second copy of it at the previous step's time.
    g, _, _ = unit99
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED
    times = [t for t, _, _ in trj.snapshots]
    assert np.all(np.diff(times) > 0.0)
    t, u, v = trj.snapshots[-1]
    assert t == trj.times[-1]
    assert u.tobytes() == trj.final_u.tobytes() and v.tobytes() == trj.final_v.tobytes()

def _weighted_model():
    return Model(f=Nonlinearity("log"), g=Nonlinearity("power", p=1.5),
                 alpha=Profile("bump", c=1.2, width=6.0),
                 beta=Profile("powerdist", c=2.0, kappa=0.5))


def test_fixed_step_simulate_equals_public_steps():
    g = interval(0.0, 1.0, 49)
    model, params = _weighted_model(), ParamPoint(0.9, 0.6)
    trj = simulate(_zeros(g), g, model, params, fixed_config(1e-2, snapshot_stride=1), 0.2)
    assert trj.n_steps == 20 and len(trj.snapshots) == 21
    u, v = _zeros(g)
    for dt, (t, us, vs) in zip(trj.dt[1:], trj.snapshots[1:]):
        u, v = step(u, v, dt, g, model, params)
        assert us.tobytes() == u.tobytes() and vs.tobytes() == v.tobytes()
    assert trj.final_u.tobytes() == u.tobytes()


@pytest.mark.parametrize("family", ["bump", "powerdist"])
def test_weights_are_sampled_once_per_grid(family, monkeypatch):
    # Profile.sample evaluates a weight once per (profile, grid), however many
    # steps record an energy, and the recorded energies equal the formula with
    # freshly evaluated weights bit for bit.
    g = interval(0.0, 1.0, 49)  # a new grid: nothing sampled on it yet
    model = Model(f=Nonlinearity("power", p=2.0), g=Nonlinearity("log"),
                  alpha=Profile(family, c=1.2), beta=Profile(family, c=0.7))
    params = ParamPoint(0.8, 1.1)
    evaluated = []
    original = Profile._evaluate

    def spy(self, grid):
        evaluated.append(self)
        return original(self, grid)

    monkeypatch.setattr(Profile, "_evaluate", spy)
    short = simulate(_zeros(g), g, model, params, fixed_config(1e-2, snapshot_stride=1), 0.05)
    assert evaluated == [model.alpha, model.beta]
    trj = simulate(_zeros(g), g, model, params, fixed_config(1e-2, snapshot_stride=1), 0.5)
    assert trj.n_steps == 10 * short.n_steps
    assert evaluated == [model.alpha, model.beta]
    assert not model.alpha.sample(g).flags.writeable

    alpha, beta = original(model.alpha, g), original(model.beta, g)
    for energy, (_, u, v) in zip(trj.energy, trj.snapshots):
        assert energy == (gradient_inner(g, u, v)
                          - params.lam * integrate(alpha * model.f.antideriv(v), g)
                          - params.mu * integrate(beta * model.g.antideriv(u), g))

def test_quench_run_levels_and_extrapolation(unit99):
    g, _, eig = unit99
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED
    q = trj.quench
    assert q is not None
    assert q.which == "both"  # fully symmetric run
    t1, t2, t3 = q.level_times
    assert t1 < t2 < t3
    assert q.time >= t3
    assert q.extrapolated
    assert trj.max_u[-1] >= 1.0 - 4 * StepperConfig().quench_delta - 1e-12


def test_immediate_quench_on_high_initial_data(unit99):
    g, _, eig = unit99
    x = g.coordinates()[:, 0]
    u0 = 0.9995 * np.sin(np.pi * x)
    trj = simulate((u0, 0.5 * u0), g, power2_model(), ParamPoint(1.0, 1.0),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED
    assert trj.quench.time == 0.0
    assert trj.quench.which == "u"
    assert not trj.quench.extrapolated


def test_immediate_quench_of_both_components_reports_both(unit99):
    # both initial maxima already reach the innermost level: the rule of a
    # crossing step, where both crossing within 1e-9 of it reports "both",
    # holds at t = 0 too; the one component there leads
    g, _, _ = unit99
    x = g.coordinates()[:, 0]
    u0 = 0.9995 * np.sin(np.pi * x)
    trj = simulate((u0, u0.copy()), g, power2_model(), ParamPoint(1.0, 1.0),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.QUENCHED and trj.n_steps == 0
    assert trj.quench.which == "both"
    assert trj.quench.time == 0.0 and trj.quench.level_times == (0.0, 0.0, 0.0)
    assert not trj.quench.extrapolated
    assert trj.quench.level == u0.max()
    assert len(trj.snapshots) == 1 and trj.snapshots[0][0] == 0.0
    trj = simulate((0.5 * u0, u0), g, power2_model(), ParamPoint(1.0, 1.0),
                   StepperConfig(), 1.0)
    assert trj.quench.which == "v" and trj.quench.level == u0.max()


@pytest.mark.parametrize("level_times, expected", [
    ((0.0, 0.5, 0.75), (1.0, True)),  # gaps 0.5, 0.25, ... sum to 1
    ((0.25, 0.25, 0.25), (0.25, False)),  # three equal times: no gaps to extrapolate
    ((0.1, 0.2, 0.4), (0.4, False)),  # growing gaps
    ((0.1, 0.3, 0.5), (0.5, False)),  # equal gaps
    ((0.0, 0.0, 0.3), (0.3, False)),  # a zero gap
    ((math.nan, 0.2, 0.3), (0.3, False)),
    ((0.1, math.inf, 0.3), (0.3, False)),
    ((0.1, 0.2, math.inf), (math.inf, False)),
])
def test_aitken_quench_time_extrapolates_only_contracting_gaps(level_times, expected):
    assert evolution._aitken_quench_time(level_times) == expected


def test_step_underflow_status(unit99):
    g, _, eig = unit99
    cfg = StepperConfig(dt_init=1e-5, dt_min=1e-5, dt_max=0.05, tol_step=1e-14)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0),
                   cfg, 1.0)
    assert trj.status is TerminalStatus.STEP_UNDERFLOW


def test_fixed_mode_propagates_range_error(unit99):
    g, _, eig = unit99
    with pytest.raises(StepRangeError):
        simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0),
                 fixed_config(0.05), 1.0)


def test_rejects_initial_data_at_ceiling(unit99):
    g, _, eig = unit99
    u0 = np.full(g.n_total, 1.0)
    with pytest.raises(ValueError):
        simulate((u0, u0), g, power2_model(), ParamPoint(1.0, 1.0),
                 StepperConfig(), 1.0)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
def test_rejects_horizon_that_is_not_positive_and_finite(horizon, unit99):
    # an infinite horizon used to end at once with status horizon and no step
    g, _, _ = unit99
    with pytest.raises(ValueError, match="horizon"):
        simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0),
                 StepperConfig(), horizon)


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt_init=1e-6, dt_min=1e-3)
    with pytest.raises(ValueError):
        StepperConfig(quench_delta=0.3)
    with pytest.raises(ValueError):
        StepperConfig(snapshot_stride=0)
    with pytest.raises(ValueError):
        StepperConfig(tol_step=0)


def test_energy_identity_first_order():
    # residual of dE/dt + 2 int u_t v_t contracts when h and dt are halved
    def residual(n, dt):
        g = interval(0.0, 1.0, n)
        trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                       fixed_config(dt, snapshot_stride=10 ** 9), 1.0)
        t, e, q = trj.times, trj.energy, trj.utvt
        res = (e[1:] - e[:-1]) / (t[1:] - t[:-1]) + 2.0 * q[1:]
        return float(np.nanmax(np.abs(res)))

    coarse = residual(49, 4e-3)
    fine = residual(99, 2e-3)
    assert np.isfinite(coarse) and np.isfinite(fine)
    assert fine <= 0.85 * coarse


def test_energy_value_definition(unit99):
    # E = int(grad u . grad v) - int(lam a F(v)) - int(mu b G(u)), assembled
    # here term by term from public pieces
    from quenchlab import gradient_inner

    g, op, eig = unit99
    model = power2_model()
    params = ParamPoint(0.7, 1.3)
    rng = np.random.default_rng(5)
    shape = np.sin(np.pi * g.coordinates()[:, 0])
    u = 0.3 * shape * rng.uniform(0.9, 1.0)
    v = 0.4 * shape
    expect = (gradient_inner(g, u, v)
              - integrate(0.7 * model.alpha.sample(g) * model.f.antideriv(v), g)
              - integrate(1.3 * model.beta.sample(g) * model.g.antideriv(u), g))
    assert lyapunov_energy(u, v, g, model, params) == pytest.approx(
        expect, rel=1e-12)


def test_ordered_data_stay_ordered(unit99):
    g, _, _ = unit99
    model = power2_model()
    params = ParamPoint(0.8, 0.8)
    s = monotone_minimal_solution(g, model, params).solution
    cfg = fixed_config(1e-3, snapshot_stride=1)
    low = simulate(_zeros(g), g, model, params, cfg, 1.0)
    high = simulate((0.5 * s.w, 0.5 * s.z), g, model, params, cfg, 1.0)
    assert len(low.snapshots) == len(high.snapshots)
    for (ta, ua, va), (tb, ub, vb) in zip(low.snapshots, high.snapshots):
        assert ta == tb
        assert float((ub - ua).min()) >= -1e-10
        assert float((vb - va).min()) >= -1e-10


@pytest.mark.parametrize("corrupt", ["past-one", "nan"])
def test_failed_solve_wins_over_range_and_later_solves(unit99, monkeypatch, corrupt):
    # The first half step of the first attempt misses its backward error.
    # Its result reaching 1 would alone be a StepRangeError, which adaptive
    # runs catch and retry smaller; a nan result makes the next solve's rhs
    # non-finite, which alone would be a ValueError.  The attempt's solves
    # are checked together, and the first failed one decides, as if each
    # were checked alone: a breakdown.
    g, _, _ = unit99
    original, calls = evolution._solve, []

    def broken(grid, factor, x, **kwargs):
        calls.append(factor)
        original(grid, factor, x, **kwargs)
        if len(calls) == 2:
            if corrupt == "past-one":
                x += 5.0
            else:
                x[...] = np.nan
        return x

    monkeypatch.setattr(evolution, "_solve", broken)
    with pytest.raises(SolverBreakdownError):
        simulate(_zeros(g), g, power2_model(), ParamPoint(12.0, 12.0), StepperConfig(), 1.0)
    # one attempt: the full step and the corrupt half step, then (nan) the second
    assert len(calls) == (2 if corrupt == "past-one" else 3)


@pytest.mark.parametrize("fixed", [False, True])
def test_non_finite_intermediate_is_a_value_error(unit99, monkeypatch, fixed):
    # f overflows at the first state after the initial one (which is zero):
    # the next solve's rhs is not finite, reported as solve_poisson reports it.
    g, _, _ = unit99
    original = Nonlinearity._value

    def overflowing(self, s):
        out = original(self, s)
        if s.any():
            out[..., s.shape[-1] // 2] = np.inf
        return out

    monkeypatch.setattr(Nonlinearity, "_value", overflowing)
    cfg = fixed_config(1e-3) if fixed else StepperConfig()
    with pytest.raises(ValueError, match="rhs contains non-finite entries"):
        simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5), cfg, 1.0)


@pytest.mark.parametrize("case", ["adaptive", "full-chunks", "quench"])
def test_recorded_diagnostics_equal_per_state_formulas(unit99, case):
    # The recorder evaluates accepted states a chunk at a time; every column
    # equals the per-state formula bit for bit, across chunk boundaries, for
    # a run that fills its last chunk and for a quench that ends mid-chunk.
    g, _, _ = unit99
    model = _weighted_model()
    x = g.coordinates()[:, 0]
    reference = (0.1 * np.sin(np.pi * x), 0.2 * np.sin(np.pi * x))
    if case == "quench":
        model, params, cfg, horizon = power2_model(), ParamPoint(12.5, 12.5), StepperConfig(), 1.0
    else:
        params, horizon = ParamPoint(0.9, 0.6), 0.32
        cfg = StepperConfig() if case == "adaptive" else fixed_config(1e-2)
    cfg = StepperConfig(**{**vars(cfg), "snapshot_stride": 1})
    trj = simulate(_zeros(g), g, model, params, cfg, horizon, reference=reference)
    chunk, states = evolution._RECORD_CHUNK, len(trj.times)
    assert states >= 2 * chunk
    # the initial state and then chunk after chunk of accepted states
    assert ((states - 1) % chunk == 0) == (case == "full-chunks")
    assert (trj.status is TerminalStatus.QUENCHED) == (case == "quench")
    assert len(trj.snapshots) == states

    alpha, beta = model.alpha.sample(g), model.beta.sample(g)
    columns = {key: [] for key in ("max_u", "max_v", "energy", "dist2_u", "dist2_v",
                                   "ut_l2", "vt_l2", "utvt")}
    prev = None
    for (t, u, v), dt in zip(trj.snapshots, trj.dt):
        columns["max_u"].append(float(u.max()))
        columns["max_v"].append(float(v.max()))
        columns["energy"].append(gradient_inner(g, u, v)
                                 - params.lam * integrate(alpha * model.f.antideriv(v), g)
                                 - params.mu * integrate(beta * model.g.antideriv(u), g))
        for key, field, ref in (("dist2_u", u, reference[0]), ("dist2_v", v, reference[1])):
            diff = field - ref
            columns[key].append(integrate(diff * diff, g))
        if prev is None:
            for key in ("ut_l2", "vt_l2", "utvt"):
                columns[key].append(math.nan)
        else:
            ut, vt = (u - prev[0]) / dt, (v - prev[1]) / dt
            columns["ut_l2"].append(math.sqrt(integrate(ut * ut, g)))
            columns["vt_l2"].append(math.sqrt(integrate(vt * vt, g)))
            columns["utvt"].append(integrate(ut * vt, g))
        prev = u, v
    for key, expect in columns.items():
        assert getattr(trj, key).tobytes() == np.array(expect).tobytes(), key
    assert trj.energy[-1] == lyapunov_energy(*trj.snapshots[-1][1:], g, model, params)


@pytest.mark.parametrize("entry", [-1e-3, 1.0])
def test_rejects_initial_data_outside_unit_range_at_entry(unit99, monkeypatch, entry):
    # Both ends of the range are rejected at entry, before any solve.
    g, _, _ = unit99
    v0 = np.zeros(g.n_total)
    v0[g.n_total // 2] = entry

    def no_solve(grid, factor, x, **kwargs):
        raise AssertionError("solved before the range check")

    monkeypatch.setattr(evolution, "_solve", no_solve)
    with pytest.raises(ValueError, match=r"v0 must lie in \[0, 1\)"):
        simulate((np.zeros(g.n_total), v0), g, power2_model(), ParamPoint(1.0, 1.0),
                 StepperConfig(), 1.0)
    with pytest.raises(ValueError, match=r"v must lie in \[0, 1\)"):
        step(np.zeros(g.n_total), v0, 1e-3, g, power2_model(), ParamPoint(1.0, 1.0))


# sha256 (first 16 hex digits) of every Trajectory array, its snapshots, status
# and quench event, for four runs; written by the stepper of separate IMEX
# closures that the one attempt kernel replaced, and unchanged by it.  Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, x86-64
_TRAJECTORY_DIGESTS = {"quench-1d": "4ffa0793515bbd09", "fixed-1d": "388adddfa34604f5",
                       "adaptive-2d": "47a999d76cee6883", "power-log": "3b3e935f50c098ca"}


def _trajectory_digest(trj):
    h = hashlib.sha256()
    for key in ("times", "max_u", "max_v", "ut_l2", "vt_l2", "utvt", "energy",
                "dist2_u", "dist2_v", "dt", "final_u", "final_v"):
        h.update(getattr(trj, key).tobytes())
    for t, u, v in trj.snapshots:
        h.update(np.float64(t).tobytes() + u.tobytes() + v.tobytes())
    h.update(repr((trj.status.value, trj.quench)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("run", sorted(_TRAJECTORY_DIGESTS))
def test_trajectories_are_pinned(unit99, run):
    # An adaptive quench, a fixed-step run, a 2D adaptive run with a reference
    # and a quench with f != g: every recorded bit of each is pinned.
    g, _, _ = unit99
    power_log = Model(f=Nonlinearity("power", p=2.0), g=Nonlinearity("log"),
                      alpha=Profile("constant"), beta=Profile("constant"))
    if run == "adaptive-2d":
        g = rectangle((0.0, 1.0), (0.0, 1.0), 15, 7)
        x, y = g.coordinates().T
        shape = np.sin(np.pi * x) * np.sin(np.pi * y)
        trj = simulate(_zeros(g), g, power2_model(), ParamPoint(1.0, 1.0), StepperConfig(),
                       0.3, reference=(0.1 * shape, 0.2 * shape))
    elif run == "fixed-1d":
        trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                       fixed_config(1e-2, snapshot_stride=3), 0.5)
    else:
        model = power2_model() if run == "quench-1d" else power_log
        trj = simulate(_zeros(g), g, model, ParamPoint(12.0, 12.0), StepperConfig(), 1.0)
    assert _trajectory_digest(trj) == _TRAJECTORY_DIGESTS[run]
