"""Time stepping, quench detection, energy identity, ratio constants."""

from collections import Counter

import numpy as np
import pytest

from conftest import power2_model, unit_stack
from quenchlab import (
    DiscreteOperator,
    ParamPoint,
    evolution,
    StepperConfig,
    StepRangeError,
    TerminalStatus,
    integrate,
    interval,
    lyapunov_energy,
    monotone_minimal_solution,
    ratio_constants,
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
    dense = np.eye(g.n_total) + dt * op.matrix.toarray()
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
    """Replace evolution's solve_poisson by a wrapper; returns the list of
    operators it was called with (kept alive, so their ids stay distinct)."""
    ops = []
    original = evolution.solve_poisson

    def spy(op, rhs, **kwargs):
        assert np.shape(rhs) == (op.grid.n_total, 2)  # (u, v) as one block
        ops.append(op)
        return original(op, rhs, **kwargs)

    monkeypatch.setattr(evolution, "solve_poisson", spy)
    return ops


def test_fixed_step_run_solves_once_per_step(unit99, monkeypatch):
    g, _, _ = unit99
    ops = _spy_solves(monkeypatch)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   fixed_config(1e-2), 0.5)
    assert trj.n_steps == 50
    assert len(ops) == trj.n_steps


def test_half_step_pair_shares_one_shift(unit99, monkeypatch):
    # An adaptive trial step is one full step (its own shift, one solve) and
    # a pair of half steps (one shift, two solves).
    g, _, _ = unit99
    ops = _spy_solves(monkeypatch)
    shifts = []
    original = DiscreteOperator.shifted

    def spy_shift(self, *args):
        shifts.append(original(self, *args))
        return shifts[-1]

    monkeypatch.setattr(DiscreteOperator, "shifted", spy_shift)
    trj = simulate(_zeros(g), g, power2_model(), ParamPoint(0.5, 0.5),
                   StepperConfig(), 1.0)
    assert trj.status is TerminalStatus.HORIZON
    uses = Counter(id(op) for op in ops)
    assert set(uses) == {id(op) for op in shifts}
    per_shift = Counter(uses.values())
    assert set(per_shift) == {1, 2}
    assert per_shift[1] == per_shift[2] >= trj.n_steps
    assert all(op.operator_coeff == 0.5 * full.operator_coeff
               for op, full in zip(shifts[1::2], shifts[0::2]))


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


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt_init=1e-6, dt_min=1e-3)
    with pytest.raises(ValueError):
        StepperConfig(quench_delta=0.3)
    with pytest.raises(ValueError):
        StepperConfig(snapshot_stride=0)


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
    expect = (gradient_inner(op, u, v)
              - integrate(0.7 * model.alpha.sample(g) * model.f.antideriv(v), g)
              - integrate(1.3 * model.beta.sample(g) * model.g.antideriv(u), g))
    assert lyapunov_energy(u, v, g, model, params) == pytest.approx(
        expect, rel=1e-12)


def test_ratio_constants_asymmetric_rest():
    g, _, eig = unit_stack(99)
    model = power2_model()
    u0, v0 = np.zeros(g.n_total), np.zeros(g.n_total)
    rc = ratio_constants(u0, v0, g, model, ParamPoint(1.0, 4.0),
                         np.zeros(g.n_total), np.zeros(g.n_total))
    # from rest the forcing-ratio term is lam f(0) / (mu g(0)) = 1/4 and
    # the curvature term sqrt((lam/mu) f'(0)/g'(0)) = 1/2
    assert rc.initial_uv == pytest.approx(0.25, rel=1e-12)
    assert rc.curvature_uv == pytest.approx(0.5, rel=1e-12)
    assert rc.c_uv == pytest.approx(0.25, rel=1e-12)
    assert rc.c_vu == pytest.approx(2.0, rel=1e-12)


def test_ratio_bound_holds_along_monotone_run():
    g, _, _ = unit_stack(99)
    model = power2_model()
    params = ParamPoint(0.3, 0.9)
    s = monotone_minimal_solution(g, model, params).solution
    rc = ratio_constants(np.zeros(g.n_total), np.zeros(g.n_total), g, model,
                         params, s.w, s.z)
    assert rc.c_uv is not None and rc.c_vu is not None
    dt = 1e-3
    u, v = _zeros(g)
    for _ in range(1500):
        un, vn = step(u, v, dt, g, model, params)
        ut, vt = (un - u) / dt, (vn - v) / dt
        assert float((ut - rc.c_uv * vt).min()) >= -1e-8
        assert float((vt - rc.c_vu * ut).min()) >= -1e-8
        u, v = un, vn


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
