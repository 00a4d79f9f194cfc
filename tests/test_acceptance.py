"""Acceptance suite: one test per shipped guarantee, budgets included.

Each test states the guarantee it enforces, checks it end to end at a
desk-scale configuration, and asserts the advertised wall-clock budget.
Shared artifacts (the random membership batch, the long decay run) come
from session fixtures that record their own cost, so a budget is charged
exactly once no matter how many tests reuse the artifact.
"""

import time

import numpy as np
import pytest

import frozen
import oracles
from conftest import power2_model, unit_stack
from quenchlab import (
    InitialData,
    Model,
    Nonlinearity,
    NotInLambda,
    ParamPoint,
    Profile,
    StepperConfig,
    TerminalStatus,
    assemble_linearization,
    classify_case,
    integrate,
    interval,
    mass_bound_check,
    monotone_minimal_solution,
    principal_eigenpair,
    principal_laplacian_eigenpair,
    quench_time_bound,
    rate_certificate,
    simulate,
    trace_critical_curve,
)


def test_acceptance_01_laplacian_eigenpair():
    # guarantee: principal Dirichlet pair on (0,1) at n = 999 is within
    # 1e-3 of pi^2, strictly positive, and integrates to exactly 1; < 1 s
    t0 = time.perf_counter()
    g = interval(0.0, 1.0, 999)
    lam1, phi = principal_laplacian_eigenpair(g.laplacian)
    elapsed = time.perf_counter() - t0
    assert abs(lam1 - np.pi ** 2) < 1e-3
    assert phi.min() > 0.0
    assert integrate(phi, g) == 1.0
    assert elapsed < 1.0


def test_acceptance_02_monotone_construction_batch(membership_batch):
    # guarantee: on 20 random admissible configurations the construction
    # is pointwise nondecreasing at every iterate, lands below the
    # singular level, and certifies residual <= 1e-8; < 10 s total
    records, elapsed = membership_batch
    assert len(records) == 20
    for model, params, solution, monotone_ok in records:
        assert monotone_ok
        assert solution.residual <= 1e-8
        assert max(solution.w.max(), solution.z.max()) < 1.0
    assert elapsed < 10.0


def test_acceptance_03_analytic_nonexistence(unit99):
    # guarantee: with unit weights and the inverse-square pair, any lam
    # beyond pi^2 + 0.1 is rejected by the closed-form box alone; < 1 s
    g, _, _ = unit99
    t0 = time.perf_counter()
    for lam, mu in ((np.pi ** 2 + 0.100001, 0.01), (10.5, 1.0), (50.0, 47.0)):
        verdict = monotone_minimal_solution(g, power2_model(),
                                            ParamPoint(lam, mu))
        assert isinstance(verdict, NotInLambda)
        assert verdict.evidence == "analytic-bound"
    assert time.perf_counter() - t0 < 1.0


def test_acceptance_04_critical_curve(unit99):
    # guarantee: a 16-sample trace of the existence boundary is
    # non-increasing within bracket widths, and in the symmetric case its
    # diagonal crossing matches the scalar-reduction fold within 1%; < 60 s
    g, _, _ = unit99
    t0 = time.perf_counter()
    curve = trace_critical_curve(g, power2_model(),
                                 list(np.linspace(0.2, 2.45, 16)))
    elapsed = time.perf_counter() - t0
    assert len(curve.samples) == 16
    assert all(s.status == "ok" for s in curve.samples)
    assert curve.is_non_increasing()
    lams = np.array([s.lam for s in curve.samples])
    gap = np.array([s.mu_critical for s in curve.samples]) - lams
    k = int(np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))[0])
    t = gap[k] / (gap[k] - gap[k + 1])
    diagonal = lams[k] + t * (lams[k + 1] - lams[k])
    assert abs(diagonal - frozen.PULL_IN_POWER2) / frozen.PULL_IN_POWER2 < 0.01
    assert elapsed < 60.0


def test_acceptance_05_linearized_stability(membership_batch, unit99):
    # guarantee: the linearization at sampled interior minimal states has
    # a positive principal eigenvalue with positive eigenfunctions, and
    # the banded iteration agrees with a dense solve to 1e-8 relative at
    # n = 200; < 30 s
    records, _ = membership_batch
    g99, _, _ = unit99
    t0 = time.perf_counter()
    for model, params, solution, _ in records[:10]:
        lin = assemble_linearization(g99, model, params, solution.w,
                                     solution.z)
        pair = principal_eigenpair(lin)
        assert pair.nu1 > 0.0
        assert pair.phi.min() > 0.0 and pair.psi.min() > 0.0
    g, _, _ = unit_stack(200)
    s = monotone_minimal_solution(g, power2_model(), ParamPoint(1.0, 1.0)).solution
    lin = assemble_linearization(g, power2_model(), ParamPoint(1.0, 1.0),
                                 s.w, s.z)
    nu_banded = principal_eigenpair(lin).nu1
    nu_dense = oracles.dense_principal_eigenvalue(oracles.linearization_matrix(lin))
    assert abs(nu_banded - nu_dense) / abs(nu_dense) <= 1e-8
    assert time.perf_counter() - t0 < 30.0


def test_acceptance_06_global_decay(decay_run):
    # guarantee: from rest at lam = mu = 0.5 the flow reaches the minimal
    # state: terminal L2 distance < 1e-6 at t = 5 with max(u) nondecreasing
    # throughout; < 30 s
    trj = decay_run["trajectory"]
    assert decay_run["elapsed"] < 30.0
    assert trj.status is TerminalStatus.HORIZON
    assert trj.times[-1] == pytest.approx(5.0, abs=1e-12)
    terminal = np.sqrt(trj.dist2_u[-1] + trj.dist2_v[-1])
    assert terminal < 1e-6
    assert np.all(np.diff(trj.max_u) >= -1e-12)


def test_acceptance_07_quench_time_stability():
    # guarantee: lam = mu = 12 from rest quenches, and the reported time
    # moves by under 2% when h is halved and when the step tolerance is
    # halved; < 60 s
    model = power2_model()
    params = ParamPoint(12.0, 12.0)

    def run(n, tol):
        g = interval(0.0, 1.0, n)
        trj = simulate((np.zeros(g.n_total), np.zeros(g.n_total)), g, model,
                       params, StepperConfig(tol_step=tol), 1.0)
        assert trj.status is TerminalStatus.QUENCHED
        return trj.quench.time

    t0 = time.perf_counter()
    base = run(199, 1e-6)
    fine_h = run(399, 1e-6)
    fine_tol = run(199, 5e-7)
    elapsed = time.perf_counter() - t0
    assert abs(fine_h - base) / base < 0.02
    assert abs(fine_tol - base) / base < 0.02
    assert elapsed < 60.0


def test_acceptance_08_quench_time_bound(unit199):
    # guarantee: the lam = 20 logarithmic run from 0.9 sin(pi x) quenches
    # no later than 1.05x the closed-form bound (about 0.0524); < 30 s
    g, _, _ = unit199
    nl = Nonlinearity("log")
    model = Model(f=nl, g=nl, alpha=Profile("constant"), beta=Profile("constant"))
    params = ParamPoint(20.0, 20.0)
    x = g.coordinates()[:, 0]
    u0 = 0.9 * np.sin(np.pi * x)
    t0 = time.perf_counter()
    bound = quench_time_bound(u0, u0, g, model, params)
    trj = simulate((u0, u0), g, model, params, StepperConfig(), 1.0)
    elapsed = time.perf_counter() - t0
    assert bound.applicable
    assert bound.best == pytest.approx(0.0524, abs=5e-4)
    assert trj.status is TerminalStatus.QUENCHED
    assert trj.quench.time <= 1.05 * bound.best
    assert elapsed < 30.0


def test_acceptance_09_energy_identity(decay_run):
    # guarantee: along the decay run the residual of the energy identity
    # dE/dt + 2 int u_t v_t = 0 stays bounded, and a run with h halved and
    # the step tolerance quartered does not grow it
    def worst_residual(trj):
        t, e, q = trj.times, trj.energy, trj.utvt
        res = (e[1:] - e[:-1]) / (t[1:] - t[:-1]) + 2.0 * q[1:]
        return float(np.nanmax(np.abs(res)))

    base = worst_residual(decay_run["trajectory"])
    assert np.isfinite(base)
    assert base < 1e-2

    g = interval(0.0, 1.0, 399)
    model = decay_run["model"]
    params = decay_run["params"]
    sol = monotone_minimal_solution(g, model, params).solution
    refined = simulate((np.zeros(g.n_total), np.zeros(g.n_total)), g, model,
                       params, StepperConfig(tol_step=2.5e-7), 5.0,
                       reference=(sol.w, sol.z))
    assert worst_residual(refined) <= 1.05 * base


def test_acceptance_10_decay_rate(decay_run):
    # guarantee: the fitted tail slope of the squared distance is at least
    # 0.95x the certified constant min(lam1, nu1/2), and the certificate
    # carries both the advertised and certified constants with the note
    # explaining their gap; < 30 s
    g = decay_run["grid"]
    lam1 = decay_run["eig"][0]
    sol = decay_run["solution"]
    t0 = time.perf_counter()
    lin = assemble_linearization(g, decay_run["model"], decay_run["params"],
                                 sol.w, sol.z)
    nu1 = principal_eigenpair(lin).nu1
    cert = rate_certificate(decay_run["trajectory"], lam1, nu1)
    elapsed = time.perf_counter() - t0
    assert cert.gamma_certified == pytest.approx(min(lam1, nu1 / 2.0), rel=1e-14)
    assert cert.gamma_claimed == pytest.approx(min(2.0 * lam1, nu1 / 2.0), rel=1e-14)
    assert cert.fitted_rate >= 0.95 * cert.gamma_certified
    assert cert.passes
    assert cert.note
    assert elapsed < 30.0


def test_acceptance_11_mass_bounds(membership_batch, unit99):
    # guarantee: the weighted-mass bound holds on every minimal state the
    # random batch produced
    records, _ = membership_batch
    g, _, _ = unit99
    for model, params, solution, _ in records:
        report = mass_bound_check(solution.w, solution.z, g, model, params)
        assert report.passes


def test_acceptance_12_comparison_ordering(unit99):
    # guarantee: ordered initial data stay ordered at every shared time
    # within 1e-10, checked on a fixed-step pair sharing its time grid
    g, _, _ = unit99
    model = power2_model()
    params = ParamPoint(0.8, 0.8)
    s = monotone_minimal_solution(g, model, params).solution
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                        snapshot_stride=1)
    low = simulate((np.zeros(g.n_total), np.zeros(g.n_total)), g, model,
                   params, cfg, 1.0)
    high = simulate((0.5 * s.w, 0.5 * s.z), g, model, params, cfg, 1.0)
    assert len(low.snapshots) == len(high.snapshots) == low.n_steps + 1
    for (ta, ua, va), (tb, ub, vb) in zip(low.snapshots, high.snapshots):
        assert ta == tb
        assert float((ub - ua).min()) >= -1e-10
        assert float((vb - va).min()) >= -1e-10
