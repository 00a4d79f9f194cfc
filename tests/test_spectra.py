"""Linearized coupled operator and its principal eigenvalue."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import power2_model
from quenchlab import (
    EigenConvergenceError,
    IndefiniteOperatorError,
    ParamPoint,
    assemble_linearization,
    integrate,
    interval,
    monotone_minimal_solution,
    principal_eigenpair,
    rectangle,
    second_solution_search,
)
from quenchlab import spectra
from quenchlab.cli import build_grid, build_model, load_config
from quenchlab.spectra import CoupledBand, LinearizedOperator

DECAY_INI = str(Path(__file__).resolve().parent.parent / "configs" / "decay.ini")
# States where nu1 / nu2 is near 1, so unshifted inverse iteration runs out of
# its 500 steps (residuals 8.7e-9 and 3.1e-8): the 1D exp state has nu1 = 9.749
# and nu2 = 9.990, the 15x7 rectangle nu1 = 19.370 and nu2 = 19.793.
SLOW_STATES = {
    "exp-1d": ["model.g_family=exp", "model.lambda=0.05", "model.mu=0.05"],
    "asym-15x7": ["domain.dimension=2", "domain.c=0", "domain.d=1", "domain.nx=15",
                  "domain.ny=7", "model.f_family=power", "model.g_family=exp",
                  "model.alpha_family=powerdist", "model.beta_family=powerdist",
                  "model.lambda=0.3", "model.mu=0.3"],
}


def _config_linearization(overrides):
    """The linearization at the minimal state of configs/decay.ini with overrides."""
    cfg = load_config(DECAY_INI, overrides)
    g, (model, params) = build_grid(cfg), build_model(cfg)
    s = monotone_minimal_solution(g, model, params).solution
    return assemble_linearization(g, model, params, s.w, s.z)


def _assert_bracketed(pair, lin):
    dense = oracles.dense_principal_eigenvalue(oracles.linearization_matrix(lin))
    assert abs(pair.nu1 - dense) / abs(dense) <= 1e-10
    assert pair.nu1_lower <= dense <= pair.nu1_upper
    assert 1 <= pair.factorizations <= spectra._MAX_FACTORS


def _minimal(stack, lam, mu=None):
    g, op, eig = stack
    params = ParamPoint(lam, lam if mu is None else mu)
    s = monotone_minimal_solution(g, power2_model(), params).solution
    return g, op, eig, params, s


def test_decoupled_hook_reduces_to_laplacian(unit99):
    g, _, eig, params, s = _minimal(unit99, 1.0)
    lin = LinearizedOperator(g, np.zeros(g.n_total), np.zeros(g.n_total))
    pair = principal_eigenpair(lin)
    assert pair.nu1 == pytest.approx(eig[0], rel=1e-8)


def test_block_entries(unit99):
    g, op, eig, params, s = _minimal(unit99, 0.8, 1.1)
    model = power2_model()
    lin = assemble_linearization(g, model, params, s.w, s.z)
    m = oracles.linearization_matrix(lin)
    n = g.n_total
    assert m.shape == (2 * n, 2 * n)
    alpha = model.alpha.sample(g)
    beta = model.beta.sample(g)
    for i in (0, n // 2, n - 1):
        assert m[i, n + i] == pytest.approx(-0.8 * alpha[i] * model.f.deriv(s.z[i]),
                                            rel=1e-14)
        assert m[n + i, i] == pytest.approx(-1.1 * beta[i] * model.g.deriv(s.w[i]),
                                            rel=1e-14)
    # the factor's couplings are the off-diagonal blocks
    assert [(row, col) for row, col, _ in lin.couplings] == [(0, 1), (1, 0)]
    np.testing.assert_array_equal(lin.couplings[0][2], m.diagonal(n))
    np.testing.assert_array_equal(lin.couplings[1][2], m.diagonal(-n))
    # diagonal blocks are the plain stencil: A's products with unit vectors
    # are the oracle's columns
    a = np.column_stack([op.apply(e) for e in np.eye(n)])
    np.testing.assert_array_equal(a, m[:n, :n].toarray())
    x = np.random.default_rng(2).standard_normal(n)
    np.testing.assert_array_equal(lin.apply(np.concatenate([x, np.zeros(n)]))[:n], op.apply(x))


def test_matches_dense_oracle(unit99):
    g, _, eig, params, s = _minimal(unit99, 1.0)
    lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
    pair = principal_eigenpair(lin)
    dense = oracles.dense_principal_eigenvalue(oracles.linearization_matrix(lin))
    assert abs(pair.nu1 - dense) / abs(dense) <= 1e-10


@pytest.mark.parametrize("nx, ny, sigma", [(11, 7, 0.0), (7, 11, 0.0), (11, 7, 7.5), (7, 11, 7.5)],
                         ids=["11-7", "7-11", "11-7-shifted", "7-11-shifted"])
def test_matches_dense_oracle_2d(nx, ny, sigma):
    # and the banded factor of M - sigma I solves like a dense one (a coupling
    # of a field to itself adds to A's diagonal), and M's product from the
    # stencil matches the dense one, in both orientations of the band's node
    # ordering (shorter axis first)
    g = rectangle((0.0, 1.0), (0.0, 1.0), nx, ny)
    model, params = power2_model(), ParamPoint(2.0, 2.5)
    s = monotone_minimal_solution(g, model, params).solution
    lin = assemble_linearization(g, model, params, s.w, s.z)
    pair = principal_eigenpair(lin)
    m = oracles.linearization_matrix(lin)
    dense = oracles.dense_principal_eigenvalue(m)
    assert abs(pair.nu1 - dense) / abs(dense) <= 1e-10
    rhs = np.random.default_rng(3).standard_normal((2 * g.n_total, 2))
    shift = [(0, 0, np.full(g.n_total, -sigma)), (1, 1, np.full(g.n_total, -sigma))]
    solve = CoupledBand(g, 2).factor(
        [(0, 1, -params.lam * model.alpha.sample(g) * model.f.deriv(s.z)),
         (1, 0, -params.mu * model.beta.sample(g) * model.g.deriv(s.w))]
        + (shift if sigma else []))
    full = m.toarray()
    shifted = full - sigma * np.eye(2 * g.n_total)
    for trans, matrix in ((0, shifted), (1, shifted.T)):
        exact = np.linalg.solve(matrix, rhs)
        assert np.abs(solve(rhs, trans=trans) - exact).max() <= 1e-12 * np.abs(exact).max()
    scale = np.abs(full).sum(axis=1).max() * np.abs(rhs[:, 0]).max()
    assert np.abs(lin.apply(rhs[:, 0]) - full @ rhs[:, 0]).max() <= 1e-14 * scale


def test_eigenfunctions_positive_and_normalized(unit99):
    g, _, eig, params, s = _minimal(unit99, 1.2, 0.7)
    lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
    pair = principal_eigenpair(lin)
    assert pair.nu1 > 0.0
    assert pair.phi.min() > 0.0
    assert pair.psi.min() > 0.0
    mass = integrate(pair.phi ** 2 + pair.psi ** 2, g)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert pair.residual <= 1e-10


def test_symmetric_case_has_equal_components(unit99):
    g, _, eig, params, s = _minimal(unit99, 1.0)
    lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
    pair = principal_eigenpair(lin)
    np.testing.assert_allclose(pair.phi, pair.psi, atol=1e-10)


def test_stability_margin_shrinks_toward_fold(unit99):
    g, _, eig = unit99
    nus = []
    for lam in (0.4, 0.8, 1.2):
        _, _, _, params, s = _minimal(unit99, lam)
        lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
        nus.append(principal_eigenpair(lin).nu1)
    assert nus[0] > nus[1] + 1e-8
    assert nus[1] > nus[2] + 1e-8
    assert nus[2] > 0.0


def test_second_branch_is_indefinite(unit199):
    g, _, _ = unit199
    params = ParamPoint(1.0, 1.0)
    minimal = monotone_minimal_solution(g, power2_model(), params).solution
    second = second_solution_search(g, power2_model(), params, minimal)
    assert second is not None
    lin = assemble_linearization(g, power2_model(), params, second.w, second.z)
    with pytest.raises(IndefiniteOperatorError) as err:
        principal_eigenpair(lin)
    assert err.value.nu_estimate < 0.0


def test_budget_exhaustion_raises(unit99):
    g, _, eig, params, s = _minimal(unit99, 1.2)
    lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
    with pytest.raises(EigenConvergenceError):
        principal_eigenpair(lin, tol=1e-14, max_iter=1)


@pytest.mark.parametrize("grid", [interval(0.0, 1.0, 13), rectangle((0.0, 2.0), (0.0, 1.0), 7, 5)],
                         ids=["interval", "rectangle"])
def test_apply_is_one_stacked_product(grid):
    # M x equals A applied to each half minus the couplings, bit for bit,
    # and a non-finite x still raises
    n, rng = grid.n_total, np.random.default_rng(4)
    lin = LinearizedOperator(grid, rng.random(n), rng.random(n))
    x = rng.standard_normal(2 * n)
    a = grid.laplacian
    expect = np.concatenate([a.apply(x[:n]) - lin.coupling_w * x[n:],
                             a.apply(x[n:]) - lin.coupling_z * x[:n]])
    assert np.array_equal(lin.apply(x), expect)
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[n + 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lin.apply(y)
    with pytest.raises(ValueError, match="shape"):
        lin.apply(x[:-1])


@pytest.mark.parametrize("name", SLOW_STATES)
def test_slow_contraction_states_converge(name):
    # the shift at the Collatz-Wielandt lower bound makes each step contract
    # by (nu1 - sigma) / (nu2 - sigma), far below nu1 / nu2 ~ 0.98
    lin = _config_linearization(SLOW_STATES[name])
    pair = principal_eigenpair(lin)
    assert pair.iterations < 10
    assert pair.residual <= 1e-10
    _assert_bracketed(pair, lin)


def test_bench_sized_asymmetric_state_takes_one_factor():
    # lam != mu on the benchmark's 47x23 rectangle: 92 unshifted steps, and
    # a handful from the sine mode with the first shift alone
    g = rectangle((0.0, 2.0), (0.0, 1.0), 47, 23)
    params = ParamPoint(0.48, 0.52)
    s = monotone_minimal_solution(g, power2_model(), params).solution
    pair = principal_eigenpair(assemble_linearization(g, power2_model(), params, s.w, s.z))
    assert pair.iterations < 10
    assert pair.factorizations == 1
    assert pair.nu1_lower <= pair.nu1 <= pair.nu1_upper
    assert pair.nu1_upper - pair.nu1_lower <= 1e-9 * pair.nu1


def test_bracket_contains_dense_eigenvalue_at_minimal_states(membership_batch, unit99):
    # the ten states of acceptance 05: log, exp and power families, bump weights
    records, _ = membership_batch
    g, _, _ = unit99
    for model, params, solution, _ in records[:10]:
        lin = assemble_linearization(g, model, params, solution.w, solution.z)
        _assert_bracketed(principal_eigenpair(lin), lin)


def test_one_band_alive_while_reshifting():
    # the 15x7 state re-factors once; the old band is dropped before the new
    # one is built, so the peak stays below two bands' bytes
    lin = _config_linearization(SLOW_STATES["asym-15x7"])
    band = CoupledBand(lin.grid, 2)
    band_bytes = 8 * band.shape[0] * band.shape[1]
    tracemalloc.start()
    try:
        pair = principal_eigenpair(lin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.factorizations >= 2
    assert peak < 2 * band_bytes



def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_first_band_is_factored_beside_one_vector():
    # Beside what one factorization of M takes alone, the first factor holds
    # only the start vector (2n doubles) alive: not M x0 nor a shift vector,
    # which read 5n doubles in all
    lin = _config_linearization(["domain.dimension=2", "domain.b=2", "domain.nx=47",
                                 "domain.ny=23"])
    n = lin.grid.n_total
    zero = np.zeros(n)
    alone, _ = _traced_peak(lambda: CoupledBand(lin.grid, 2).factor(
        lin.couplings + [(0, 0, zero), (1, 1, zero)]))
    peak, pair = _traced_peak(lambda: principal_eigenpair(lin))
    assert pair.factorizations == 1
    assert peak - alone < 3 * 8 * n

def test_zero_pivot_falls_back_to_the_previous_shift(unit99, monkeypatch):
    # a shifted factor that hits a zero pivot leaves the iteration on the
    # last shift that factored, here M itself: the unshifted iteration
    g, _, eig, params, s = _minimal(unit99, 1.2, 0.7)
    lin = assemble_linearization(g, power2_model(), params, s.w, s.z)
    factor = CoupledBand.factor

    def unshifted_only(self, couplings):
        shifted = any(row == col and np.any(c) for row, col, c in couplings)
        return None if shifted else factor(self, couplings)
    monkeypatch.setattr(CoupledBand, "factor", unshifted_only)
    pair = principal_eigenpair(lin)
    assert 2 <= pair.factorizations <= spectra._MAX_FACTORS
    monkeypatch.undo()
    assert pair.nu1 == pytest.approx(principal_eigenpair(lin).nu1, rel=1e-10)
