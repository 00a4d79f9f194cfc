"""Grid, stencil, quadrature, and Laplacian eigenpair checks."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import oracles
from quenchlab import (
    DiscreteOperator,
    SolverBreakdownError,
    gradient_inner,
    integrate,
    interval,
    principal_laplacian_eigenpair,
    rectangle,
    solve_poisson,
)
from quenchlab.grid import _backward_error, _check_solves, _stencil_product


def _entries(op):
    # The operator as a dense matrix, column j its product with unit vector j.
    return np.column_stack([op.apply(e) for e in np.eye(op.grid.n_total)])


def test_interval_stencil_entries():
    # n = 3 on (0,1): h = 1/4, so -u'' discretizes to 1/h^2 * tridiag(-1,2,-1)
    g = interval(0.0, 1.0, 3)
    assert g.h == (0.25,)
    a = _entries(g.laplacian)
    expect = np.array([[32.0, -16.0, 0.0],
                       [-16.0, 32.0, -16.0],
                       [0.0, -16.0, 32.0]])
    np.testing.assert_array_equal(a, expect)


def test_rectangle_stencil_entries():
    g = rectangle((0.0, 1.0), (0.0, 1.0), 3, 3)
    a = _entries(g.laplacian)
    assert a.shape == (9, 9)
    assert np.all(np.diag(a) == 64.0)
    off = a[np.nonzero(a - np.diag(np.diag(a)))]
    assert np.all(off == -16.0)
    # center node couples to exactly its 4 neighbors
    assert np.count_nonzero(a[4]) == 5


def test_operator_is_symmetric():
    g = rectangle((0.0, 2.0), (0.0, 1.0), 11, 7)
    a = _entries(g.laplacian)
    np.testing.assert_array_equal(a, a.T)


@pytest.mark.parametrize("g", [interval(0.0, 2.0, 9),
                               rectangle((0.0, 2.0), (0.0, 1.0), 5, 3)],
                         ids=["interval", "rectangle"])
def test_grid_owns_its_laplacian(g):
    op, ref = g.laplacian, DiscreteOperator(g)
    assert op is g.laplacian
    assert op.grid is g
    np.testing.assert_array_equal(_entries(op), _entries(ref))
    assert g.stencil_norm == float(abs(oracles.stencil(g)).sum(axis=1).max())


EDGE_GRIDS = ([interval(0.0, 1.0, n) for n in (1, 2, 3, 99, 199)]
              + [rectangle((0.0, 2.0), (0.0, 1.0), nx, ny)
                 for nx, ny in ((1, 1), (1, 4), (4, 1), (2, 3), (15, 7), (31, 15), (47, 23))])


@pytest.mark.parametrize("g", EDGE_GRIDS, ids=lambda g: "x".join(map(str, g.n_interior)))
def test_stencil_product_equals_assembled_exactly(g):
    # Products with A come from the grid's weights in the assembled matrix's
    # column order, so they equal the sparse product exactly, for one
    # field and for a (k, n) stack; and ||A||_inf is max(|A| 1) exactly.
    a = oracles.stencil(g)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(g.n_total)
    assert np.array_equal(g.laplacian.apply(x), a @ x)
    stack = rng.standard_normal((3, g.n_total))
    assert np.array_equal(_stencil_product(g, stack, *g.stencil), (a @ stack.T).T)
    assert g.stencil_norm == float(abs(a).sum(axis=1).max())
    assert gradient_inner(g, x, stack[0]) == g.cell_volume * float(np.dot(x, a @ stack[0]))


def test_poisson_quadratic_is_exact():
    # -u'' = 1 on (0,1) has u = x(1-x)/2; the 3-point stencil is exact on
    # quadratics, so the midpoint value must be 1/8 to solver precision.
    g = interval(0.0, 1.0, 99)
    op = g.laplacian
    u = solve_poisson(op, np.ones(g.n_total))
    mid = g.n_total // 2
    assert abs(g.coordinates()[mid, 0] - 0.5) < 1e-14
    assert abs(u[mid] - 0.125) < 1e-11
    exact = 0.5 * g.coordinates()[:, 0] * (1.0 - g.coordinates()[:, 0])
    assert np.max(np.abs(u - exact)) < 1e-11


def test_poisson_zero_rhs():
    g = interval(0.0, 1.0, 33)
    op = g.laplacian
    np.testing.assert_array_equal(solve_poisson(op, np.zeros(g.n_total)), 0.0)


def test_inverse_positivity():
    # nonnegative loads produce nonnegative potentials (discrete maximum
    # principle for the M-matrix stencil)
    rng = np.random.default_rng(7)
    g = rectangle((0.0, 1.0), (0.0, 1.0), 17, 13)
    op = g.laplacian
    for _ in range(5):
        rhs = rng.random(g.n_total)
        assert solve_poisson(op, rhs).min() >= 0.0


def test_quadrature_constants_exact():
    g = interval(0.0, 3.0, 57)
    assert abs(integrate(np.ones(g.n_total), g) - 3.0) < 1e-13
    g2 = rectangle((0.0, 2.0), (0.0, 0.5), 21, 9)
    assert abs(integrate(np.ones(g2.n_total), g2) - 1.0) < 1e-13


def test_quadrature_second_order():
    errs = []
    for n in (49, 99, 199):
        g = interval(0.0, 1.0, n)
        x = g.coordinates()[:, 0]
        errs.append(abs(integrate(np.sin(np.pi * x), g) - 2.0 / np.pi))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_l2_norm_matches_quadrature():
    g = interval(0.0, 1.0, 199)
    x = g.coordinates()[:, 0]
    f = np.sin(np.pi * x)
    assert integrate(f * f, g) == pytest.approx(0.5, rel=1e-4)


def test_gradient_inner_second_order():
    # int |u'|^2 for u = sin(pi x) is pi^2/2
    g = interval(0.0, 1.0, 199)
    x = g.coordinates()[:, 0]
    f = np.sin(np.pi * x)
    assert gradient_inner(g, f, f) == pytest.approx(np.pi ** 2 / 2, rel=1e-4)


def test_eigenpair_unit_interval():
    g = interval(0.0, 1.0, 199)
    lam1, phi = principal_laplacian_eigenpair(g.laplacian)
    assert lam1 == pytest.approx(np.pi ** 2, rel=1e-4)
    assert phi.min() > 0.0
    assert integrate(phi, g) == pytest.approx(1.0, abs=1e-14)


def test_eigenpair_scaled_interval():
    g = interval(0.0, 2.0, 199)
    lam1, _ = principal_laplacian_eigenpair(g.laplacian)
    assert lam1 == pytest.approx(np.pi ** 2 / 4, rel=1e-4)


def test_eigenpair_unit_square():
    g = rectangle((0.0, 1.0), (0.0, 1.0), 39, 39)
    lam1, phi = principal_laplacian_eigenpair(g.laplacian)
    assert lam1 == pytest.approx(2 * np.pi ** 2, rel=1e-3)
    assert phi.min() > 0.0


def test_eigenvalue_second_order_in_h():
    errs = []
    for n in (49, 99, 199):
        g = interval(0.0, 1.0, n)
        lam1, _ = principal_laplacian_eigenpair(g.laplacian)
        errs.append(abs(lam1 - np.pi ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_rayleigh_quotient_bounds_eigenvalue():
    rng = np.random.default_rng(3)
    g = interval(0.0, 1.0, 99)
    op = g.laplacian
    lam1, _ = principal_laplacian_eigenpair(op)
    for _ in range(10):
        x = rng.standard_normal(g.n_total)
        q = float(x @ op.apply(x)) / float(x @ x)
        assert q >= lam1 * (1.0 - 1e-10)


def test_shifted_operator_action():
    g = interval(0.0, 1.0, 49)
    op = g.laplacian
    rng = np.random.default_rng(11)
    x = rng.random(g.n_total)
    dt = 0.37
    sh = op.shifted(1.0, dt)
    # a shift records its coefficients on the shared grid and assembles nothing
    assert (sh.identity_coeff, sh.operator_coeff) == (1.0, dt)
    assert sh.grid is op.grid
    assert set(vars(sh)) == {"grid", "identity_coeff", "operator_coeff"}
    np.testing.assert_allclose(sh.apply(x), x + dt * op.apply(x), rtol=1e-14)
    twice = sh.shifted(2.0, 3.0)
    assert (twice.identity_coeff, twice.operator_coeff) == (5.0, 3.0 * dt)
    expect = 2.0 * x + 3.0 * sh.apply(x)
    np.testing.assert_allclose(twice.apply(x), expect, rtol=0.0,
                               atol=1e-14 * np.abs(expect).max())


@pytest.mark.parametrize("coeffs", [(-1.0, 1.0), (1.0, -0.5), (0.0, 0.0), (np.nan, 1.0)])
def test_shift_rejects_bad_coefficients(coeffs):
    op = interval(0.0, 1.0, 9).laplacian
    with pytest.raises(ValueError):
        op.shifted(*coeffs)


SOLVER_GRIDS = {
    "interval-1": interval(0.0, 1.0, 1),
    "interval-13": interval(-0.5, 1.0, 13),
    "rectangle-11x7": rectangle((0.0, 2.0), (0.0, 1.0), 11, 7),
    # one-row and one-column rectangles, and a square
    "rectangle-1x7": rectangle((0.0, 0.25), (0.0, 1.0), 1, 7),
    "rectangle-7x1": rectangle((0.0, 1.0), (0.0, 0.25), 7, 1),
    "rectangle-9x9": rectangle((0.0, 1.0), (0.0, 1.0), 9, 9),
}


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0, 1e-12), (1.0, 0.37), (1.0, 1e3)])
def test_shifted_solve_matches_dense(name, coeffs):
    g = SOLVER_GRIDS[name]
    s, c = coeffs
    op = g.laplacian.shifted(s, c)
    dense = oracles.shifted_matrix(op).toarray()
    rhs = np.random.default_rng(5).standard_normal(g.n_total)
    expect = np.linalg.solve(dense, rhs)
    u = solve_poisson(op, rhs)
    assert np.linalg.norm(u - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("name", ["interval-13", "rectangle-11x7"])  # a 1x1 solve can be exact
def test_solve_raises_when_backward_error_misses_tolerance(name):
    g = SOLVER_GRIDS[name]
    rhs = np.random.default_rng(6).random(g.n_total) + 0.1
    with pytest.raises(SolverBreakdownError):
        solve_poisson(g.laplacian.shifted(1.0, 0.37), rhs, tol_lin=0.0)


def test_eigenpair_matches_dense_rectangle():
    g = SOLVER_GRIDS["rectangle-11x7"]
    op = g.laplacian
    lam1, phi = principal_laplacian_eigenpair(op)
    values, vectors = scipy.linalg.eigh(oracles.stencil(g).toarray())
    assert lam1 == pytest.approx(values[0], rel=1e-12)
    cosine = abs(float(phi @ vectors[:, 0])) / np.linalg.norm(phi)
    assert cosine == pytest.approx(1.0, abs=1e-12)


def test_check_field_rejects_bad_input():
    g = interval(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        g.check_field(np.zeros(8))
    bad = np.zeros(9)
    bad[4] = np.nan
    with pytest.raises(ValueError):
        g.check_field(bad)


@pytest.mark.parametrize("make", [lambda: interval(0.0, 1e-160, 199),
                                  lambda: interval(0.0, 1e200, 199),
                                  lambda: rectangle((0.0, 1.0), (0.0, 1e200), 15, 9)],
                         ids=["tiny", "huge", "huge-2d"])
def test_grid_rejects_extents_without_a_normal_stencil_weight(make):
    # 1/h^2 underflows h^2 (division by zero) or overflows it (zero weight)
    with pytest.raises(ValueError, match="1/h\\^2 is not a normal float"):
        make()


@pytest.mark.parametrize("make", [lambda: interval(0.0, 2e-152, 199),
                                  lambda: rectangle((0.0, 1.0), (0.0, 1e-153), 15, 9)],
                         ids=["tiny", "tiny-2d"])
def test_grid_rejects_a_stencil_norm_that_overflows(make):
    # h = 1e-154: 1/h^2 = 1e308 is normal, but the centre weight 2/h^2 and
    # ||A||_inf = sum of 4/h^2 are inf
    with pytest.raises(ValueError, match="sum of 4/h\\^2 over the axes is not a normal float"):
        make()


def test_grid_keeps_extents_with_a_normal_stencil_weight():
    for g in (interval(0.0, 1e-150, 199), interval(0.0, 1e150, 199)):
        assert all(np.isfinite(g.spectrum)) and g.spectrum.min() > 0


def test_boundary_distance():
    g = interval(0.0, 1.0, 9)
    d = g.boundary_distance()
    assert d.min() > 0.0
    assert d[0] == pytest.approx(g.h[0])
    assert d.max() == pytest.approx(0.5)


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_solve_equals_column_solves_bitwise(name, k):
    g = SOLVER_GRIDS[name]
    op = g.laplacian.shifted(1.0, 0.37)
    rhs = np.random.default_rng(8).standard_normal((g.n_total, k))
    kept = rhs.copy()
    block = solve_poisson(op, rhs)
    assert block.shape == (g.n_total, k)
    for j in range(k):
        assert block[:, j].tobytes() == solve_poisson(op, rhs[:, j]).tobytes()
    # in either memory order, and the caller's rhs is left as it was
    assert np.array_equal(solve_poisson(op, np.asfortranarray(rhs)), block)
    assert rhs.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name", ["interval-13", "rectangle-11x7"])
def test_block_solve_checks_every_column(name):
    g = SOLVER_GRIDS[name]
    op = g.laplacian.shifted(1.0, 0.37)
    rhs = np.random.default_rng(9).random((g.n_total, 3)) + 0.1
    with pytest.raises(SolverBreakdownError):
        solve_poisson(op, rhs, tol_lin=0.0)
    # One column of entries past 1e300 is checked like the others, without a
    # RuntimeWarning: it passes at the default tolerance, alone and beside the
    # others, and fails at tolerance 0.
    rhs[:, 1] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_poisson(op, rhs)
        with pytest.raises(SolverBreakdownError):
            solve_poisson(op, rhs[:, [1]], tol_lin=0.0)
    solve_poisson(op, rhs[:, [0, 2]])


def _scaled_solve(scale):
    # (1e4 I + A) x = b on 49 nodes with every b_i = scale: x from the solve at
    # scale 1, times scale (exact up to rounding at any magnitude)
    g = interval(0.0, 1.0, 49)
    x = solve_poisson(g.laplacian.shifted(1e4, 1.0), np.ones(g.n_total))
    return g, scale * x, np.full(g.n_total, scale)


@pytest.mark.parametrize("scale", [1e160, 1e250, 1e308, 1e-160, 1e-250])
def test_check_passes_exact_solves_at_any_magnitude(scale):
    # Squares of the entries would overflow or underflow here, and at 1e308
    # ||M|| ||x|| does unless the norms are scaled; no RuntimeWarning either.
    g, x, b = _scaled_solve(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_solves(g, x, b, 1e4, 1.0)
    with np.errstate(all="ignore"):  # as _check_solves calls it
        assert _backward_error(g, x, b, 1e4, 1.0) < 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e250, 1e308, 1e-160, 1e-250])
def test_check_fails_a_solve_off_by_1e_9_at_any_magnitude(scale):
    # Unscaled sums of squares read the error as 0 at scale 1e160 (the
    # denominator overflows) and as nan at 1e250, an unscaled ||M|| ||x|| as 0
    # at 1e308; all must fail the check as at scale 1.
    g, x, b = _scaled_solve(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdownError, match="backward error 3\\.3"):
            _check_solves(g, x * (1.0 + 1e-9), b, 1e4, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_check_never_passes_a_non_finite_rhs(bad, scale):
    g, x, b = _scaled_solve(scale)
    b[7] = bad
    with np.errstate(all="ignore"):  # as _check_solves calls it
        assert np.isnan(_backward_error(g, x, b, 1e4, 1.0))
    with pytest.raises(ValueError, match="rhs contains non-finite entries"):
        _check_solves(g, x, b, 1e4, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_solve_rejects_non_finite_rhs(bad):
    # Reported by the check, with no RuntimeWarning from the solve on the way.
    for name in ("interval-13", "rectangle-11x7"):
        g = SOLVER_GRIDS[name]
        op = g.laplacian
        rhs = np.ones((g.n_total, 2))
        rhs[4, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rhs contains non-finite entries"):
                solve_poisson(op, rhs)
            with pytest.raises(ValueError, match="rhs contains non-finite entries"):
                solve_poisson(op, rhs[:, 1])


@pytest.mark.parametrize("name", SOLVER_GRIDS)
def test_sine_basis_diagonalizes_the_stencil(name):
    # Each axis's S is exactly symmetric and its own inverse to rounding, and
    # S diag(spectrum) S (S = S_y kron S_x in 2D) reproduces A on every unit
    # vector to rounding.
    g = SOLVER_GRIDS[name]
    eps = np.finfo(float).eps
    for s in g.sine_basis:
        n = len(s)
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - np.eye(n)).max() <= 10 * n * eps
    units = np.eye(g.n_total)
    if g.dimension == 1:
        (s,) = g.sine_basis
        product = (s @ (g.spectrum[:, None] * (s @ units.T))).T
    else:
        sx, sy = g.sine_basis
        stack = units.reshape(-1, *g.n_interior[::-1])
        product = (sy @ ((sy @ stack @ sx) * g.spectrum) @ sx).reshape(units.shape)
    exact = _stencil_product(g, units, *g.stencil)
    assert np.abs(product - exact).max() <= 10 * g.n_total * eps * g.stencil_norm


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("shape", ["k,n", "n,k,1", "n+1"])
def test_solve_rejects_misshapen_rhs(name, shape):
    g = SOLVER_GRIDS[name]
    n = g.n_total
    dims = {"k,n": (2, n), "n,k,1": (n, 2, 1), "n+1": (n + 1,)}[shape]
    with pytest.raises(ValueError, match="shape"):
        solve_poisson(g.laplacian, np.ones(dims))


def _assembled_backward_error(op, x, b):
    # Oracle: the same normwise formula from the assembled sparse matrix.
    m = oracles.shifted_matrix(op)
    return (np.linalg.norm(m @ x - b, np.inf, axis=0)
            / (scipy.sparse.linalg.norm(m, np.inf) * np.linalg.norm(x, np.inf, axis=0)
               + np.linalg.norm(b, np.inf, axis=0)))


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0, 0.37), (1.0, 1e-6)])
@pytest.mark.parametrize("k", [1, 2])
def test_stencil_backward_error_matches_assembled(name, coeffs, k):
    # The check forms Mx - b from the constant stencil by slicing; it must
    # agree with the assembled product to a few ulps, at the solution (a
    # rounding-level residual) and off it.
    g = SOLVER_GRIDS[name]
    op = g.laplacian.shifted(*coeffs)
    rng = np.random.default_rng(13)
    b = rng.standard_normal((g.n_total, k)) if k > 1 else rng.standard_normal(g.n_total)
    x = solve_poisson(op, b)
    eps = np.finfo(float).eps
    for trial in (x, x + 1e-6 * rng.standard_normal(x.shape)):
        err = _backward_error(g, trial.T, b.T, *coeffs)  # the fields as rows
        oracle = _assembled_backward_error(op, trial, b)
        assert np.shape(err) == np.shape(oracle)
        np.testing.assert_allclose(err, oracle, rtol=8 * eps, atol=8 * eps)
    assert np.all(_backward_error(g, np.zeros_like(b.T), np.zeros_like(b.T), *coeffs) == 0.0)
