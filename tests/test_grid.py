"""Grid, stencil, quadrature, and Laplacian eigenpair checks."""

import numpy as np
import pytest
import scipy.linalg

from quenchlab import (
    SolverBreakdownError,
    assemble_laplacian,
    gradient_inner,
    integrate,
    interval,
    principal_laplacian_eigenpair,
    rectangle,
    solve_poisson,
)


def test_interval_stencil_entries():
    # n = 3 on (0,1): h = 1/4, so -u'' discretizes to 1/h^2 * tridiag(-1,2,-1)
    g = interval(0.0, 1.0, 3)
    assert g.h == (0.25,)
    a = assemble_laplacian(g).matrix.toarray()
    expect = np.array([[32.0, -16.0, 0.0],
                       [-16.0, 32.0, -16.0],
                       [0.0, -16.0, 32.0]])
    np.testing.assert_array_equal(a, expect)


def test_rectangle_stencil_entries():
    g = rectangle((0.0, 1.0), (0.0, 1.0), 3, 3)
    a = assemble_laplacian(g).matrix.toarray()
    assert a.shape == (9, 9)
    assert np.all(np.diag(a) == 64.0)
    off = a[np.nonzero(a - np.diag(np.diag(a)))]
    assert np.all(off == -16.0)
    # center node couples to exactly its 4 neighbors
    assert np.count_nonzero(a[4]) == 5


def test_operator_is_symmetric():
    g = rectangle((0.0, 2.0), (0.0, 1.0), 11, 7)
    a = assemble_laplacian(g).matrix
    assert (a - a.T).nnz == 0


@pytest.mark.parametrize("g", [interval(0.0, 2.0, 9),
                               rectangle((0.0, 2.0), (0.0, 1.0), 5, 3)],
                         ids=["interval", "rectangle"])
def test_grid_owns_its_laplacian(g):
    op, ref = g.laplacian, assemble_laplacian(g)
    assert op is g.laplacian
    assert op.grid is g
    assert (op.stencil != ref.stencil).nnz == 0
    assert op.stencil_norm == ref.stencil_norm


def test_poisson_quadratic_is_exact():
    # -u'' = 1 on (0,1) has u = x(1-x)/2; the 3-point stencil is exact on
    # quadratics, so the midpoint value must be 1/8 to solver precision.
    g = interval(0.0, 1.0, 99)
    op = assemble_laplacian(g)
    u = solve_poisson(op, np.ones(g.n_total))
    mid = g.n_total // 2
    assert abs(g.coordinates()[mid, 0] - 0.5) < 1e-14
    assert abs(u[mid] - 0.125) < 1e-11
    exact = 0.5 * g.coordinates()[:, 0] * (1.0 - g.coordinates()[:, 0])
    assert np.max(np.abs(u - exact)) < 1e-11


def test_poisson_zero_rhs():
    g = interval(0.0, 1.0, 33)
    op = assemble_laplacian(g)
    np.testing.assert_array_equal(solve_poisson(op, np.zeros(g.n_total)), 0.0)


def test_inverse_positivity():
    # nonnegative loads produce nonnegative potentials (discrete maximum
    # principle for the M-matrix stencil)
    rng = np.random.default_rng(7)
    g = rectangle((0.0, 1.0), (0.0, 1.0), 17, 13)
    op = assemble_laplacian(g)
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
    op = assemble_laplacian(g)
    x = g.coordinates()[:, 0]
    f = np.sin(np.pi * x)
    assert gradient_inner(op, f, f) == pytest.approx(np.pi ** 2 / 2, rel=1e-4)


def test_eigenpair_unit_interval():
    g = interval(0.0, 1.0, 199)
    lam1, phi = principal_laplacian_eigenpair(assemble_laplacian(g))
    assert lam1 == pytest.approx(np.pi ** 2, rel=1e-4)
    assert phi.min() > 0.0
    assert integrate(phi, g) == pytest.approx(1.0, abs=1e-14)


def test_eigenpair_scaled_interval():
    g = interval(0.0, 2.0, 199)
    lam1, _ = principal_laplacian_eigenpair(assemble_laplacian(g))
    assert lam1 == pytest.approx(np.pi ** 2 / 4, rel=1e-4)


def test_eigenpair_unit_square():
    g = rectangle((0.0, 1.0), (0.0, 1.0), 39, 39)
    lam1, phi = principal_laplacian_eigenpair(assemble_laplacian(g))
    assert lam1 == pytest.approx(2 * np.pi ** 2, rel=1e-3)
    assert phi.min() > 0.0


def test_eigenvalue_second_order_in_h():
    errs = []
    for n in (49, 99, 199):
        g = interval(0.0, 1.0, n)
        lam1, _ = principal_laplacian_eigenpair(assemble_laplacian(g))
        errs.append(abs(lam1 - np.pi ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_rayleigh_quotient_bounds_eigenvalue():
    rng = np.random.default_rng(3)
    g = interval(0.0, 1.0, 99)
    op = assemble_laplacian(g)
    lam1, _ = principal_laplacian_eigenpair(op)
    for _ in range(10):
        x = rng.standard_normal(g.n_total)
        q = float(x @ op.apply(x)) / float(x @ x)
        assert q >= lam1 * (1.0 - 1e-10)


def test_shifted_operator_action():
    g = interval(0.0, 1.0, 49)
    op = assemble_laplacian(g)
    rng = np.random.default_rng(11)
    x = rng.random(g.n_total)
    dt = 0.37
    sh = op.shifted(1.0, dt)
    # a shift records its coefficients on the shared stencil and assembles nothing
    assert (sh.identity_coeff, sh.operator_coeff) == (1.0, dt)
    assert sh.stencil is op.stencil
    assert "matrix" not in vars(sh)
    np.testing.assert_allclose(sh.apply(x), x + dt * op.apply(x), rtol=1e-14)
    twice = sh.shifted(2.0, 3.0)
    assert (twice.identity_coeff, twice.operator_coeff) == (5.0, 3.0 * dt)
    expect = 2.0 * x + 3.0 * sh.apply(x)
    np.testing.assert_allclose(twice.apply(x), expect, rtol=0.0,
                               atol=1e-14 * np.abs(expect).max())


@pytest.mark.parametrize("coeffs", [(-1.0, 1.0), (1.0, -0.5), (0.0, 0.0), (np.nan, 1.0)])
def test_shift_rejects_bad_coefficients(coeffs):
    op = assemble_laplacian(interval(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        op.shifted(*coeffs)


SOLVER_GRIDS = {
    "interval-1": interval(0.0, 1.0, 1),
    "interval-13": interval(-0.5, 1.0, 13),
    "rectangle-11x7": rectangle((0.0, 2.0), (0.0, 1.0), 11, 7),
}


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0, 1e-12), (1.0, 0.37), (1.0, 1e3)])
def test_shifted_solve_matches_dense(name, coeffs):
    g = SOLVER_GRIDS[name]
    s, c = coeffs
    op = assemble_laplacian(g).shifted(s, c)
    dense = s * np.eye(g.n_total) + c * op.stencil.toarray()
    rhs = np.random.default_rng(5).standard_normal(g.n_total)
    expect = np.linalg.solve(dense, rhs)
    u = solve_poisson(op, rhs)
    assert np.linalg.norm(u - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("name", ["interval-13", "rectangle-11x7"])  # a 1x1 solve can be exact
def test_solve_raises_when_backward_error_misses_tolerance(name):
    g = SOLVER_GRIDS[name]
    rhs = np.random.default_rng(6).random(g.n_total) + 0.1
    with pytest.raises(SolverBreakdownError):
        solve_poisson(assemble_laplacian(g).shifted(1.0, 0.37), rhs, tol_lin=0.0)


def test_eigenpair_matches_dense_rectangle():
    g = SOLVER_GRIDS["rectangle-11x7"]
    op = assemble_laplacian(g)
    lam1, phi = principal_laplacian_eigenpair(op)
    values, vectors = scipy.linalg.eigh(op.matrix.toarray())
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
    op = assemble_laplacian(g).shifted(1.0, 0.37)
    rhs = np.random.default_rng(8).standard_normal((g.n_total, k))
    block = solve_poisson(op, rhs)
    assert block.shape == (g.n_total, k)
    for j in range(k):
        assert block[:, j].tobytes() == solve_poisson(op, rhs[:, j]).tobytes()


@pytest.mark.parametrize("name", ["interval-13", "rectangle-11x7"])
def test_block_solve_checks_every_column(name):
    g = SOLVER_GRIDS[name]
    op = assemble_laplacian(g).shifted(1.0, 0.37)
    rhs = np.random.default_rng(9).random((g.n_total, 3)) + 0.1
    with pytest.raises(SolverBreakdownError):
        solve_poisson(op, rhs, tol_lin=0.0)
    # One column so large that its norms overflow: its backward error is nan,
    # which fails the check without a RuntimeWarning, while the others pass.
    rhs[:, 1] *= 1e300
    with pytest.raises(SolverBreakdownError, match="nan"):
        solve_poisson(op, rhs)
    solve_poisson(op, rhs[:, [0, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_solve_rejects_non_finite_rhs(bad):
    g = SOLVER_GRIDS["interval-13"]
    op = assemble_laplacian(g)
    rhs = np.ones((g.n_total, 2))
    rhs[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_poisson(op, rhs)
    with pytest.raises(ValueError, match="non-finite"):
        solve_poisson(op, rhs[:, 1])


@pytest.mark.parametrize("name", SOLVER_GRIDS)
@pytest.mark.parametrize("shape", ["k,n", "n,k,1", "n+1"])
def test_solve_rejects_misshapen_rhs(name, shape):
    g = SOLVER_GRIDS[name]
    n = g.n_total
    dims = {"k,n": (2, n), "n,k,1": (n, 2, 1), "n+1": (n + 1,)}[shape]
    with pytest.raises(ValueError, match="shape"):
        solve_poisson(assemble_laplacian(g), np.ones(dims))
