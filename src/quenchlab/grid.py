"""Uniform Dirichlet grids, the discrete Laplacian, and its exact solvers.

Only interior nodes are stored; homogeneous Dirichlet boundary values are
implicit everywhere.  A field is a plain float64 array of length
``grid.n_total`` (2D fields are flattened row-major: y index outer, x inner).

Every linear solve is a direct solve with ``s*I + c*A``, A the Dirichlet
stencil: an L D L^T tridiagonal factor in 1D and, in 2D, the tensor-product
fast diagonalization of Lynch, Rice & Thomas (Numer. Math. 6, 1964): A is
diagonal in the product of the per-axis orthonormal sine matrices, which the
grid caches with A's spectrum (``Grid.sine_basis``, ``Grid.spectrum``), so a
solve is four small matrix products.  The same sine spectrum gives the
principal eigenpair in closed form.

A grid owns its Laplacian ``grid.laplacian``, so no caller can pair a grid
with another grid's operator.  No matrix is assembled: A is held once, as the
grid's centre and neighbour weights (``Grid.stencil``), from which come every
product, the solve check and the band entries of ``spectra.CoupledBand``.

``solve_poisson`` solves k fields at once as the columns of (n, k): an
unchecked solve (``_factor``, ``_solve``) and then its check
(``_check_solves``), whose normwise backward error (``_backward_error``)
takes per-row coefficients, so ``evolution``'s attempt kernel checks all its
solves in one call.  Fields are checked where they enter (``Grid.check_field``),
not in the quadratures (``integrate``, ``gradient_inner``), which take one
field or a stack of fields along the last axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import lapack
from .errors import EigenConvergenceError, SolverBreakdownError

FloatArray = np.ndarray

DEFAULT_TOL_LIN = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes on an interval or axis-aligned rectangle.

    Attributes
    ----------
    dimension : 1 or 2.
    extents : per-axis (low, high) endpoints of the open domain.
    n_interior : per-axis interior node counts; spacing is
        ``h = (high - low) / (n_interior + 1)`` so nodes sit strictly inside.
    """

    dimension: int
    extents: tuple[tuple[float, float], ...]
    n_interior: tuple[int, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if len(self.extents) != self.dimension or len(self.n_interior) != self.dimension:
            raise ValueError("extents/n_interior length must match dimension")
        for (lo, hi), n in zip(self.extents, self.n_interior):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"invalid extent ({lo}, {hi})")
            if n < 1:
                raise ValueError(f"need at least one interior node per axis, got {n}")
            # past a normal 1/h^2, the stencil and its spectrum divide by zero or overflow
            hh = (hi - lo) / (n + 1)
            if not (hh * hh > 0 and sys.float_info.min <= 1.0 / (hh * hh) < math.inf):
                raise ValueError(f"extent ({lo}, {hi}) with {n} interior nodes gives "
                                 f"spacing {hh}, whose 1/h^2 is not a normal float")
        # the centre weight and the solve check's ||A||_inf overflow before 1/h^2 does
        if not sum(4.0 / (hh * hh) for hh in self.h) < math.inf:
            raise ValueError(f"spacings {self.h} give a stencil whose ||A||_inf = sum of "
                             "4/h^2 over the axes is not a normal float")

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n + 1) for (lo, hi), n in zip(self.extents, self.n_interior))

    @cached_property
    def n_total(self) -> int:
        return int(np.prod(self.n_interior))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @cached_property
    def axes(self) -> tuple[FloatArray, ...]:
        """Interior node coordinates along each axis."""
        out = []
        for (lo, hi), n, hh in zip(self.extents, self.n_interior, self.h):
            out.append(lo + hh * np.arange(1, n + 1))
        return tuple(out)

    @cached_property
    def sampled(self) -> dict:
        """Memo of fields sampled on this grid, keyed by what sampled them
        (``Profile.sample``); the values are read-only arrays."""
        return {}

    @cached_property
    def laplacian(self) -> "DiscreteOperator":
        """The Dirichlet negative Laplacian A of this grid."""
        return DiscreteOperator(self)

    @cached_property
    def stencil(self) -> tuple[float, float | FloatArray, float]:
        """A as (centre, east, north) weights on the flat node index: row i of A
        is centre at i, -east[i-1] and -east[i] at i -/+ 1, -north at i -/+ nx;
        east is 1/hx^2 (2D: an array, 0 where an x row ends), north 1/hy^2 (2D)."""
        weights = [1.0 / hh**2 for hh in self.h]
        if self.dimension == 1:
            return 2.0 * weights[0], weights[0], 0.0
        east = np.full(self.n_total - 1, weights[0])
        east[self.n_interior[0] - 1::self.n_interior[0]] = 0.0
        east.flags.writeable = False
        return 2.0 * sum(weights), east, weights[1]

    @cached_property
    def stencil_norm(self) -> float:
        """||A||_inf = max(|A| 1)."""
        centre, east, north = self.stencil
        return float(_stencil_product(self, np.ones(self.n_total), centre, -east, -north).max())

    @cached_property
    def sine_basis(self) -> tuple[FloatArray, ...]:
        """Per axis, the orthonormal DST-I matrix S with S[j-1, k-1] =
        sqrt(2/(n+1)) sin(pi*j*k/(n+1)): exactly symmetric, S @ S = I, and its
        column k the stencil's eigenvector of ``_sine_eigenvalue(k)``."""
        out = []
        for n in self.n_interior:
            jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
            s = math.sqrt(2.0 / (n + 1)) * np.sin(jk * (np.pi / (n + 1)))  # arguments in [0, 2pi)
            s.flags.writeable = False
            out.append(s)
        return tuple(out)

    @cached_property
    def spectrum(self) -> FloatArray:
        """A's eigenvalues, one per sine mode: (n,) in 1D, lambda_y + lambda_x
        on the (ny, nx) grid of mode pairs in 2D (``sine_basis``)."""
        lam = [_sine_eigenvalue(np.arange(1, n + 1), n, hh) for n, hh in zip(self.n_interior, self.h)]
        out = lam[0] if self.dimension == 1 else lam[1][:, None] + lam[0]
        out.flags.writeable = False
        return out

    def coordinates(self) -> FloatArray:
        """All interior node coordinates, shape (n_total, dimension)."""
        if self.dimension == 1:
            return self.axes[0][:, None]
        xs, ys = self.axes
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @cached_property
    def quad_weights(self) -> FloatArray:
        # Composite trapezoid on the interior span plus rectangle end cells:
        # weight h per node, 3h/2 at the first/last interior node of each axis.
        # Integrates constants to the exact domain measure and is O(h^2) for
        # C^2 integrands, vanishing on the boundary or not.
        per_axis = []
        for n, hh in zip(self.n_interior, self.h):
            w = np.full(n, hh)
            w[0] += hh / 2
            w[-1] += hh / 2
            per_axis.append(w)
        if self.dimension == 1:
            return per_axis[0]
        wx, wy = per_axis
        return np.outer(wy, wx).ravel()

    def boundary_distance(self) -> FloatArray:
        """Distance from each interior node to the domain boundary."""
        coords = self.coordinates()
        dist = np.full(self.n_total, np.inf)
        for axis, (lo, hi) in enumerate(self.extents):
            dist = np.minimum(dist, coords[:, axis] - lo)
            dist = np.minimum(dist, hi - coords[:, axis])
        return dist

    def check_field(self, field: FloatArray, name: str = "field") -> FloatArray:
        arr = np.asarray(field, dtype=float)
        if arr.shape != (self.n_total,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected ({self.n_total},) for this grid"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        return arr


def interval(a: float, b: float, n_interior: int) -> Grid:
    """Open interval (a, b) with n_interior uniform interior nodes."""
    return Grid(dimension=1, extents=((float(a), float(b)),), n_interior=(int(n_interior),))


def rectangle(xspan: tuple[float, float], yspan: tuple[float, float],
              nx: int, ny: int) -> Grid:
    """Open axis-aligned rectangle with nx-by-ny interior nodes."""
    return Grid(
        dimension=2,
        extents=((float(xspan[0]), float(xspan[1])), (float(yspan[0]), float(yspan[1]))),
        n_interior=(int(nx), int(ny)),
    )


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """``identity_coeff*I + operator_coeff*A`` on a grid's interior fields, A
    the grid's 3-point (1D) or 5-point (2D) ``stencil``; the coefficients are
    nonnegative and not both zero, so the operator is SPD.  It holds no matrix:
    products come from the stencil weights, and the solver data (1D tridiagonal
    factor, 2D inverse symbol 1/(s + c*spectrum) on the grid's sine modes) are
    built on first use, once per operator."""

    grid: Grid
    identity_coeff: float = 0.0
    operator_coeff: float = 1.0

    def apply(self, field: FloatArray) -> FloatArray:
        return _stencil_product(self.grid, self.grid.check_field(field), *self._weights)

    def shifted(self, identity_coeff: float, operator_coeff: float) -> "DiscreteOperator":
        """identity_coeff*I + operator_coeff*self, in O(1): nothing is assembled."""
        if not (identity_coeff >= 0.0 and operator_coeff >= 0.0
                and identity_coeff + operator_coeff > 0.0):
            raise ValueError("shift coefficients must be nonnegative and not both "
                             f"zero, got ({identity_coeff}, {operator_coeff})")
        return DiscreteOperator(self.grid, identity_coeff + operator_coeff * self.identity_coeff,
                                operator_coeff * self.operator_coeff)

    @cached_property
    def _weights(self) -> tuple[float, float | FloatArray, float]:
        # (centre, east, north) of s*I + c*A, as ``Grid.stencil`` holds A's
        return _shifted_weights(self.grid, self.identity_coeff, self.operator_coeff)

    @cached_property
    def _factored(self) -> tuple[FloatArray, FloatArray] | FloatArray:
        return _factor(self.grid, self.identity_coeff, self.operator_coeff)


def _sine_eigenvalue(k, n: int, hh: float):
    # Of the 1D stencil on n nodes of spacing hh, eigenvector sin(k*pi*i/(n+1)).
    return (4.0 / hh**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2


def _shifted_weights(grid: Grid, s, c) -> tuple:
    # (centre, east, north) weights of s*I + c*A from A's (``Grid.stencil``);
    # s and c are scalars or per-row (k, 1) arrays.
    centre, east, north = grid.stencil
    return s + c * centre, c * east, c * north


def _stencil_product(grid: Grid, x: FloatArray, centre: float,
                     east: float | FloatArray, north: float) -> FloatArray:
    # The product with A's pattern and these weights for the fields along x's
    # last axis, each row's terms added in column order (y-1, x-1, centre, x+1,
    # y+1) as a CSR product adds them: A x equals the assembled A @ x exactly.
    # Subtract in place through one view v of y (y[a:b] -= t stores the slice back).
    if grid.dimension == 1:
        t, y = east * x, centre * x  # x-1 and x+1 share the products t
        np.subtract(v := y[..., 1:], t[..., :-1], out=v)
        np.subtract(v := y[..., :-1], t[..., 1:], out=v)
        return y
    nx, s, y = grid.n_interior[0], north * x, np.zeros(x.shape)  # y-1 and y+1 share s
    np.subtract(v := y[..., nx:], s[..., :-nx], out=v)
    np.subtract(v := y[..., 1:], east * x[..., :-1], out=v)
    y += centre * x
    np.subtract(v := y[..., :-1], east * x[..., 1:], out=v)
    np.subtract(v := y[..., :-nx], s[..., nx:], out=v)
    return y


def _backward_error(grid: Grid, x: FloatArray, b: FloatArray, s, c) -> FloatArray:
    # Per row of x and b (shape (n,) or (k, n)), the normwise backward error in
    # the inf-norm, ||Mx-b|| / (||M|| ||x|| + ||b||) for M = s*I + c*A (Higham
    # 2002, Thm 7.1; ||Mx-b||/||b|| alone is bounded below by cond(M)*eps), 0 for
    # x = b = 0, nan for a row with an inf or nan.  s and c are scalars or per-row
    # (k, 1) (rows of shape (m, 2, n) take (m, 1, 1)): Mx comes from A's stencil
    # weights scaled row by row, ||M||_inf is s + c*||A||_inf.  The three norms
    # square nothing, and dividing them by max(||x||, ||b||) keeps ||M|| ||x||
    # finite, so the quotient holds at any magnitude (5e-324 is the least double).
    r = _stencil_product(grid, x, *_shifted_weights(grid, s, c))
    r -= b
    rxb = np.array([r, x, b])
    top = np.maximum.reduce(np.abs(rxb, out=rxb), axis=-1, keepdims=True)
    rn, xn, bn = top / np.maximum(np.maximum(top[1], top[2]), 5e-324)
    return (rn / np.maximum((s + c * grid.stencil_norm) * xn + bn, 5e-324))[..., 0]


def _check_solves(grid: Grid, x: FloatArray, b: FloatArray, s, c, *,
                  tol_lin: float = DEFAULT_TOL_LIN, solves: int = 1) -> None:
    """Raise unless every row of x solves (s*I + c*A) x = b to a normwise
    backward error of tol_lin (``_backward_error``).  The rows are ``solves``
    equal groups, one per solve in the order made, and the first group with a
    failed row decides: ValueError when its rhs is not finite (a non-finite rhs
    makes the error nan), else SolverBreakdownError."""
    with np.errstate(all="ignore"):  # an overflow yields nan, which fails the check
        err = _backward_error(grid, x, b, s, c)
    passed = err <= tol_lin
    if passed.all():
        return
    first = int(np.argmin(np.reshape(passed, (solves, -1)).all(axis=1)))
    if not np.isfinite(np.reshape(b, (solves, -1))[first]).all():
        raise ValueError("rhs contains non-finite entries")
    raise SolverBreakdownError(
        f"linear solve backward error {np.max(np.reshape(err, (solves, -1))[first]):.3e} "
        f"exceeds tol_lin={tol_lin:g}")


def _factor(grid: Grid, s: float, c: float) -> tuple[FloatArray, FloatArray] | FloatArray:
    # The solver data of s*I + c*A: 1D its L D L^T factor (d, e) from dpttrf, 2D
    # its inverse symbol 1/(s + c*lambda_jk) on the (ny, nx) grid of sine modes.
    if grid.dimension == 2:
        return 1.0 / (s + c * grid.spectrum)
    n, (centre, east, _) = grid.n_total, _shifted_weights(grid, s, c)
    # The LAPACK wrapper rejects an empty off-diagonal; for n == 1 it is unread.
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    d.fill(centre)
    e.fill(-east)
    d, e, info = lapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolverBreakdownError(f"tridiagonal factorization failed with info={info}")
    return d, e


def _solve(grid: Grid, factor, b: FloatArray, *, overwrite: bool = False) -> FloatArray:
    # The solutions for the right-hand sides b (rows, (n,) or (k, n)) of the
    # operator ``factor`` is of, as rows, unchecked; ``overwrite`` solves
    # C-contiguous rows in place.
    if grid.dimension == 1:
        return lapack.dpttrs(*factor, b.T, overwrite_b=overwrite)[0].T
    sx, sy = grid.sine_basis
    stack = b.reshape(-1, *grid.n_interior[::-1])  # (k, ny, nx)
    with np.errstate(all="ignore"):  # a non-finite rhs fails the check instead
        x = np.matmul(sy @ ((sy @ stack @ sx) * factor), sx, out=stack if overwrite else None)
    return x.reshape(b.shape)


def solve_poisson(op: DiscreteOperator, rhs: FloatArray, *,
                  tol_lin: float = DEFAULT_TOL_LIN) -> FloatArray:
    """Solve op @ u = rhs for the interior field u, op = s*I + c*A, directly.

    ``rhs`` is one field (n,) or k fields as the columns of (n, k); each
    (contiguous) result column is bit-identical to a lone solve.  1D: LAPACK
    ``dpttrs`` with the operator's L D L^T factor (``dpttrf``); a DST pair
    would cost about ten such solves.  2D: the grid's sine matrices S_x, S_y
    (symmetric, each its own inverse) diagonalize A with eigenvalues
    ``Grid.spectrum`` (sums over axes of 4/h^2 sin^2(k*pi/(2(n+1)))), so the
    (k, ny, nx) stack B of fields gives u = S_y ((S_y B S_x) / (s + c*spectrum))
    S_x; numpy's stacked products run one gemm per field, so no column depends
    on the others.  Raises SolverBreakdownError when a column's normwise
    backward error exceeds tol_lin.  Only the shape is checked up front; a
    non-finite rhs fails the backward-error check and is then reported as
    ValueError.  This is the unchecked solve followed by its check
    (``_check_solves``), which callers with several solves to check may
    run once for all of them.
    """
    g = op.grid
    b = np.asarray(rhs, dtype=float)
    if b.shape[:1] != (g.n_total,) or b.ndim > 2:
        raise ValueError(f"rhs has shape {b.shape}, expected ({g.n_total},) or ({g.n_total}, k)")
    x = _solve(g, op._factored, b.T)  # the fields as rows
    _check_solves(g, x, b.T, op.identity_coeff, op.operator_coeff, tol_lin=tol_lin)
    return x.T


def _scalar(values: FloatArray) -> float | FloatArray:
    # A float for one field's quadrature, the array for a stack of fields.
    return float(values) if values.ndim == 0 else values


def integrate(field: FloatArray, grid: Grid) -> float | FloatArray:
    """Quadrature of a field over the domain (boundary values implicitly 0).

    A stack of fields along the last axis gives the array of their
    quadratures, each equal to the lone field's bit for bit (np.vecdot sums
    as np.dot does; ``@`` and einsum do not).
    """
    return _scalar(np.vecdot(field, grid.quad_weights))


def gradient_inner(grid: Grid, u: FloatArray, v: FloatArray) -> float | FloatArray:
    """Quadrature of grad(u) . grad(v) with one-sided differences and zero boundary.

    By summation by parts this equals cell_volume * u^T A v exactly, which is
    how it is evaluated; stacks of fields along the last axis are paired row
    by row, as in ``integrate``.
    """
    return _scalar(grid.cell_volume * np.vecdot(u, _stencil_product(grid, v, *grid.stencil)))


def principal_laplacian_eigenpair(op: DiscreteOperator) -> tuple[float, FloatArray]:
    """Smallest eigenvalue and positive eigenfunction of the discrete operator.

    Closed form from the sine spectrum of the stencil: the eigenvalue is
    s + c * sum over axes of 4/h^2 sin^2(pi/(2(n+1))) and the eigenfunction
    the product over axes of sin(pi*i/(n+1)), i = 1..n.  The returned
    eigenfunction is strictly positive and normalized so its quadrature
    equals 1.
    """
    g = op.grid
    lam = op.identity_coeff + op.operator_coeff * sum(
        float(_sine_eigenvalue(1, n, hh)) for n, hh in zip(g.n_interior, g.h))
    modes = [np.sin(np.pi * np.arange(1, n + 1) / (n + 1)) for n in g.n_interior]
    x = modes[0] if g.dimension == 1 else np.outer(modes[1], modes[0]).ravel()
    if x.min() <= 0.0:
        raise EigenConvergenceError("principal eigenfunction lost strict positivity")

    phi = x / integrate(x, g)
    for _ in range(4):
        total = integrate(phi, g)
        if total == 1.0:
            break
        phi = phi / total
    return lam, phi
