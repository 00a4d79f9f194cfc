"""Uniform Dirichlet grids, the discrete Laplacian, and its exact solvers.

Only interior nodes are stored; homogeneous Dirichlet boundary values are
implicit everywhere.  A field is a plain float64 array of length
``grid.n_total`` (2D fields are flattened row-major: y index outer, x inner).

Every linear solve is a direct solve with ``s*I + c*A``, A the Dirichlet
stencil: an L D L^T tridiagonal factor in 1D and the DST-I fast Poisson
solver (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970) in 2D.  The
same sine spectrum gives the principal eigenpair in closed form.

A grid owns its Laplacian: ``grid.laplacian`` is assembled once, on first
use, and every library function takes its operator from there, so no caller
can pair a grid with another grid's operator.  The stencil is the only matrix
ever assembled: a shift s*I + c*A is applied as s*x + c*(A x), never formed.

``solve_poisson`` solves k fields at once as the columns of (n, k).  Fields
are checked where they enter (``Grid.check_field``), not in the quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

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
        """The Dirichlet negative Laplacian of this grid, assembled on first use."""
        return assemble_laplacian(self)

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
    the 3-point (1D) or 5-point (2D) Dirichlet ``stencil``, whose infinity
    norm is ``stencil_norm``; every shift shares both.  The coefficients are
    nonnegative and not both zero, so the operator is SPD.  Nothing but the
    stencil is assembled: the solver data (1D tridiagonal factor, 2D inverse
    DST symbol) are built on first use, once per operator."""

    grid: Grid
    stencil: sp.csr_matrix
    stencil_norm: float
    identity_coeff: float = 0.0
    operator_coeff: float = 1.0

    def apply(self, field: FloatArray) -> FloatArray:
        x = self.grid.check_field(field)
        if self.identity_coeff == 0.0 and self.operator_coeff == 1.0:
            return self.stencil @ x
        return self.identity_coeff * x + self.operator_coeff * (self.stencil @ x)

    def shifted(self, identity_coeff: float, operator_coeff: float) -> "DiscreteOperator":
        """identity_coeff*I + operator_coeff*self, in O(1): nothing is assembled."""
        if not (identity_coeff >= 0.0 and operator_coeff >= 0.0
                and identity_coeff + operator_coeff > 0.0):
            raise ValueError("shift coefficients must be nonnegative and not both "
                             f"zero, got ({identity_coeff}, {operator_coeff})")
        return DiscreteOperator(
            grid=self.grid, stencil=self.stencil, stencil_norm=self.stencil_norm,
            identity_coeff=identity_coeff + operator_coeff * self.identity_coeff,
            operator_coeff=operator_coeff * self.operator_coeff)

    @cached_property
    def _tridiagonal_factor(self) -> tuple[FloatArray, FloatArray]:
        # 1D: L D L^T factor of the constant-diagonal tridiagonal s*I + c*A.
        n, hh = self.grid.n_interior[0], self.grid.h[0]
        s, c = self.identity_coeff, self.operator_coeff
        # The LAPACK wrapper rejects an empty off-diagonal; for n == 1 it is unread.
        d, e, info = lapack.dpttrf(np.full(n, s + c * (2.0 / hh**2)),
                                   np.full(max(n - 1, 1), c * (-1.0 / hh**2)))
        if info != 0:
            raise SolverBreakdownError(f"tridiagonal factorization failed with info={info}")
        return d, e

    @cached_property
    def _inverse_symbol(self) -> FloatArray:
        # 2D: 1 / (s + c*lambda_jk) on the (ny, nx) grid of DST-I modes.
        lam_x, lam_y = (_sine_eigenvalue(np.arange(1, n + 1), n, hh)
                        for n, hh in zip(self.grid.n_interior, self.grid.h))
        return 1.0 / (self.identity_coeff + self.operator_coeff * (lam_y[:, None] + lam_x))


def _sine_eigenvalue(k, n: int, hh: float):
    # Of the 1D stencil on n nodes of spacing hh, eigenvector sin(k*pi*i/(n+1)).
    return (4.0 / hh**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2


def assemble_laplacian(grid: Grid) -> DiscreteOperator:
    """Negative Laplacian with implicit zero Dirichlet data.

    1D: tridiagonal [-1, 2, -1] / h^2.  2D: the 5-point cross stencil,
    assembled as a Kronecker sum of the per-axis tridiagonal operators.
    """

    def tridiag(n: int, hh: float) -> sp.csr_matrix:
        main = np.full(n, 2.0 / hh**2)
        off = np.full(n - 1, -1.0 / hh**2)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    if grid.dimension == 1:
        mat = tridiag(grid.n_interior[0], grid.h[0])
    else:
        nx, ny = grid.n_interior
        hx, hy = grid.h
        mat = (sp.kron(sp.identity(ny), tridiag(nx, hx))
               + sp.kron(tridiag(ny, hy), sp.identity(nx))).tocsr()
    return DiscreteOperator(grid=grid, stencil=mat,
                            stencil_norm=float(abs(mat).sum(axis=1).max()))


def _backward_error(op: DiscreteOperator, x: FloatArray, b: FloatArray) -> FloatArray:
    # Per column, ||Mx-b|| / (||M|| ||x|| + ||b||) for M = s*I + c*A (||Mx-b||/||b||
    # alone is bounded below by cond(M)*eps), 0 for x = b = 0, nan on overflow.
    # The residual comes from the constant stencil by slicing, on the fields
    # along the last axis ((k, n) in 1D, (k, ny, nx) in 2D), and ||M||_inf is
    # s + c*||A||_inf: no M is assembled.
    g = op.grid
    s, c = op.identity_coeff, op.operator_coeff
    xt, bt = x.T, b.T
    shape = (-1, *g.n_interior[::-1])
    xs = xt.reshape(shape)
    weights = [c / hh**2 for hh in g.h]
    r = (s + 2.0 * sum(weights)) * xs - bt.reshape(shape)
    for axis, w in zip((-1, -2), weights):  # x is the last axis, y the one before
        nb, rv = np.swapaxes(w * xs, axis, -1), np.swapaxes(r, axis, -1)
        rv[..., 1:] -= nb[..., :-1]
        rv[..., :-1] -= nb[..., 1:]
    r = r.reshape(xt.shape)
    rn = np.sqrt(np.einsum("...i,...i->...", r, r))
    xn = np.sqrt(np.einsum("...i,...i->...", xt, xt))
    bn = np.sqrt(np.einsum("...i,...i->...", bt, bt))
    # A zero denominator has x = b = 0, so rn = 0 and the quotient is 0
    # (5e-324 is the least positive double).
    return rn / np.maximum((s + c * op.stencil_norm) * xn + bn, 5e-324)


def solve_poisson(op: DiscreteOperator, rhs: FloatArray, *,
                  tol_lin: float = DEFAULT_TOL_LIN) -> FloatArray:
    """Solve op @ u = rhs for the interior field u, op = s*I + c*A, directly.

    ``rhs`` is one field (n,) or k fields as the columns of (n, k); each
    (contiguous) result column is bit-identical to a lone solve.  1D: LAPACK
    ``dpttrs`` with the operator's L D L^T factor (``dpttrf``); a DST pair
    would cost about ten such solves.  2D: the orthonormal DST-I
    diagonalizes A (eigenvalues sum over axes of 4/h^2 sin^2(k*pi/(2(n+1)))),
    so u is the inverse transform of the transformed rhs over s + c*eigenvalue;
    one FFT worker keeps results bit-identical.  Raises SolverBreakdownError
    when a column's normwise backward error exceeds tol_lin.  Only the shape is
    checked up front; a non-finite rhs fails the backward-error check and is
    then reported as ValueError.
    """
    g = op.grid
    b = np.asarray(rhs, dtype=float)
    if b.shape[:1] != (g.n_total,) or b.ndim > 2:
        raise ValueError(f"rhs has shape {b.shape}, expected ({g.n_total},) or ({g.n_total}, k)")
    if g.dimension == 1:
        d, e = op._tridiagonal_factor
        x, _ = lapack.dpttrs(d, e, b)
    else:
        from scipy.fft import dstn, idstn  # imported here: 1D runs skip its import time

        stack = b.T.reshape(-1, *g.n_interior[::-1])  # (k, ny, nx)
        modes = dstn(stack, type=1, axes=(-2, -1), norm="ortho", workers=1)
        x = idstn(modes * op._inverse_symbol, type=1, axes=(-2, -1), norm="ortho",
                  workers=1).reshape(b.shape[::-1]).T

    with np.errstate(all="ignore"):  # an overflow yields nan, which fails the check
        err = _backward_error(op, x, b)
    if not (err <= tol_lin).all():
        if not np.isfinite(b).all():
            raise ValueError("rhs contains non-finite entries")
        raise SolverBreakdownError(
            f"linear solve backward error {np.max(err):.3e} exceeds tol_lin={tol_lin:g}"
        )
    return x


def integrate(field: FloatArray, grid: Grid) -> float:
    """Quadrature of a field over the domain (boundary values implicitly 0)."""
    return float(np.dot(grid.quad_weights, field))


def gradient_inner(op: DiscreteOperator, u: FloatArray, v: FloatArray) -> float:
    """Quadrature of grad(u) . grad(v) with one-sided differences and zero boundary.

    By summation by parts this equals cell_volume * u^T A v exactly, which is
    how it is evaluated.
    """
    return op.grid.cell_volume * float(np.dot(u, op.stencil @ v))


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
