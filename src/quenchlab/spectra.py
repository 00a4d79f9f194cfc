"""Linearization of the coupled system about a steady pair, and its
principal eigenvalue.

About a steady pair (w, z) the linearized operator is the 2x2 block

    M = [ A                  -lam * diag(alpha f'(z)) ]
        [ -mu * diag(beta g'(w))                A     ]

with A the grid's discrete negative Laplacian.  Off-diagonal entries of M are
nonpositive, so M perturbs like an M-matrix: at a minimal steady pair its
principal eigenvalue nu1 is positive with a positive eigenvector.  nu1 has no
variational characterization (M is not symmetric when lam alpha f'(z) differs
from mu beta g'(w)), but for any x > 0 the Collatz-Wielandt quotients bracket
it: min_i (M x)_i / x_i <= nu1 <= max_i (M x)_i / x_i (Donsker & Varadhan,
PNAS 72, 1975; Berestycki, Nirenberg & Varadhan, CPAM 47, 1994).  The lower
end is a shift sigma below nu1, so inverse iteration with M - sigma I, a
nonsingular M-matrix, keeps its iterates positive and contracts by
(nu1 - sigma) / (nu2 - sigma) per step; ``principal_eigenpair`` reports the
bracket at its eigenvector.  A nonpositive nu1 (or a sign-changing
eigenvector) means the state under study is not linearly stable; that outcome
is reported as an exception carrying the estimate, since every downstream
certificate needs nu1 > 0.

M is held as its two coupling diagonals (``LinearizedOperator``): no matrix is
assembled.  Products with M come from the grid's stencil weights, and every
solve with M (inverse iteration, Newton's steps) or with the fold's
[[M, 0], [K, M]] goes through ``CoupledBand``, one banded LAPACK kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import lapack
from .errors import EigenConvergenceError, IndefiniteOperatorError
from .grid import FloatArray, Grid, _stencil_product, integrate, principal_laplacian_eigenpair
from .model import Model, ParamPoint

_MAX_FACTORS = 4  # factorizations of M - sigma I per eigenpair, a fallback included
_ROUNDING = 64.0 * np.finfo(float).eps  # rounding of M x, per unit of |M| |x|


class CoupledBand:
    """Matrices with ``fields`` unknowns per node, A on every diagonal block
    and diagonal couplings between fields, factored by LAPACK ``dgbtrf``.
    Vectors stack the fields, each in the grid's node order; the band orders
    the unknowns node by node, 2D nodes along the shorter axis first, so its
    half-width is ``fields`` in 1D and fields * min(nx, ny) in 2D.
    ``factorizations`` counts the calls of ``factor``."""

    def __init__(self, grid: Grid, fields: int):
        n = grid.n_total
        nodes = np.arange(n)
        if grid.dimension == 2 and grid.n_interior[0] > grid.n_interior[1]:
            nodes = nodes.reshape(grid.n_interior[::-1]).T.ravel()
        place = np.empty_like(nodes)
        place[nodes] = np.arange(n)
        centre, east, north = grid.stencil  # A's entries, from its weights:
        nx, east = grid.n_interior[0], np.broadcast_to(east, n - 1)
        i, j = np.flatnonzero(east), np.arange(n - nx)  # i ~ i + 1, j ~ j + nx
        row = np.concatenate([nodes, i, i + 1, j, j + nx])
        col = np.concatenate([nodes, i + 1, i, j + nx, j])
        data = np.concatenate([np.full(n, centre), -east[i], -east[i], np.full(2 * j.size, -north)])
        offset = fields * (place[row] - place[col])
        self.k = k = max(int(offset.max()), fields - 1)  # kl = ku
        # dgbtrf's band storage, column by column, holds entry (i, j) at (3k + 1) j + 2k + i - j
        self.shape, self.nodes = (3 * k + 1, fields * n), nodes
        self.start = (3 * k + 1) * fields * np.arange(n) + 2 * k  # entry (p, p) of node p
        self.stencil = (np.concatenate([self.start[place[col]] + (3 * k + 1) * c + offset
                                        for c in range(fields)]),
                        np.concatenate([data] * fields))
        # band unknown p is the stacked unknown index[p]
        self.index = (np.arange(fields) * n + nodes[:, None]).ravel()
        self.unband = np.empty_like(self.index)
        self.unband[self.index] = np.arange(fields * n)
        self.factorizations = 0

    def factor(self, couplings) -> Callable | None:
        """Factor the matrix with these (row field, column field, values by node)
        couplings added in; one of a field to itself shifts A's diagonal.  Returns
        solve(rhs, trans=0), solving with the matrix (trans=1: its transpose) for a
        stacked vector or the columns of one, or None when a pivot is exactly zero."""
        self.factorizations += 1
        k, (at, values), index, unband = self.k, self.stencil, self.index, self.unband
        ab = np.zeros(self.shape, order="F")
        band = ab.reshape(-1, order="F")  # a view
        band[at] = values
        for row, col, coupling in couplings:
            band[self.start + 3 * k * col + row] += coupling[self.nodes]
        lu, piv, info = lapack.dgbtrf(ab, k, k, overwrite_ab=1)
        if info > 0:
            return None

        def solve(rhs: FloatArray, trans: int = 0) -> FloatArray:
            return lapack.dgbtrs(lu, k, k, rhs[index], piv, trans=trans)[0][unband]
        return solve


@dataclass(frozen=True)
class LinearizedOperator:
    """M on a grid, as its coupling diagonals: M (x_w, x_z) is
    (A x_w - coupling_w x_z, A x_z - coupling_z x_w), unknowns the w nodes,
    then the z nodes."""

    grid: Grid
    coupling_w: FloatArray  # lam alpha f'(z)
    coupling_z: FloatArray  # mu beta g'(w)

    @property
    def couplings(self) -> list:
        """M's off-diagonal blocks, as ``CoupledBand.factor`` takes them."""
        return [(0, 1, -self.coupling_w), (1, 0, -self.coupling_z)]

    def apply(self, x: FloatArray) -> FloatArray:
        g, n = self.grid, self.grid.n_total
        x = np.asarray(x, dtype=float)
        if x.shape != (2 * n,):
            raise ValueError(f"x has shape {x.shape}, expected ({2 * n},) for this grid")
        g.check_field(x[:n], "x_w")
        g.check_field(x[n:], "x_z")
        x = x.reshape(2, n)
        return self.coupled(_stencil_product(g, x, *g.stencil), x).ravel()

    def coupled(self, ax: FloatArray, x: FloatArray) -> FloatArray:
        """M x from A x, both as rows (w, z) of shape (2, n): the couplings
        are subtracted from ax in place."""
        ax[0] -= self.coupling_w * x[1]
        ax[1] -= self.coupling_z * x[0]
        return ax


def assemble_linearization(grid: Grid, model: Model, params: ParamPoint,
                           w: FloatArray, z: FloatArray) -> LinearizedOperator:
    """The block linearization at the pair (w, z)."""
    w = grid.check_field(w, "w")
    z = grid.check_field(z, "z")
    return LinearizedOperator(
        grid=grid,
        coupling_w=params.lam * model.alpha.sample(grid) * model.f.deriv(z),
        coupling_z=params.mu * model.beta.sample(grid) * model.g.deriv(w))


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue of the linearization with its positive eigenvector,
    the Collatz-Wielandt bracket nu1_lower <= nu1 <= nu1_upper at that vector,
    and the work done: solves (``iterations``) and band factorizations."""

    nu1: float
    phi: FloatArray
    psi: FloatArray
    residual: float
    iterations: int
    nu1_lower: float
    nu1_upper: float
    factorizations: int


def _collatz_wielandt(lin: LinearizedOperator, x: FloatArray,
                      mx: FloatArray) -> tuple[float, float, float]:
    """min_i and max_i of (M x)_i / x_i at x > 0, which bracket nu1 for the
    Z-matrix M (Donsker & Varadhan, PNAS 72, 1975), each widened outward by
    the rounding of the computed M x: _ROUNDING (|M| x)_i / x_i; and
    eps ||(|M| x)||_2, the rounding floor of a residual of M x."""
    g, n = lin.grid, lin.grid.n_total
    centre, east, north = g.stencil
    size = _stencil_product(g, x.reshape(2, n), centre, -east, -north)  # |A| x
    size[0] += lin.coupling_w * x[n:]
    size[1] += lin.coupling_z * x[:n]
    size = size.ravel()
    ratio, slack = mx / x, _ROUNDING * size / x
    floor = np.finfo(float).eps * float(np.linalg.norm(size))
    return float((ratio - slack).min()), float((ratio + slack).max()), floor


def principal_eigenpair(lin: LinearizedOperator, *,
                        tol: float = 1e-10,
                        max_iter: int = 500) -> EigenPair:
    """Inverse iteration with M - sigma I for the smallest eigenvalue of the
    block linearization, sigma a Collatz-Wielandt lower bound on nu1.

    The iteration starts from (phi1, phi1), phi1 > 0 the grid's sine mode, and
    factors M - sigma I at sigma = max(0, lower bound there).  Below nu1,
    M - sigma I stays a nonsingular M-matrix, so the iterates stay positive,
    and each step cuts the error by (nu1 - sigma) / (nu2 - sigma) instead of
    nu1 / nu2.  A step that cuts the residual by less than 10x while the
    lower bound has closed more than half of nu - sigma re-factors at that
    bound, up to _MAX_FACTORS factorizations; a shift whose factor hits a zero
    pivot falls back to the previous one.  The old factor is dropped before
    the next is built, so one band is alive at a time.  Converged when
    ||M x - nu x|| <= tol |nu|, nu = x^T M x at the unit vector x, or when
    that residual is down to the rounding floor eps |||M| x|| of M x, which
    near a fold (nu small) lies above tol |nu|.

    Raises IndefiniteOperatorError (with the best estimate attached) when the
    operator is singular, the converged eigenvalue is nonpositive, or the
    eigenvector fails to be positive: all three mean no stability margin.
    Raises EigenConvergenceError when the budget runs out first.

    The returned eigenvector is normalized so quadrature(phi^2 + psi^2) = 1;
    the bracket is the one at (phi, psi).
    """
    grid, n = lin.grid, lin.grid.n_total
    factors = 0

    def shift(target: float, previous: float) -> tuple[Callable | None, float]:
        # the solve with M - target I, or with M - previous I when that factor
        # hits a zero pivot (None when both do); the band's index arrays are
        # not kept between factorizations, only the factor itself
        nonlocal factors
        for sigma in dict.fromkeys((target, previous)):
            factors += 1
            diagonal = np.broadcast_to(-sigma, n)  # a view: no vector
            solve = CoupledBand(grid, 2).factor(
                lin.couplings + [(0, 0, diagonal), (1, 1, diagonal)])
            if solve is not None:
                break
        return solve, sigma

    def rayleigh(x: FloatArray) -> tuple[FloatArray, float, float, float]:
        # M x, nu, and the residual, absolute and relative to nu
        mx = lin.apply(x)
        nu = float(x @ mx)
        gap = float(np.linalg.norm(mx - nu * x))
        return mx, nu, gap, gap / max(abs(nu), 1e-30)

    x = np.tile(principal_laplacian_eigenpair(grid.laplacian)[1], 2)
    x /= np.linalg.norm(x)
    mx, nu, _, residual = rayleigh(x)
    lower = max(0.0, _collatz_wielandt(lin, x, mx)[0])
    del mx  # the loop forms its own; not kept alive beside the first band
    solve, sigma = shift(lower, 0.0)
    if solve is None:
        raise IndefiniteOperatorError(
            "linearization is numerically singular", nu_estimate=0.0)

    for it in range(1, max_iter + 1):
        y = solve(x)
        norm = float(np.linalg.norm(y))
        if not np.isfinite(norm) or norm == 0.0:
            raise IndefiniteOperatorError(
                "inverse iteration produced a degenerate vector", nu_estimate=0.0)
        # Fix the orientation by the dominant sign so the sign test below is
        # about the eigenvector, not about the iteration's arbitrary flip.
        if y.sum() < 0:
            norm = -norm
        x = y / norm
        last = residual
        mx, nu, gap, residual = rayleigh(x)
        if residual <= tol:
            break
        if x.min() > 0.0:
            lower, _, floor = _collatz_wielandt(lin, x, mx)
            if gap <= floor:
                break
            # Re-shift while the cap leaves room for a fallback factor.
            if (factors + 2 <= _MAX_FACTORS and residual > 0.1 * last
                    and lower - sigma > 0.5 * (nu - sigma)):
                solve = None  # drop the old band before building the next
                solve, sigma = shift(lower, sigma)
    else:
        raise EigenConvergenceError(
            f"principal eigenpair did not converge in {max_iter} iterations "
            f"(last residual {residual:.3e})")

    if nu <= 0.0:
        raise IndefiniteOperatorError(
            f"principal eigenvalue is not positive (estimate {nu:.6e})",
            nu_estimate=nu)
    if x.min() <= 0.0:
        raise IndefiniteOperatorError(
            f"principal eigenvector is not positive (eigenvalue estimate {nu:.6e})",
            nu_estimate=nu)

    phi, psi = x[:n].copy(), x[n:].copy()
    # Normalize in the quadrature metric; a second pass lands within an ulp.
    for _ in range(2):
        mass = integrate(phi * phi, grid) + integrate(psi * psi, grid)
        scale = 1.0 / np.sqrt(mass)
        phi *= scale
        psi *= scale
        if mass == 1.0:
            break
    x = np.concatenate([phi, psi])
    lower, upper, _ = _collatz_wielandt(lin, x, lin.apply(x))
    return EigenPair(nu1=nu, phi=phi, psi=psi, residual=residual, iterations=it,
                     nu1_lower=lower, nu1_upper=upper, factorizations=factors)
