"""Independent reference computations used to freeze expected values.

Nothing in here touches the package's own discretization: the matrices
below are assembled here from a grid's node counts and spacings.  The scalar
reduction below integrates the symmetric steady problem by quadrature of
its first integral, so agreement with the grid-based solver is evidence,
not circularity.  Frozen constants in frozen.py cite the function that
produced them; rerun this module directly to regenerate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar


def _primitive_power2(s: float) -> float:
    # antiderivative of (1-s)^-2 vanishing at 0
    return s / (1.0 - s)


def half_length_power2(m: float) -> float:
    """Half-width of the symmetric steady profile with midpoint value m.

    For -w'' = lam * (1-w)^-2 on a symmetric interval the first integral
    gives w'(x)^2 = 2*lam*(P(m) - P(w)) with P the primitive above, so the
    distance from the boundary to the midpoint is the time map

        T(m) = integral_0^m dw / sqrt(2 (P(m) - P(w)))

    evaluated at lam = 1; scaling then yields lam(m) = (2 T(m))^2 / 1 on
    the unit interval, i.e. lam(m) = 2 T(m)^2 / (1/2)^2.  The square-root
    endpoint singularity is removed by the substitution w = m (1 - t^2).
    """
    pm = _primitive_power2(m)

    def integrand(t: float) -> float:
        w = m * (1.0 - t * t)
        gap = pm - _primitive_power2(w)
        if gap <= 0.0:
            # limiting value at t = 0 from l'Hopital on the gap
            return 2.0 * m / np.sqrt(2.0 * m * (1.0 - m) ** -2)
        return 2.0 * m * t / np.sqrt(2.0 * gap)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def lam_of_midpoint_power2(m: float) -> float:
    """Parameter value whose symmetric steady profile peaks at m.

    On (0,1) the half-length is 1/2, so lam = (2 T(m))^2 with T the unit
    time map; the curve lam(m) rises from 0, peaks at the fold, and falls
    back toward 0 as m -> 1.
    """
    t_unit = half_length_power2(m)
    return (2.0 * t_unit) ** 2


def pull_in_power2() -> tuple[float, float]:
    """Fold location of the scalar problem: (lam_star, midpoint m_star)."""
    res = minimize_scalar(lambda m: -lam_of_midpoint_power2(m),
                          bounds=(0.05, 0.95), method="bounded",
                          options={"xatol": 1e-12})
    return -res.fun, res.x


def branch_midpoints_power2(lam: float) -> tuple[float, float]:
    """Midpoint values of the minimal and the second steady profile."""
    lam_star, m_star = pull_in_power2()
    if lam >= lam_star:
        raise ValueError("no steady profile beyond the fold")
    lo = brentq(lambda m: lam_of_midpoint_power2(m) - lam,
                1e-12, m_star, xtol=1e-14)
    hi = brentq(lambda m: lam_of_midpoint_power2(m) - lam,
                m_star, 1.0 - 1e-9, xtol=1e-14)
    return lo, hi


def stencil(grid) -> sp.csr_matrix:
    """The Dirichlet negative Laplacian A of a grid: tridiag(-1, 2, -1) / h^2
    in 1D, in 2D the Kronecker sum of the per-axis ones (x index inner)."""

    def tridiag(n: int, hh: float) -> sp.csr_matrix:
        off = np.full(n - 1, -1.0 / hh**2)
        return sp.diags([off, np.full(n, 2.0 / hh**2), off], [-1, 0, 1], format="csr")

    if grid.dimension == 1:
        return tridiag(grid.n_interior[0], grid.h[0])
    (nx, ny), (hx, hy) = grid.n_interior, grid.h
    return (sp.kron(sp.identity(ny), tridiag(nx, hx))
            + sp.kron(tridiag(ny, hy), sp.identity(nx))).tocsr()


def shifted_matrix(op) -> sp.csr_matrix:
    """s*I + c*A for an operator with identity_coeff s and operator_coeff c."""
    return (op.identity_coeff * sp.identity(op.grid.n_total, format="csr")
            + op.operator_coeff * stencil(op.grid)).tocsr()


def linearization_matrix(lin) -> sp.csr_matrix:
    """M = [[A, -diag(coupling_w)], [-diag(coupling_z), A]] of a linearization."""
    a = stencil(lin.grid)
    return sp.bmat([[a, sp.diags(-lin.coupling_w)], [sp.diags(-lin.coupling_z), a]],
                   format="csr")


def dense_principal_eigenvalue(matrix) -> float:
    """Smallest-real-part eigenvalue of the full coupled (sparse) matrix.

    Dense and O(n^3); for cross-checking the banded inverse iteration at
    modest sizes only.
    """
    from scipy.linalg import eig

    values = eig(matrix.toarray(), right=False)
    return float(np.min(values.real))


if __name__ == "__main__":
    lam_star, m_star = pull_in_power2()
    print(f"PULL_IN_POWER2   = {lam_star!r}")
    print(f"FOLD_MIDPOINT    = {m_star!r}")
    for lam in (1.0, 1.2):
        lo, hi = branch_midpoints_power2(lam)
        print(f"lam={lam}: minimal midpoint {lo!r}, second midpoint {hi!r}")
