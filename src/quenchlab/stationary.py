"""Steady states of the coupled system, the existence region, and its boundary.

The coupled steady problem is

    A w = lam * alpha * f(z),      A z = mu * beta * g(w),

with A the discrete negative Laplacian.  Because f and g are increasing and
A^{-1} is entrywise nonnegative, the fixed-point iteration started from zero
is pointwise nondecreasing: it either converges (to the minimal solution) or
climbs toward the blow-up level 1.  That dichotomy is the membership test for
the existence region in the (lam, mu) quadrant.

The boundary of that region is the fold of the minimal branch.  A curve
sample solves for it by Newton on the Moore-Spence extended system and
brackets it with two honest checks: escape of the iterates just above, and
just below a supersolution, a pair (w, z) below the escape level with
A w >= lam alpha f(z) and A z >= mu beta g(w), which bounds the monotone
iterates and so proves existence without iterating (the linearized system has no variational
characterization, so no eigenvalue estimate is used).  Bisection on the
membership verdicts remains the fallback.

Every function here takes A from its grid (``grid.laplacian``) and, where an
estimate needs it, the principal pair (lambda1, phi) of A in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverBreakdownError
from .grid import (
    FloatArray,
    Grid,
    integrate,
    principal_laplacian_eigenpair,
    solve_poisson,
)
from .model import Model, ParamPoint

DEFAULT_TOL_STAT = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_DELTA_BLOW = 1e-4
DEFAULT_TOL_RES = 1e-8
DEFAULT_BISECT_TOL = 1e-3


@dataclass(frozen=True)
class StationarySolution:
    """A steady pair with its convergence evidence."""

    w: FloatArray
    z: FloatArray
    params: ParamPoint
    iterations: int
    final_change: float
    residual_w: float
    residual_z: float

    @property
    def residual(self) -> float:
        return max(self.residual_w, self.residual_z)


@dataclass(frozen=True)
class InLambda:
    """Membership verdict: the parameter point admits a steady state."""

    solution: StationarySolution
    status = "in-lambda"


@dataclass(frozen=True)
class NotInLambda:
    """Membership verdict: no steady state; evidence is either the analytic
    nonexistence box or escape of the monotone iterates toward 1."""

    evidence: str  # "analytic-bound" | "iterate-escape"
    detail: dict
    status = "not-in-lambda"


@dataclass(frozen=True)
class Undetermined:
    """Membership verdict: iteration budget exhausted before a decision."""

    iterations: int
    last_change: float
    hint: str
    status = "undetermined"


MembershipVerdict = InLambda | NotInLambda | Undetermined


def _steady_residual(grid: Grid, model: Model, params: ParamPoint,
                     w: FloatArray, z: FloatArray, tol_res: float
                     ) -> tuple[FloatArray, FloatArray, bool]:
    """Residuals (A w - lam alpha f(z), A z - mu beta g(w)) and whether the sup
    norm of each is within tol_res of its source's size, lam max(alpha)
    f(max z) and mu max(beta) g(max w)."""
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    op = grid.laplacian
    fw = op.apply(w) - params.lam * alpha * model.f.value(z)
    fz = op.apply(z) - params.mu * beta * model.g.value(w)
    scale_w = params.lam * float(alpha.max()) * model.f.value(min(float(z.max()), 1.0 - 1e-12))
    scale_z = params.mu * float(beta.max()) * model.g.value(min(float(w.max()), 1.0 - 1e-12))
    met = (float(np.abs(fw).max()) <= tol_res * scale_w
           and float(np.abs(fz).max()) <= tol_res * scale_z)
    return fw, fz, met


def monotone_minimal_solution(grid: Grid, model: Model, params: ParamPoint, *,
                              tol_stat: float = DEFAULT_TOL_STAT,
                              max_iter: int = DEFAULT_MAX_ITER,
                              delta_blow: float = DEFAULT_DELTA_BLOW,
                              tol_res: float = DEFAULT_TOL_RES,
                              iterate_hook: Callable[[int, FloatArray, FloatArray], None] | None = None
                              ) -> MembershipVerdict:
    """Monotone iteration from the zero pair; classifies the parameter point.

    The update solves for the increments, whose right-hand sides are
    nonnegative whenever the iterates are ordered, so the iterates are
    pointwise nondecreasing by construction (a floor at 0 absorbs sub-ulp
    sign noise from the nonlinearity evaluations).  Outcomes:

    - converged (sup-norm change <= tol_stat) and residuals verified: InLambda;
    - an iterate reaches max >= 1 - delta_blow: NotInLambda (iterate escape);
    - lam or mu beyond the analytic nonexistence box: NotInLambda, no iteration;
    - budget exhausted: Undetermined with a max_iter hint.
    """
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, model)
    if params.lam > lam_bar or params.mu > mu_bar:
        return NotInLambda(
            evidence="analytic-bound",
            detail={"lam_bar": lam_bar, "mu_bar": mu_bar,
                    "lam": params.lam, "mu": params.mu},
        )

    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    escape = 1.0 - delta_blow
    op = grid.laplacian

    x = np.zeros((grid.n_total, 2), order="F")  # the iterate (w, z) as one block
    w, z = x.T
    source_prev = np.zeros_like(x)
    change = math.inf

    for it in range(1, max_iter + 1):
        source = np.array([params.lam * alpha * model.f.value(z),
                           params.mu * beta * model.g.value(w)]).T
        b = np.maximum(source - source_prev, 0.0)
        try:
            inc = solve_poisson(op, b)
        except (SolverBreakdownError, ValueError):
            # A source overflowed (exp does past s = 0.9986, below the escape
            # level).  A^-1 >= 0 with (A^-1)_jj >= 1/A_jj, so for b >= 0 the
            # next iterate is at least x + b/diag(A): escape needs no solve.
            bound = float((x + b / op.matrix.diagonal()[:, None]).max())
            if not bound >= escape:
                raise
            return NotInLambda(
                evidence="iterate-escape",
                detail={"iteration": it, "max_value": bound, "delta_blow": delta_blow},
            )
        np.maximum(inc, 0.0, out=inc)
        x = x + inc
        w, z = x.T
        source_prev = source
        if iterate_hook is not None:
            iterate_hook(it, w, z)

        top = float(x.max())
        if top >= escape:
            return NotInLambda(
                evidence="iterate-escape",
                detail={"iteration": it, "max_value": top, "delta_blow": delta_blow},
            )

        change = float(inc.max())
        if change <= tol_stat:
            fw, fz, met = _steady_residual(grid, model, params, w, z, tol_res)
            if met:
                return InLambda(solution=StationarySolution(
                    w=w, z=z, params=params, iterations=it,
                    final_change=change, residual_w=float(np.abs(fw).max()),
                    residual_z=float(np.abs(fz).max())))
            return Undetermined(
                iterations=it, last_change=change,
                hint="iteration converged but the residual target was not met; "
                     "check the linear-solver tolerance")

    return Undetermined(
        iterations=max_iter, last_change=change,
        hint="increase max_iter; the iteration had not settled or escaped")


def analytic_nonexistence_bound(grid: Grid, model: Model) -> tuple[float, float]:
    """Closed-form box containing the whole existence region.

    Pairing each steady equation with the principal eigenfunction (quadrature
    normalized to 1) shows existence forces
    lam <= lambda1 / (f(0) * integral(alpha * phi))  and the mirror bound in mu.
    Parameter points beyond either value are classified without iteration.
    """
    lam1, phi = principal_laplacian_eigenpair(grid.laplacian)
    alpha_mass = integrate(model.alpha.sample(grid) * phi, grid)
    beta_mass = integrate(model.beta.sample(grid) * phi, grid)
    if alpha_mass <= 0 or beta_mass <= 0:
        raise ValueError("weights must be nontrivial for the nonexistence bound")
    return (lam1 / (model.f.at_zero * alpha_mass),
            lam1 / (model.g.at_zero * beta_mass))


@dataclass(frozen=True)
class CurveSample:
    """The critical mu at one lam, bracketed in [bracket_lo, bracket_hi].

    With status "ok" the lower end admits a steady state and the upper end
    does not.  Where the fold Newton converges and both checks pass, the ends
    are mu_f (1 -+ bisect_tol/4) around its fold mu_f, the lower one proved by
    a supersolution and the upper one by iterate escape; otherwise bisection
    on membership verdicts sets them.  ``evaluations`` counts the parameter
    points decided: membership verdicts plus supersolution checks (Newton
    steps are not counted).
    """

    lam: float
    mu_critical: float
    bracket_lo: float
    bracket_hi: float
    status: str  # "ok" | "wide-bracket" | "no-bracket"
    evaluations: int


@dataclass(frozen=True)
class CriticalCurve:
    """Sampled boundary of the existence region, with its axis intercepts."""

    samples: tuple[CurveSample, ...]
    lambda_star: tuple[float, float]
    mu_star: tuple[float, float]
    bisect_tol: float

    def is_non_increasing(self) -> bool:
        """Monotonicity check up to bracket widths: consecutive samples must
        not force an increase."""
        ok = [s for s in self.samples if s.status != "no-bracket"]
        return all(b.bracket_lo <= a.bracket_hi for a, b in zip(ok, ok[1:]))


def _is_supersolution(grid: Grid, model: Model, params: ParamPoint,
                      w: FloatArray, z: FloatArray, *,
                      delta_blow: float = DEFAULT_DELTA_BLOW) -> bool:
    """Whether the pair proves, without iterating, that params admits a steady
    state below the escape level 1 - delta_blow.

    Requires 0 <= w, z < 1 - delta_blow and, at every node,
    A w - lam alpha f(z) > r_w and A z - mu beta g(w) > r_z.  Because A^{-1} is
    entrywise nonnegative and f, g are increasing, the monotone iterates from
    zero then stay below (w, z) and converge to a steady pair there.  The
    rounding allowance r = 64 eps (||A|| ||x|| + |source| + y |d source/dy|),
    x the field on the left and y the source's argument, covers the evaluated
    stencil product and source, the last term the source's sensitivity to
    rounding inside f or g.
    """
    if (min(float(w.min()), float(z.min())) < 0.0
            or max(float(w.max()), float(z.max())) >= 1.0 - delta_blow):
        return False
    op = grid.laplacian
    eps = np.finfo(float).eps
    for x, y, amp, weight, nl in ((w, z, params.lam, model.alpha, model.f),
                                  (z, w, params.mu, model.beta, model.g)):
        coeff = amp * weight.sample(grid)
        source = coeff * nl.value(y)
        allowance = 64.0 * eps * (op.stencil_norm * float(np.abs(x).max())
                                  + np.abs(source) + y * coeff * nl.deriv(y))
        if not np.all(op.apply(x) - source > allowance):
            return False
    return True


@dataclass(frozen=True)
class _Fold:
    """A root of the extended system at fixed lam: the steady pair (w, z) at
    mu and a null vector (phi, psi) of its linearization, sum(phi + psi) = 2n."""

    w: FloatArray
    z: FloatArray
    phi: FloatArray
    psi: FloatArray
    mu: float

    def lifted(self, model: Model, delta: float) -> tuple[FloatArray, FloatArray]:
        """(w + eps phi, z), the candidate supersolution at mu (1 - delta).

        At first order the lift costs the z equation mu beta g'(w) eps phi of
        its margin mu beta delta g(w) and adds lam alpha f'(z) eps psi to the
        w equation's; eps spends half of the smallest z margin.
        """
        eps = 0.5 * delta * float((model.g.value(self.w)
                                   / (model.g.deriv(self.w) * self.phi)).min())
        return self.w + eps * self.phi, self.z


# From the starts _bisect_critical gives it, Newton on the extended system took
# 3 to 7 steps per sample of configs/curve.ini and at most 12 over the families,
# profiles and dimensions tried; a start that needs more is left to bisection.
_FOLD_NEWTON_STEPS = 20


def _fold_newton(grid: Grid, model: Model, lam: float, start: _Fold, *,
                 tol_res: float, delta_blow: float) -> _Fold | None:
    """Newton on the Moore-Spence extended system at fixed lam (Moore & Spence,
    SIAM J. Numer. Anal. 17, 1980):

        F(w, z; mu) = 0,   M(w, z; mu) (phi, psi) = 0,   sum(phi + psi) = 2n,

    with M ``assemble_linearization``'s matrix.  A simple fold of the steady
    branch is a regular root.  Each step solves one sparse system of size
    4n + 1: M twice on the diagonal, the second derivatives of f and g coupling
    (phi, psi) to (w, z), and the mu column (0, -beta g(w), 0, -beta g'(w) phi).
    A step that would take (w, z) out of [0, 1 - delta_blow) or mu out of
    (0, inf) is halved until it does not.  Converged when F meets
    ``_steady_residual``'s tol_res test and M (phi, psi) the same test against
    the coupling terms.  Returns None when halving cannot keep the iterate
    admissible, a factorization is singular, the step cap runs out, or the
    converged null vector is not positive.
    """
    from .spectra import assemble_linearization  # deferred: spectra builds on this module's outputs

    n = grid.n_total
    cap = 1.0 - delta_blow
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    norm_row = sp.csr_matrix(np.ones((1, 2 * n)))
    zeros = np.zeros(n)

    def admissible(x: FloatArray) -> bool:
        return bool(x[-1] > 0.0 and x[:2 * n].min() >= 0.0 and x[:2 * n].max() < cap)

    x = np.concatenate([start.w, start.z, start.phi, start.psi, [start.mu]])
    for it in range(_FOLD_NEWTON_STEPS + 1):
        w, z, phi, psi, mu = x[:n], x[n:2 * n], x[2 * n:3 * n], x[3 * n:4 * n], float(x[-1])
        params = ParamPoint(lam=lam, mu=mu)
        fw, fz, met = _steady_residual(grid, model, params, w, z, tol_res)
        lin = assemble_linearization(grid, model, params, w, z).matrix
        null = lin @ x[2 * n:4 * n]
        dg = model.g.deriv(w)
        couple_w = np.abs(lam * alpha * model.f.deriv(z) * psi).max()
        couple_z = np.abs(mu * beta * dg * phi).max()
        if (met and np.abs(null[:n]).max() <= tol_res * couple_w
                and np.abs(null[n:]).max() <= tol_res * couple_z):
            if phi.min() > 0.0 and psi.min() > 0.0:
                return _Fold(w=w, z=z, phi=phi, psi=psi, mu=mu)
            return None
        if it == _FOLD_NEWTON_STEPS:
            return None
        curvature = sp.diags([-mu * beta * model.g.deriv2(w) * phi,
                              -lam * alpha * model.f.deriv2(z) * psi],
                             [-n, n], shape=(2 * n, 2 * n))
        jac = sp.bmat(
            [[lin, None, np.concatenate([zeros, -beta * model.g.value(w)])[:, None]],
             [curvature, lin, np.concatenate([zeros, -beta * dg * phi])[:, None]],
             [None, norm_row, None]], format="csc")
        rhs = -np.concatenate([fw, fz, null, [phi.sum() + psi.sum() - 2.0 * n]])
        try:
            step = spla.splu(jac).solve(rhs)
        except RuntimeError:
            return None  # singular: the start is too far from a simple fold
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        while not admissible(x + t * step):
            t /= 2.0
            if t < 2.0**-10:
                return None
        x = x + t * step
    return None


def _bisect_critical(grid: Grid, model: Model, lam: float, mu_bar: float,
                     warm: _Fold | None, *,
                     bisect_tol: float,
                     tol_stat: float,
                     tol_res: float,
                     max_iter: int,
                     max_iter_doublings: int,
                     delta_blow: float,
                     floor_factor: float) -> tuple[CurveSample, _Fold | None]:
    """Locate the largest admissible mu at fixed lam; also return the fold
    that certified it, if one did.

    Membership verdicts run the monotone iteration with an iteration budget.
    The upper end starts just beyond the analytic bound mu_bar (guaranteed
    outside); the lower end is found by halving until an InLambda point shows
    up.  Then the fold Newton runs from ``warm`` (the previous sample's fold)
    or, failing that, from the lower end's minimal solution with phi = psi
    the Laplacian's principal eigenfunction.  A fold mu_f inside the bracket
    gives the bracket [mu_f (1 - d), mu_f (1 + d)], d = bisect_tol / 4, when
    the lifted pair (w_f + eps phi_f, z_f) is a supersolution at the lower end
    and the verdict at the upper end is NotInLambda.  Otherwise bisection
    goes on from the bracket already held: Undetermined verdicts shrink it
    from neither side, and the budget is doubled up to a cap, after which
    the bracket is accepted as is.
    """
    evaluations = 0

    def membership(mu: float, budget: int) -> MembershipVerdict:
        nonlocal evaluations
        evaluations += 1
        return monotone_minimal_solution(
            grid, model, ParamPoint(lam=lam, mu=mu), tol_stat=tol_stat,
            max_iter=budget, delta_blow=delta_blow, tol_res=tol_res)

    hi = mu_bar * (1.0 + 1e-9)
    floor = mu_bar * floor_factor
    budget = max_iter
    lo = None
    probe = mu_bar / 2.0
    while probe >= floor:
        verdict = membership(probe, budget)
        if isinstance(verdict, InLambda):
            lo = probe
            break
        if isinstance(verdict, NotInLambda):
            hi = probe
        probe /= 2.0
    if lo is None:
        return CurveSample(lam=lam, mu_critical=math.nan,
                           bracket_lo=0.0, bracket_hi=hi,
                           status="no-bracket", evaluations=evaluations), None

    _, phi = principal_laplacian_eigenpair(grid.laplacian)
    phi = phi * (grid.n_total / phi.sum())
    cold = _Fold(w=verdict.solution.w, z=verdict.solution.z, phi=phi, psi=phi, mu=lo)
    fold = None
    for start in (warm, cold):
        if start is not None and fold is None:
            fold = _fold_newton(grid, model, lam, start,
                                tol_res=tol_res, delta_blow=delta_blow)
    # A bracket halving left within tolerance (bisect_tol >= 1/2) needs no fold.
    if fold is not None and lo < fold.mu < hi and (hi - lo) > bisect_tol * hi:
        delta = bisect_tol / 4.0
        below, above = fold.mu * (1.0 - delta), fold.mu * (1.0 + delta)
        evaluations += 1
        if (_is_supersolution(grid, model, ParamPoint(lam=lam, mu=below),
                              *fold.lifted(model, delta), delta_blow=delta_blow)
                and isinstance(membership(above, budget), NotInLambda)):
            lo, hi = below, above
        else:
            fold = None
    else:
        fold = None

    status = "ok"
    budget_cap = max_iter * 2**max_iter_doublings
    while (hi - lo) > bisect_tol * hi:
        mid = 0.5 * (lo + hi)
        verdict = membership(mid, budget)
        if isinstance(verdict, InLambda):
            lo = mid
        elif isinstance(verdict, NotInLambda):
            hi = mid
        else:
            if budget < budget_cap:
                budget *= 2
            else:
                status = "wide-bracket"
                break
    return CurveSample(lam=lam, mu_critical=0.5 * (lo + hi),
                       bracket_lo=lo, bracket_hi=hi,
                       status=status, evaluations=evaluations), fold


def trace_critical_curve(grid: Grid, model: Model, lam_samples, *,
                         bisect_tol: float = DEFAULT_BISECT_TOL,
                         tol_stat: float = DEFAULT_TOL_STAT,
                         tol_res: float = DEFAULT_TOL_RES,
                         max_iter: int = 2000,
                         max_iter_doublings: int = 4,
                         delta_blow: float = DEFAULT_DELTA_BLOW,
                         floor_factor: float = 1e-6) -> CriticalCurve:
    """Trace of the existence-region boundary over given lam samples.

    Each sample brackets the critical mu with ``_bisect_critical``, whose fold
    Newton starts from the previous sample's fold.  The axis intercepts go
    through the same function with the other parameter at its bracket floor;
    the lam intercept uses the swapped model (f and g, alpha and beta
    exchanged), whose critical mu is the original critical lam.
    """
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, model)
    settings = dict(bisect_tol=bisect_tol, tol_stat=tol_stat, tol_res=tol_res,
                    max_iter=max_iter, max_iter_doublings=max_iter_doublings,
                    delta_blow=delta_blow, floor_factor=floor_factor)

    samples = []
    fold = None
    for lam in lam_samples:
        sample, fold = _bisect_critical(grid, model, float(lam), mu_bar, fold, **settings)
        samples.append(sample)

    # Axis intercepts: the critical value of one parameter with the other at
    # its bracket floor (the curve is approached from inside the quadrant).
    swapped = Model(f=model.g, g=model.f, alpha=model.beta, beta=model.alpha)
    lam_star, _ = _bisect_critical(grid, swapped, mu_bar * floor_factor, lam_bar,
                                   None, **settings)
    mu_star, _ = _bisect_critical(grid, model, lam_bar * floor_factor, mu_bar,
                                  None, **settings)

    return CriticalCurve(
        samples=tuple(samples),
        lambda_star=(lam_star.bracket_lo, lam_star.bracket_hi),
        mu_star=(mu_star.bracket_lo, mu_star.bracket_hi),
        bisect_tol=bisect_tol)


def second_solution_search(grid: Grid, model: Model, params: ParamPoint,
                           minimal: StationarySolution, *,
                           seed_amplitude: float = 0.8,
                           tol_res: float = DEFAULT_TOL_RES,
                           max_newton: int = 80,
                           delta_blow: float = DEFAULT_DELTA_BLOW
                           ) -> StationarySolution | None:
    """Damped Newton search for a steady state above the minimal one.

    Seeds from the minimal solution's shape scaled to ``seed_amplitude`` and
    keeps every iterate inside [0, 1 - delta_blow) by step halving.  Returns
    None when the search stalls, diverges, or lands back on the minimal
    solution; success is best effort by design.
    """
    from .spectra import assemble_linearization  # deferred: spectra builds on this module's outputs

    cap = 1.0 - delta_blow

    w0, z0 = minimal.w, minimal.z
    if w0.max() <= 0 or z0.max() <= 0:
        return None
    w = np.minimum(seed_amplitude * w0 / w0.max(), cap - 1e-12)
    z = np.minimum(seed_amplitude * z0 / z0.max(), cap - 1e-12)

    def sup(fw: FloatArray, fz: FloatArray) -> float:
        return max(float(np.abs(fw).max()), float(np.abs(fz).max()))

    fw, fz, met = _steady_residual(grid, model, params, w, z, tol_res)
    rnorm = sup(fw, fz)
    step_size = math.nan
    for it in range(1, max_newton + 1):
        if met:
            break
        lin = assemble_linearization(grid, model, params, w, z)
        try:
            delta = spla.spsolve(lin.matrix.tocsc(), -np.concatenate([fw, fz]))
        except RuntimeError:
            return None  # singular linearization: the search has hit the fold
        if not np.all(np.isfinite(delta)):
            return None
        dw, dz = delta[:grid.n_total], delta[grid.n_total:]

        t = 1.0
        accepted = False
        while t >= 2.0**-12:
            wn = w + t * dw
            zn = z + t * dz
            if wn.min() < 0 or zn.min() < 0 or max(wn.max(), zn.max()) >= cap:
                t /= 2
                continue
            fwn, fzn, metn = _steady_residual(grid, model, params, wn, zn, tol_res)
            rn = sup(fwn, fzn)
            if rn <= (1.0 - 0.25 * t) * rnorm:
                w, z, fw, fz, met, rnorm = wn, zn, fwn, fzn, metn, rn
                step_size = t * max(float(np.abs(dw).max()), float(np.abs(dz).max()))
                accepted = True
                break
            t /= 2
        if not accepted:
            return None
    else:
        return None

    # Reject convergence back to the minimal pair and anything not ordered
    # above it; the genuine upper branch clears both margins comfortably.
    gap = max(float((w - w0).max()), float((z - z0).max()))
    if gap <= 1e-6:
        return None
    if float((w - w0).min()) < 0.0 or float((z - z0).min()) < 0.0:
        return None
    return StationarySolution(
        w=w, z=z, params=params, iterations=it,
        final_change=step_size,
        residual_w=float(np.abs(fw).max()),
        residual_z=float(np.abs(fz).max()))


@dataclass(frozen=True)
class MassBoundReport:
    """Weighted-mass inequalities satisfied by every steady state."""

    mass_w: float
    bound_w: float
    mass_z: float
    bound_z: float
    passes: bool

    @property
    def slack_w(self) -> float:
        return self.bound_w - self.mass_w

    @property
    def slack_z(self) -> float:
        return self.bound_z - self.mass_z


def _weighted_masses(grid: Grid, model: Model, first: FloatArray,
                     second: FloatArray, names: tuple[str, str]
                     ) -> tuple[float, float, float, float, float]:
    """(lambda1, K_alpha, K_beta, integral(first * phi), integral(second * phi))
    with (lambda1, phi) the grid's principal pair (phi of unit mass) and
    K_alpha = integral(phi / alpha), K_beta = integral(phi / beta).  ``names``
    label the two fields in shape errors; the weights must be positive.
    """
    lam1, phi = principal_laplacian_eigenpair(grid.laplacian)
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    if alpha.min() <= 0 or beta.min() <= 0:
        raise ValueError("weighted-mass pairing needs strictly positive weights")
    return (lam1, integrate(phi / alpha, grid), integrate(phi / beta, grid),
            integrate(grid.check_field(first, names[0]) * phi, grid),
            integrate(grid.check_field(second, names[1]) * phi, grid))


def mass_bound_check(w: FloatArray, z: FloatArray, grid: Grid, model: Model,
                     params: ParamPoint, *, slack: float = 1e-8) -> MassBoundReport:
    """Check integral(w * phi) <= lambda1 * integral(phi/alpha) / (lam * f(0))
    and the mirror inequality, with phi the unit-mass principal eigenfunction.
    """
    lam1, k_alpha, k_beta, mass_w, mass_z = _weighted_masses(
        grid, model, w, z, ("w", "z"))
    bound_w = lam1 * k_alpha / (params.lam * model.f.at_zero)
    bound_z = lam1 * k_beta / (params.mu * model.g.at_zero)
    passes = (bound_w - mass_w >= -slack) and (bound_z - mass_z >= -slack)
    return MassBoundReport(mass_w=mass_w, bound_w=bound_w,
                           mass_z=mass_z, bound_z=bound_z, passes=passes)


def ordered_triple_artifact(grid: Grid,
                            first: tuple[FloatArray, FloatArray],
                            second: tuple[FloatArray, FloatArray],
                            third: tuple[FloatArray, FloatArray], *,
                            margin: float = 1e-8) -> bool:
    """Flag three steady pairs that are strictly ordered with an interior margin.

    No such chain exists for this system, so a True return marks the middle
    solution as a numerical artifact.  Strictness is measured against the
    boundary-distance profile: a - b >= margin * dist(x, boundary) everywhere.
    """
    rho = margin * grid.boundary_distance()

    def strictly_below(lo: tuple[FloatArray, FloatArray],
                       hi: tuple[FloatArray, FloatArray]) -> bool:
        return all(np.all(h - l >= rho) for l, h in zip(lo, hi))

    return strictly_below(first, second) and strictly_below(second, third)
