"""Steady states of the coupled system, the existence region, and its boundary.

The coupled steady problem is

    A w = lam * alpha * f(z),      A z = mu * beta * g(w),

with A the discrete negative Laplacian.  Because f and g are increasing and
A^{-1} is entrywise nonnegative, the fixed-point iteration started from zero
is pointwise nondecreasing: it either converges (to the minimal solution) or
climbs toward the blow-up level 1.  That dichotomy is the membership test for
the existence region in the (lam, mu) quadrant.

Every function here takes A from its grid (``grid.laplacian``) and, where an
estimate needs it, the principal pair (lambda1, phi) of A in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

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


def _residual_scale(params: ParamPoint, alpha_max: float, beta_max: float,
                    model: Model, w: FloatArray, z: FloatArray) -> tuple[float, float]:
    scale_w = params.lam * alpha_max * model.f.value(min(float(z.max()), 1.0 - 1e-12))
    scale_z = params.mu * beta_max * model.g.value(min(float(w.max()), 1.0 - 1e-12))
    return scale_w, scale_z


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
    alpha_max = float(alpha.max())
    beta_max = float(beta.max())
    escape = 1.0 - delta_blow
    op = grid.laplacian

    n = grid.n_total
    w = np.zeros(n)
    z = np.zeros(n)
    rhs_w_prev = np.zeros(n)
    rhs_z_prev = np.zeros(n)
    change = math.inf

    for it in range(1, max_iter + 1):
        rhs_w = params.lam * alpha * model.f.value(z)
        rhs_z = params.mu * beta * model.g.value(w)
        dw = solve_poisson(op, np.maximum(rhs_w - rhs_w_prev, 0.0))
        dz = solve_poisson(op, np.maximum(rhs_z - rhs_z_prev, 0.0))
        np.maximum(dw, 0.0, out=dw)
        np.maximum(dz, 0.0, out=dz)
        w = w + dw
        z = z + dz
        rhs_w_prev = rhs_w
        rhs_z_prev = rhs_z
        if iterate_hook is not None:
            iterate_hook(it, w, z)

        top = max(float(w.max()), float(z.max()))
        if top >= escape:
            return NotInLambda(
                evidence="iterate-escape",
                detail={"iteration": it, "max_value": top, "delta_blow": delta_blow},
            )

        change = max(float(dw.max()), float(dz.max()))
        if change <= tol_stat:
            res_w = float(np.abs(op.apply(w) - params.lam * alpha * model.f.value(z)).max())
            res_z = float(np.abs(op.apply(z) - params.mu * beta * model.g.value(w)).max())
            scale_w, scale_z = _residual_scale(params, alpha_max, beta_max, model, w, z)
            if res_w <= tol_res * scale_w and res_z <= tol_res * scale_z:
                return InLambda(solution=StationarySolution(
                    w=w, z=z, params=params, iterations=it,
                    final_change=change, residual_w=res_w, residual_z=res_z))
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
    """One bisection result: mu_critical is bracketed in [bracket_lo, bracket_hi]."""

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


def _bisect_critical(membership: Callable[[float, int], MembershipVerdict],
                     value_bar: float, *,
                     bisect_tol: float,
                     max_iter: int,
                     max_iter_doublings: int,
                     floor_factor: float) -> CurveSample:
    """Locate the largest admissible value of one parameter, the other fixed.

    ``membership(value, budget)`` runs the monotone iteration with an iteration
    budget.  The upper end starts just beyond the analytic bound (guaranteed
    outside); the lower end is found by halving until an InLambda point shows
    up.  Undetermined verdicts shrink the bracket from neither side: the budget
    is doubled up to a cap, after which the bracket is accepted as is.
    """
    evaluations = 0
    hi = value_bar * (1.0 + 1e-9)
    floor = value_bar * floor_factor
    budget = max_iter
    lo = None
    probe = value_bar / 2.0
    while probe >= floor:
        verdict = membership(probe, budget)
        evaluations += 1
        if isinstance(verdict, InLambda):
            lo = probe
            break
        if isinstance(verdict, NotInLambda):
            hi = probe
        probe /= 2.0
    if lo is None:
        return CurveSample(lam=math.nan, mu_critical=math.nan,
                           bracket_lo=0.0, bracket_hi=hi,
                           status="no-bracket", evaluations=evaluations)

    status = "ok"
    budget_cap = max_iter * 2**max_iter_doublings
    while (hi - lo) > bisect_tol * hi:
        mid = 0.5 * (lo + hi)
        verdict = membership(mid, budget)
        evaluations += 1
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
    return CurveSample(lam=math.nan, mu_critical=0.5 * (lo + hi),
                       bracket_lo=lo, bracket_hi=hi,
                       status=status, evaluations=evaluations)


def trace_critical_curve(grid: Grid, model: Model, lam_samples, *,
                         bisect_tol: float = DEFAULT_BISECT_TOL,
                         tol_stat: float = DEFAULT_TOL_STAT,
                         max_iter: int = 2000,
                         max_iter_doublings: int = 4,
                         delta_blow: float = DEFAULT_DELTA_BLOW,
                         floor_factor: float = 1e-6) -> CriticalCurve:
    """Bisection trace of the existence-region boundary over given lam samples.

    Also bisects both axis intercepts the same way, holding the other
    parameter at its bracket floor.
    """
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, model)

    def verdict_at(lam: float, mu: float, budget: int) -> MembershipVerdict:
        return monotone_minimal_solution(
            grid, model, ParamPoint(lam=lam, mu=mu),
            tol_stat=tol_stat, max_iter=budget, delta_blow=delta_blow)

    def locate_mu(lam: float) -> CurveSample:
        raw = _bisect_critical(
            lambda mu, budget: verdict_at(lam, mu, budget), mu_bar,
            bisect_tol=bisect_tol, max_iter=max_iter,
            max_iter_doublings=max_iter_doublings, floor_factor=floor_factor)
        return CurveSample(lam=lam, mu_critical=raw.mu_critical,
                           bracket_lo=raw.bracket_lo, bracket_hi=raw.bracket_hi,
                           status=raw.status, evaluations=raw.evaluations)

    samples = [locate_mu(float(lam)) for lam in lam_samples]

    # Axis intercepts: the critical value of one parameter with the other at
    # its bracket floor (the curve is approached from inside the quadrant).
    lam_star = _bisect_critical(
        lambda lam, budget: verdict_at(lam, mu_bar * floor_factor, budget), lam_bar,
        bisect_tol=bisect_tol, max_iter=max_iter,
        max_iter_doublings=max_iter_doublings, floor_factor=floor_factor)
    mu_star = _bisect_critical(
        lambda mu, budget: verdict_at(lam_bar * floor_factor, mu, budget), mu_bar,
        bisect_tol=bisect_tol, max_iter=max_iter,
        max_iter_doublings=max_iter_doublings, floor_factor=floor_factor)

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

    op = grid.laplacian
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    alpha_max = float(alpha.max())
    beta_max = float(beta.max())
    cap = 1.0 - delta_blow

    w0, z0 = minimal.w, minimal.z
    if w0.max() <= 0 or z0.max() <= 0:
        return None
    w = np.minimum(seed_amplitude * w0 / w0.max(), cap - 1e-12)
    z = np.minimum(seed_amplitude * z0 / z0.max(), cap - 1e-12)

    def residual(wc: FloatArray, zc: FloatArray) -> tuple[FloatArray, FloatArray]:
        return (op.apply(wc) - params.lam * alpha * model.f.value(zc),
                op.apply(zc) - params.mu * beta * model.g.value(wc))

    def sup(fw: FloatArray, fz: FloatArray) -> float:
        return max(float(np.abs(fw).max()), float(np.abs(fz).max()))

    fw, fz = residual(w, z)
    rnorm = sup(fw, fz)
    step_size = math.nan
    for it in range(1, max_newton + 1):
        scale_w, scale_z = _residual_scale(params, alpha_max, beta_max, model, w, z)
        if (float(np.abs(fw).max()) <= tol_res * scale_w
                and float(np.abs(fz).max()) <= tol_res * scale_z):
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
            fwn, fzn = residual(wn, zn)
            rn = sup(fwn, fzn)
            if rn <= (1.0 - 0.25 * t) * rnorm:
                w, z, fw, fz, rnorm = wn, zn, fwn, fzn, rn
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
