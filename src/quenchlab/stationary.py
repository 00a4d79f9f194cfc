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
brackets it without iterating: above by pairing the steady equations with the
left null vector of the linearization, which is the Newton's own null vector
with its two fields swapped (``_fold_bound``; the linearization has no
variational characterization, so the pairing vector is the adjoint's), below
by a supersolution that bounds the monotone iterates (``_is_supersolution``).
Iterate escape and bisection on the membership verdicts are the fallbacks.  A
curve is traced fold first (``_critical_mus``) by predictor-corrector
continuation in lam (Allgower & Georg, Numerical Continuation Methods, 1990):
each sample's Newton starts from the secant extrapolation of the last two
folds, or from the last fold, and halving for a bracket runs only where that
fails.  A fold whose bound misses only by the residual Newton left takes one
more step before the fallbacks.

The fold and the second (upper-branch) steady state are both found by one
damped-Newton kernel, ``_damped_newton``, whose linear solves go through the
banded kernel ``spectra.CoupledBand``; each of its iterates evaluates the
steady terms (f, g and their derivatives, the stencil products, the checks)
once, through ``spectra._steady_terms``, which also checks Picard's limit.

Every function here takes A from its grid (``grid.laplacian``) and, where an
estimate needs it, the principal pair (lambda1, phi) of A from the grid
(``grid.principal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverBreakdownError
from .grid import FloatArray, Grid, integrate, solve_poisson
from .model import Model, ParamPoint
from .spectra import CoupledBand, _steady_terms

DEFAULT_TOL_STAT = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_DELTA_BLOW = 1e-4
DEFAULT_TOL_RES = 1e-8
DEFAULT_BISECT_TOL = 1e-3
_MASS_SLACK = 1e-8  # absolute tolerance of mass_bound_check


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
    sign noise from the nonlinearity evaluations).  The iterate (w, z) is the
    two columns of one (n, 2) block, advanced by one ``solve_poisson`` call
    per iteration; ``iterate_hook(it, w, z)`` sees each iterate.  Outcomes:

    - converged (sup-norm change <= tol_stat) and residuals verified: InLambda;
    - an iterate reaches max >= 1 - delta_blow: NotInLambda (iterate escape);
    - lam or mu beyond the analytic nonexistence box: NotInLambda, no iteration;
    - budget exhausted: Undetermined with a max_iter hint.
    """
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, model)
    if params.lam > lam_bar or params.mu > mu_bar:
        return NotInLambda(evidence="analytic-bound", detail={
            "lam_bar": lam_bar, "mu_bar": mu_bar, "lam": params.lam, "mu": params.mu})

    reaction = model.reaction(grid, params)
    escape = 1.0 - delta_blow
    x = np.zeros((grid.n_total, 2), order="F")  # the columns w, z
    source_prev = np.zeros_like(x)
    change = math.inf

    def escaped(it: int, top: float) -> NotInLambda:
        return NotInLambda(evidence="iterate-escape",
                           detail={"iteration": it, "max_value": top, "delta_blow": delta_blow})

    for it in range(1, max_iter + 1):
        source = reaction(x.T).T  # the columns lam alpha f(z), mu beta g(w)
        b = np.maximum(source - source_prev, 0.0)
        try:
            inc = solve_poisson(grid.laplacian, b)
        except (SolverBreakdownError, ValueError):
            # A source overflowed (exp does past s = 0.9986, below the escape
            # level).  A^-1 >= 0 with (A^-1)_jj >= 1/A_jj, so for b >= 0 the
            # next iterate is at least x + b/diag(A): escape needs no solve.
            bound = float((x + b / grid.stencil[0]).max())
            if not bound >= escape:
                raise
            return escaped(it, bound)
        np.maximum(inc, 0.0, out=inc)
        x = x + inc
        source_prev = source
        if iterate_hook is not None:
            iterate_hook(it, x[:, 0], x[:, 1])

        top, change = float(x.max()), float(inc.max())
        if top >= escape:
            return escaped(it, top)
        if change <= tol_stat:
            w, z = x[:, 0].copy(), x[:, 1].copy()
            terms = _steady_terms(grid, model, params, x.T, tol_res)
            if not terms.met:
                return Undetermined(
                    iterations=it, last_change=change,
                    hint="iteration converged but the residual target was not met; "
                         "check the linear-solver tolerance")
            return InLambda(solution=StationarySolution(
                w=w, z=z, params=params, iterations=it, final_change=change,
                residual_w=float(np.abs(terms.residual[0]).max()),
                residual_z=float(np.abs(terms.residual[1]).max())))

    return Undetermined(iterations=max_iter, last_change=change,
                        hint="increase max_iter; the iteration had not settled or escaped")


def analytic_nonexistence_bound(grid: Grid, model: Model) -> tuple[float, float]:
    """Closed-form box containing the whole existence region.

    Pairing each steady equation with the principal eigenfunction (quadrature
    normalized to 1) shows existence forces
    lam <= lambda1 / (f(0) * integral(alpha * phi))  and the mirror bound in mu.
    Parameter points beyond either value are classified without iteration.
    """
    lam1, phi = grid.principal
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
    a supersolution and the upper one by the fold bound (``_fold_bound``) or,
    where that declines, by iterate escape; otherwise bisection on membership
    verdicts sets them.  ``certificate`` says which: "fold" or "bisection".
    ``evaluations`` counts the parameter points decided: membership verdicts,
    supersolution checks and upper-end checks.  ``newton_steps`` counts the
    fold Newton's steps (factorizations of its Jacobian) for this sample,
    failed starts and a polishing step included.
    """

    lam: float
    mu_critical: float
    bracket_lo: float
    bracket_hi: float
    status: str  # "ok" | "wide-bracket" | "no-bracket"
    evaluations: int
    certificate: str  # "fold" | "bisection"
    newton_steps: int


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
    terms = _steady_terms(grid, model, params, np.array([w, z]), 0.0)
    eps = np.finfo(float).eps
    for row, (x, y, jet) in enumerate(((w, z, terms.f), (z, w, terms.g))):
        allowance = 64.0 * eps * (grid.stencil_norm * float(np.abs(x).max())
                                  + np.abs(terms.sources[row]) + y * terms.coeff[row] * jet[1])
        if not np.all(terms.residual[row] > allowance):
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

    @property
    def x(self) -> FloatArray:
        """The extended system's unknowns, stacked: (w, z, phi, psi, mu)."""
        return np.concatenate([self.w, self.z, self.phi, self.psi, [self.mu]])

    @classmethod
    def of(cls, x: FloatArray) -> "_Fold":
        """The fold whose stacked unknowns are x."""
        return cls(*x[:-1].reshape(4, -1), mu=float(x[-1]))

    def lifted(self, model: Model, delta: float) -> tuple[FloatArray, FloatArray]:
        """(w + eps phi, z), the candidate supersolution at mu (1 - delta).

        At first order the lift costs the z equation mu beta g'(w) eps phi of
        its margin mu beta delta g(w) and adds lam alpha f'(z) eps psi to the
        w equation's; eps spends half of the smallest z margin.
        """
        eps = 0.5 * delta * float((model.g.value(self.w)
                                   / (model.g.deriv(self.w) * self.phi)).min())
        return self.w + eps * self.phi, self.z


# From the starts _critical_mus gives it, Newton on the extended system took
# 2 to 7 steps per sample of configs/curve.ini and at most 12 over the families,
# profiles and dimensions tried; a start that needs more is left to bisection.
_FOLD_NEWTON_STEPS = 20
# Upper-branch searches that succeeded took up to 64 steps over the families,
# profiles, grids and seeds tried.
_SECOND_NEWTON_STEPS = 79


def _damped_newton(x: FloatArray, system: Callable, admissible: Callable[[FloatArray], bool],
                   *, steps: int, floor: float, decrease: float | None = None,
                   min_steps: int = 0) -> tuple[FloatArray, FloatArray, int, float] | None:
    """Damped Newton for system(x) = 0 from x.

    ``system(x)`` returns (residual, converged, factor), factor a thunk,
    called only to take a step, for a function solving with the Jacobian at x
    (None when its banded factor has an exactly zero pivot).  A step solves
    J step = -residual and moves to x + t step for the first t in
    1, 1/2, ... >= ``floor`` that is ``admissible`` and, with ``decrease`` set,
    shrinks the residual's sup norm by the factor 1 - decrease t (Deuflhard,
    Newton Methods for Nonlinear Problems, 2004).  At least ``min_steps``
    steps are taken, converged or not.  Returns (x, residual, steps, t
    |step|_inf of the last step or nan), or None on a singular factor, a
    non-finite step, no such t, or ``steps`` steps without convergence.
    """
    residual, converged, factor = system(x)
    taken, change = 0, math.nan
    while taken < min_steps or not converged:
        if taken == steps:
            return None
        solve = factor()  # None: singular, the start is too far from a regular root
        with np.errstate(all="ignore"):  # overflow and 0/0 end in the finiteness test
            step = None if solve is None else solve(-residual)
        if step is None or not np.all(np.isfinite(step)):
            return None
        t = 1.0
        while True:
            trial = x + t * step
            if admissible(trial):
                evaluated = system(trial)
                if decrease is None or (np.abs(evaluated[0]).max()
                                        <= (1.0 - decrease * t) * np.abs(residual).max()):
                    break
            t /= 2.0
            if t < floor:
                return None
        x, (residual, converged, factor) = trial, evaluated
        taken, change = taken + 1, t * float(np.abs(step).max())
    return x, residual, taken, change


def _bordered_solve(solve: Callable, b: FloatArray, c: FloatArray, rhs: FloatArray) -> FloatArray:
    """Solve [[J, b], [c^T, 0]] (x, s) = rhs, ``solve`` solving with J and J^T,
    by mixed block elimination (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993):
    s1 from J^T v = c, then x and a correction s2 from J; stable even at a fold."""
    f, g = rhs[:-1], rhs[-1]
    v = solve(c, trans=1)
    s1 = (g - v @ f) / -(b @ v)
    w, xi = solve(np.column_stack([b, f - b * s1])).T
    s2 = (g - c @ xi) / -(c @ w)
    return np.append(xi - w * s2, s1 + s2)


def _fold_newton(grid: Grid, model: Model, lam: float, start: _Fold, *, band: CoupledBand,
                 tol_res: float, delta_blow: float, min_steps: int = 0) -> _Fold | None:
    """Newton on the Moore-Spence extended system at fixed lam (Moore & Spence,
    SIAM J. Numer. Anal. 17, 1980):

        F(w, z; mu) = 0,   M(w, z; mu) (phi, psi) = 0,   sum(phi + psi) = 2n,

    with M ``assemble_linearization``'s operator.  A simple fold of the steady
    branch is a regular root.  The Jacobian is J = [[M, 0], [K, M]], K the
    second derivatives of f and g, bordered by the mu column
    (0, -beta g(w), 0, -beta g'(w) phi) and the normalization row; a step
    factors J once (``band``, ``CoupledBand(grid, 4)``) and eliminates the border
    (``_bordered_solve``).  A step that would take (w, z) out of
    [0, 1 - delta_blow) or mu out of (0, inf) is halved, down to 2^-10, and
    a start outside that range returns None at once.  Each iterate evaluates
    F, M (phi, psi) and the Jacobian's terms from one ``_steady_terms`` call
    on the stack (w, z, phi, psi).  Converged when F meets the tol_res test
    and M (phi, psi) the same test against the coupling terms, after at
    least ``min_steps`` steps (1 polishes a converged fold).  Returns None
    when ``_damped_newton`` fails within ``_FOLD_NEWTON_STEPS`` steps or the
    converged null vector is not positive.
    """
    n, cap, beta = grid.n_total, 1.0 - delta_blow, model.beta.sample(grid)
    zeros, normal = np.zeros(n), np.concatenate([np.zeros(2 * n), np.ones(2 * n)])

    def admissible(x: FloatArray) -> bool:
        return bool(0.0 < x[-1] < math.inf and x[:2 * n].min() >= 0.0 and x[:2 * n].max() < cap)

    def system(x: FloatArray):
        fields = x[:4 * n].reshape(4, n)
        phi, psi = fields[2:]
        terms = _steady_terms(grid, model, ParamPoint(lam=lam, mu=float(x[-1])), fields, tol_res)
        lin = terms.lin
        null = lin.coupled(terms.products, fields[2:])  # M (phi, psi)
        converged = (terms.met
                     and np.abs(null[0]).max() <= tol_res * np.abs(lin.coupling_w * psi).max()
                     and np.abs(null[1]).max() <= tol_res * np.abs(lin.coupling_z * phi).max())

        def factor() -> Callable | None:
            m = lin.couplings  # J = [[M, 0], [K, M]]: M twice, then K's curvature terms
            solve = band.factor(m + [(row + 2, col + 2, c) for row, col, c in m]
                                + [(2, 1, -(terms.coeff[0] * terms.f[2] * psi)),
                                   (3, 0, -(terms.coeff[1] * terms.g[2] * phi))])
            mu_column = np.concatenate([zeros, -beta * terms.g[0], zeros, -beta * terms.g[1] * phi])
            return None if solve is None else lambda r: _bordered_solve(solve, mu_column, normal, r)
        return (np.concatenate([terms.residual.ravel(), null.ravel(),
                                [phi.sum() + psi.sum() - 2.0 * n]]), converged, factor)

    x = start.x
    found = (_damped_newton(x, system, admissible, steps=_FOLD_NEWTON_STEPS, floor=2.0**-10,
                            min_steps=min_steps) if admissible(x) else None)
    if found is None:
        return None
    fold = _Fold.of(found[0])
    return fold if fold.phi.min() > 0.0 and fold.psi.min() > 0.0 else None


def _fold_bound(grid: Grid, model: Model, lam: float, fold: _Fold) -> float:
    """delta such that no steady pair in [0, 1)^2 exists at (lam, mu) for mu >
    fold.mu + delta; inf where the bound declines (phi or psi not > 0).
    A steady pair at mu lies within |d| < 1 of the fold's, and f, g convex with
    beta >= 0 give M_f d >= (-r_w, (mu - mu_f) beta g(w) - r_z), M_f and r the
    linearization and residual at the fold.  Pairing with y >= 0, g(w) >= g(0):
    (mu - mu_f) y_z^T beta g(0) <= |M_f^T y|_1 + |y^T r| + E (Keener & Keller,
    ARMA 50, 1973; Crandall & Rabinowitz, ARMA 58, 1975), E the rounding: 64 eps
    y^T (||A|| (1 + 2 max x) + |r| + c (1 + s)), with ||A|| bounding A's terms in
    M_f^T y and A x, |A x| + |r| the source, c the couplings in M_f^T y and
    c s, s their arguments, the source's rounding inside f and g.  M_f^T = P M_f
    P, P swapping the two fields (A is symmetric, the couplings diagonal), so
    y = P (phi, psi) = (psi, phi), scaled to max 1, comes from the fold's own
    null vector with no solve, and |M_f^T y|_1 = |M_f P y|_1."""
    if not (fold.phi.min() > 0.0 and fold.psi.min() > 0.0):
        return math.inf
    scale = max(fold.phi.max(), fold.psi.max())
    fields = np.array([fold.w, fold.z, fold.phi / scale, fold.psi / scale])
    steady = _steady_terms(grid, model, ParamPoint(lam=lam, mu=fold.mu), fields, 0.0)
    lin, r, y = steady.lin, steady.residual.ravel(), fields[:1:-1].ravel()
    gap = lin.coupled(steady.products, fields[2:]).ravel()  # P M_f^T y
    terms = (grid.stencil_norm * (1.0 + 2.0 * max(fold.w.max(), fold.z.max())) + np.abs(r)
             + np.concatenate([lin.coupling_w * (1.0 + fold.z), lin.coupling_z * (1.0 + fold.w)]))
    slack = np.abs(gap).sum() + abs(y @ r) + 64.0 * np.finfo(float).eps * (y @ terms)
    push = model.g.at_zero * (y[grid.n_total:] @ model.beta.sample(grid))
    return float(slack / push) if push > 0.0 else math.inf


def _critical_mus(grid: Grid, model: Model, lams: list[float], mu_bar: float, *,
                  bisect_tol: float,
                  tol_stat: float,
                  tol_res: float,
                  max_iter: int,
                  max_iter_doublings: int,
                  delta_blow: float,
                  floor_factor: float) -> list[CurveSample]:
    """Locate the largest admissible mu at each lam, in three steps, one
    sample after the other.

    1. Per sample, fold first: where the last two samples had candidates
       (lam_a, x_a), (lam_b, x_b), x = (w, z, phi, psi, mu), at distinct
       lam, the Newton starts from the secant prediction x_b + (lam -
       lam_b) / (lam_b - lam_a) (x_b - x_a); from x_b where there is no
       prediction, the prediction leaves the Newton's range, or the Newton
       fails from it.  Its fold mu_f in (0, mu_bar (1 + 1e-9)) is a
       candidate when the lifted pair (w_f + eps phi_f, z_f) is a
       supersolution at mu_f (1 - d), d = bisect_tol / 4.  Otherwise (and
       at the first sample) halving from mu_bar/2 brackets mu by membership
       verdicts, and the Newton runs cold from the InLambda end's minimal
       solution, phi = psi the Laplacian's principal eigenfunction; its fold
       inside that bracket is a candidate on the same check.
    2. ``_fold_bound`` decides each candidate's upper end mu_f (1 + d).
       Where its delta is finite but not below mu_f d, which a residual at
       the edge of tol_res can cause, the fold takes one polishing Newton
       step, and the supersolution check and the bound are redone there; if
       both pass, the polished fold is the candidate.  Otherwise one
       membership verdict at mu_f (1 + d) decides.  Where the end is out of
       the region the bracket is [mu_f (1 - d), mu_f (1 + d)].  The
       candidate (polished or not) is the next sample's x_b.
    3. Elsewhere bisection goes on from the halving's bracket (halved now if
       the fold skipped it): Undetermined verdicts shrink it from neither
       side, and the budget is doubled up to a cap, after which the bracket
       is accepted as is.
    """
    delta = bisect_tol / 4.0
    budget_cap = max_iter * 2**max_iter_doublings
    settings = dict(tol_stat=tol_stat, delta_blow=delta_blow, tol_res=tol_res)
    band = CoupledBand(grid, 4)
    newton = dict(band=band, tol_res=tol_res, delta_blow=delta_blow)
    evaluations = [0] * len(lams)
    top = mu_bar * (1.0 + 1e-9)

    def membership(k: int, mu: float, budget: int) -> MembershipVerdict:
        evaluations[k] += 1
        return monotone_minimal_solution(grid, model, ParamPoint(lam=lams[k], mu=mu),
                                         max_iter=budget, **settings)

    def halve(k: int) -> tuple[float | None, float, MembershipVerdict | None]:
        # (lo, hi, the verdict at lo); lo None: no bracket
        hi, probe = top, mu_bar / 2.0
        while probe >= mu_bar * floor_factor:
            verdict = membership(k, probe, max_iter)
            if isinstance(verdict, InLambda):
                return probe, hi, verdict
            if isinstance(verdict, NotInLambda):
                hi = probe
            probe /= 2.0
        return None, hi, None

    def supersolution_below(k: int, fold: _Fold) -> bool:
        evaluations[k] += 1
        below = ParamPoint(lam=lams[k], mu=fold.mu * (1.0 - delta))
        return _is_supersolution(grid, model, below, *fold.lifted(model, delta),
                                 delta_blow=delta_blow)

    def excluded(k: int, fold: _Fold) -> _Fold | None:
        # The fold whose mu_f (1 + d) is proved out of the region: this one,
        # or its polish where only the polished fold's checks pass; None if
        # neither is.  A finite bound may be short by the residual Newton's
        # last step left, so one more step is tried before the escape verdict.
        evaluations[k] += 1
        bound = _fold_bound(grid, model, lams[k], fold)
        if bound < fold.mu * delta:
            return fold
        if bound < math.inf:
            polished = _fold_newton(grid, model, lams[k], fold, min_steps=1, **newton)
            if polished is not None and supersolution_below(k, polished):
                evaluations[k] += 1
                if _fold_bound(grid, model, lams[k], polished) < polished.mu * delta:
                    return polished
        above = ParamPoint(lam=lams[k], mu=fold.mu * (1.0 + delta))
        verdict = monotone_minimal_solution(grid, model, above, max_iter=max_iter, **settings)
        return fold if isinstance(verdict, NotInLambda) else None

    def warm(k: int) -> _Fold | None:
        # Newton from the secant prediction through the last two folds, when
        # their lam differ, else (or when that fails) from the last fold
        (lam_b, b), fold = recent[-1], None
        if len(recent) == 2 and recent[0][0] != lam_b:
            (lam_a, a), x = recent[0], b.x
            guess = _Fold.of(x + (lams[k] - lam_b) / (lam_b - lam_a) * (x - a.x))
            fold = _fold_newton(grid, model, lams[k], guess, **newton)
        return fold if fold is not None else _fold_newton(grid, model, lams[k], b, **newton)

    phi = grid.principal[1]
    phi = phi * (grid.n_total / phi.sum())
    samples = []
    recent = []  # (lam, fold) of the last samples, up to two, while each had a candidate
    for k, lam in enumerate(lams):
        bracket = None  # (lo, hi) from halving, lo None: no bracket
        factorizations = band.factorizations
        fold = warm(k) if recent else None
        if not (fold is not None and 0.0 < fold.mu < top and supersolution_below(k, fold)):
            lo, hi, verdict = bracket = halve(k)
            fold = None if lo is None else _fold_newton(grid, model, lam, _Fold(
                w=verdict.solution.w, z=verdict.solution.z, phi=phi, psi=phi, mu=lo), **newton)
            if not (fold is not None and lo < fold.mu < hi and supersolution_below(k, fold)):
                fold = None
        proof = None if fold is None else excluded(k, fold)
        if proof is not None:
            fold = proof
            lo, hi = fold.mu * (1.0 - delta), fold.mu * (1.0 + delta)
        else:
            lo, hi, _ = bracket or halve(k)
        recent = [] if fold is None else (recent + [(lam, fold)])[-2:]
        status, budget = "ok" if lo is not None else "no-bracket", max_iter
        while lo is not None and (hi - lo) > bisect_tol * hi:
            mid = 0.5 * (lo + hi)
            verdict = membership(k, mid, budget)
            if isinstance(verdict, InLambda):
                lo = mid
            elif isinstance(verdict, NotInLambda):
                hi = mid
            elif budget < budget_cap:
                budget *= 2
            else:
                status = "wide-bracket"
                break
        samples.append(CurveSample(
            lam=lam, mu_critical=math.nan if lo is None else 0.5 * (lo + hi),
            bracket_lo=0.0 if lo is None else lo, bracket_hi=hi, status=status,
            evaluations=evaluations[k], certificate="bisection" if proof is None else "fold",
            newton_steps=band.factorizations - factorizations))
    return samples


def trace_critical_curve(grid: Grid, model: Model, lam_samples, *,
                         bisect_tol: float = DEFAULT_BISECT_TOL,
                         tol_stat: float = DEFAULT_TOL_STAT,
                         tol_res: float = DEFAULT_TOL_RES,
                         max_iter: int = 2000,
                         max_iter_doublings: int = 4,
                         delta_blow: float = DEFAULT_DELTA_BLOW,
                         floor_factor: float = 1e-6) -> CriticalCurve:
    """Trace of the existence-region boundary over given lam samples.

    ``_critical_mus`` brackets the critical mu at every sample, fold first.
    The axis intercepts go through the same function, one at a time, with
    the other parameter at its bracket floor (the curve is approached from
    inside the quadrant); the lam intercept uses the swapped model (f and g,
    alpha and beta exchanged), whose critical mu is the original critical lam.
    """
    if not 0.0 < bisect_tol < 1.0:
        raise ValueError(f"bisect_tol must lie in (0, 1), got {bisect_tol}")
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, model)
    settings = dict(bisect_tol=bisect_tol, tol_stat=tol_stat, tol_res=tol_res,
                    max_iter=max_iter, max_iter_doublings=max_iter_doublings,
                    delta_blow=delta_blow, floor_factor=floor_factor)

    samples = _critical_mus(grid, model, [float(lam) for lam in lam_samples], mu_bar, **settings)

    swapped = Model(f=model.g, g=model.f, alpha=model.beta, beta=model.alpha)
    (lam_star,) = _critical_mus(grid, swapped, [mu_bar * floor_factor], lam_bar, **settings)
    (mu_star,) = _critical_mus(grid, model, [lam_bar * floor_factor], mu_bar, **settings)

    return CriticalCurve(
        samples=tuple(samples),
        lambda_star=(lam_star.bracket_lo, lam_star.bracket_hi),
        mu_star=(mu_star.bracket_lo, mu_star.bracket_hi),
        bisect_tol=bisect_tol)


def second_solution_search(grid: Grid, model: Model, params: ParamPoint,
                           minimal: StationarySolution, *,
                           seed_amplitude: float = 0.8,
                           tol_res: float = DEFAULT_TOL_RES,
                           delta_blow: float = DEFAULT_DELTA_BLOW
                           ) -> StationarySolution | None:
    """Damped Newton search for a steady state above the minimal one.

    Seeds from the minimal solution's shape scaled to ``seed_amplitude``;
    ``_damped_newton`` keeps every iterate inside [0, 1 - delta_blow) and
    takes a step only when it decreases the residual, halving down to 2^-12.
    Returns None when the search stalls, diverges, or lands back on the
    minimal solution; success is best effort by design.
    """
    n = grid.n_total
    cap = 1.0 - delta_blow

    w0, z0 = minimal.w, minimal.z
    if w0.max() <= 0 or z0.max() <= 0:
        return None
    seed = np.minimum(np.concatenate([seed_amplitude * w0 / w0.max(),
                                      seed_amplitude * z0 / z0.max()]), cap - 1e-12)

    def admissible(x: FloatArray) -> bool:
        return bool(x.min() >= 0.0 and x.max() < cap)

    band = CoupledBand(grid, 2)

    def system(x: FloatArray):
        terms = _steady_terms(grid, model, params, x.reshape(2, n), tol_res)
        return terms.residual.ravel(), terms.met, lambda: band.factor(terms.lin.couplings)

    found = _damped_newton(seed, system, admissible, steps=_SECOND_NEWTON_STEPS,
                           floor=2.0**-12, decrease=0.25)
    if found is None:
        return None
    x, residual, taken, change = found
    # Reject convergence back to the minimal pair and anything not ordered
    # above it; the genuine upper branch clears both margins comfortably.
    rise = x - np.concatenate([w0, z0])
    if rise.max() <= 1e-6 or rise.min() < 0.0:
        return None
    return StationarySolution(
        w=x[:n], z=x[n:], params=params, iterations=taken + 1, final_change=change,
        residual_w=float(np.abs(residual[:n]).max()),
        residual_z=float(np.abs(residual[n:]).max()))


@dataclass(frozen=True)
class MassBoundReport:
    """Weighted-mass inequalities satisfied by every steady state."""

    mass_w: float
    bound_w: float
    mass_z: float
    bound_z: float
    passes: bool


def _weighted_masses(grid: Grid, model: Model, first: FloatArray,
                     second: FloatArray, names: tuple[str, str]
                     ) -> tuple[float, float, float, float, float]:
    """(lambda1, K_alpha, K_beta, integral(first * phi), integral(second * phi))
    with (lambda1, phi) the grid's principal pair (phi of unit mass) and
    K_alpha = integral(phi / alpha), K_beta = integral(phi / beta).  ``names``
    label the two fields in shape errors.  A weight that vanishes at a node
    (a narrow bump underflows to 0 near the boundary) makes its K inf: the
    bounds built on that side then assert nothing.
    """
    lam1, phi = grid.principal
    k_alpha, k_beta = (integrate(phi / weight, grid) if weight.min() > 0 else math.inf
                       for weight in (model.alpha.sample(grid), model.beta.sample(grid)))
    return (lam1, k_alpha, k_beta,
            integrate(grid.check_field(first, names[0]) * phi, grid),
            integrate(grid.check_field(second, names[1]) * phi, grid))


def mass_bound_check(w: FloatArray, z: FloatArray, grid: Grid, model: Model,
                     params: ParamPoint) -> MassBoundReport:
    """Check integral(w * phi) <= lambda1 * integral(phi/alpha) / (lam * f(0))
    and the mirror inequality, with phi the unit-mass principal eigenfunction.
    """
    lam1, k_alpha, k_beta, mass_w, mass_z = _weighted_masses(
        grid, model, w, z, ("w", "z"))
    bound_w = lam1 * k_alpha / (params.lam * model.f.at_zero)
    bound_z = lam1 * k_beta / (params.mu * model.g.at_zero)
    passes = (bound_w - mass_w >= -_MASS_SLACK) and (bound_z - mass_z >= -_MASS_SLACK)
    return MassBoundReport(mass_w=mass_w, bound_w=bound_w,
                           mass_z=mass_z, bound_z=bound_z, passes=passes)

