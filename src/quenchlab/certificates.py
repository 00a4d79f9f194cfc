"""Checkable certificates: quench-time bounds, decay-rate fits, and the
case classification that routes a configuration to its predicted behavior.

Everything here is a posteriori: a certificate states a quantitative claim
computed from the discrete data, and a verifier compares the claim against a
simulated trajectory with pinned slack factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDecayError
from .grid import (
    DiscreteOperator,
    FloatArray,
    Grid,
    assemble_laplacian,
    integrate,
    principal_laplacian_eigenpair,
)
from .model import InitialData, Model, ParamPoint, materialize_initial
from .stationary import (
    InLambda,
    MembershipVerdict,
    NotInLambda,
    StationarySolution,
    monotone_minimal_solution,
    second_solution_search,
)
from .evolution import TerminalStatus, Trajectory

QUENCH_TIME_SLACK = 0.05
RATE_FIT_SLACK = 0.95

_RATE_DISCREPANCY_NOTE = (
    "The advertised decay constant min(2*lambda1, nu1/2) is not what the "
    "energy argument actually yields; the certified constant is "
    "min(lambda1, nu1/2). Both are recorded; the pass/fail verdict uses the "
    "certified one.")


@dataclass(frozen=True)
class QuenchBound:
    """Explicit quench-time bounds from the weighted-mass differential
    inequality, one per component.

    A side is applicable only when its weighted initial mass strictly exceeds
    the threshold lambda1 * K / (coeff * reaction-at-zero); inapplicable sides
    carry bound None and assert nothing.
    """

    bound_u: float | None
    bound_v: float | None
    threshold_u: float
    threshold_v: float
    mass_u: float
    mass_v: float
    k_alpha: float
    k_beta: float
    lam1: float

    @property
    def applicable(self) -> bool:
        return self.bound_u is not None or self.bound_v is not None

    @property
    def best(self) -> float | None:
        bounds = [b for b in (self.bound_u, self.bound_v) if b is not None]
        return min(bounds) if bounds else None


def quench_time_bound(u0: FloatArray, v0: FloatArray, grid: Grid, model: Model,
                      params: ParamPoint, *,
                      op: DiscreteOperator | None = None,
                      eigenpair: tuple[float, FloatArray] | None = None
                      ) -> QuenchBound:
    """Quench-time bounds from pairing each equation with the principal
    eigenfunction phi (unit quadrature mass).

    With K_alpha = integral(phi / alpha) and m0 = integral(u0 phi), the u side
    applies when m0 > lambda1 K_alpha / (lam f(0)) and then bounds the quench
    time by

        (1 / lambda1) * log( (lam f(0) - lambda1 K_alpha)
                           / (lam f(0) - lambda1 K_alpha / m0) ).

    Applicability forces both log arguments positive, so no further guard is
    needed; the v side mirrors with (mu, g, beta).
    """
    if eigenpair is None:
        if op is None:
            op = assemble_laplacian(grid)
        eigenpair = principal_laplacian_eigenpair(op)
    lam1, phi = eigenpair
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    if alpha.min() <= 0 or beta.min() <= 0:
        raise ValueError("quench bound needs strictly positive weights")
    k_alpha = integrate(phi / alpha, grid)
    k_beta = integrate(phi / beta, grid)
    mass_u = integrate(grid.check_field(u0, "u0") * phi, grid)
    mass_v = integrate(grid.check_field(v0, "v0") * phi, grid)

    def side(mass: float, coeff: float, react0: float, k: float) -> tuple[float | None, float]:
        drive = coeff * react0
        threshold = lam1 * k / drive
        if mass <= threshold:
            return None, threshold
        bound = math.log((drive - lam1 * k) / (drive - lam1 * k / mass)) / lam1
        return bound, threshold

    bound_u, threshold_u = side(mass_u, params.lam, model.f.at_zero, k_alpha)
    bound_v, threshold_v = side(mass_v, params.mu, model.g.at_zero, k_beta)
    return QuenchBound(bound_u=bound_u, bound_v=bound_v,
                       threshold_u=threshold_u, threshold_v=threshold_v,
                       mass_u=mass_u, mass_v=mass_v,
                       k_alpha=k_alpha, k_beta=k_beta, lam1=lam1)


@dataclass(frozen=True)
class QuenchCheck:
    """Outcome of holding a quench bound against a simulated trajectory."""

    passes: bool
    observed_time: float | None
    bound_used: float | None
    note: str


def verify_quench_bound(trajectory: Trajectory, bound: QuenchBound, *,
                        slack: float = QUENCH_TIME_SLACK) -> QuenchCheck:
    """Check the asserted bound: an applicable bound demands a quench no later
    than bound * (1 + slack); an inapplicable one asserts nothing and passes
    vacuously."""
    quenched = trajectory.status is TerminalStatus.QUENCHED
    observed = trajectory.quench_time
    best = bound.best
    if not bound.applicable:
        if quenched:
            return QuenchCheck(
                passes=True, observed_time=observed, bound_used=None,
                note="quench observed without an applicable bound; "
                     "nothing was asserted, nothing is violated")
        return QuenchCheck(
            passes=True, observed_time=None, bound_used=None,
            note="bound not applicable and no quench observed; vacuously true")
    if not quenched:
        hint = ("horizon ended before the bound elapsed"
                if trajectory.horizon < best * (1.0 + slack)
                else "trajectory outlived the bound")
        return QuenchCheck(passes=False, observed_time=None, bound_used=best,
                           note=f"applicable bound but no quench: {hint}")
    passes = observed <= best * (1.0 + slack)
    note = ("quench inside the certified window" if passes
            else "quench later than the certified bound allows")
    return QuenchCheck(passes=passes, observed_time=observed,
                       bound_used=best, note=note)


@dataclass(frozen=True)
class RateCertificate:
    """Tail decay-rate fit held against the certified exponential constant.

    gamma_claimed and gamma_certified intentionally differ; see the note.
    The fit slope applies to the squared distance, so the comparison target
    for a healthy trajectory is about 2 * nu1, well above the certificate.
    """

    gamma_claimed: float
    gamma_certified: float
    fitted_rate: float
    prefactor: float  # fitted squared distance extrapolated back to t = 0
    window: tuple[float, float]
    n_points: int
    passes: bool
    nu1: float
    lam1: float
    note: str = _RATE_DISCREPANCY_NOTE


def rate_certificate(trajectory: Trajectory, lam1: float, nu1: float, *,
                     window_fraction: float = 0.6,
                     onset_fraction: float = 0.1,
                     floor_factor: float = 1e-12,
                     min_points: int = 5,
                     rate_slack: float = RATE_FIT_SLACK) -> RateCertificate:
    """Fit the tail of log(squared distance to the reference) and compare
    against the certified decay constant.

    The window starts after the distance has dropped below onset_fraction of
    its initial value and is cut off where it reaches floor_factor times the
    initial value, below which the samples measure solver precision rather
    than decay.  Raises InsufficientDecayError when the trajectory never
    reaches onset, ends above 1e-8 of the initial distance, or leaves fewer
    than min_points samples to fit.
    """
    dist2 = trajectory.dist2_u + trajectory.dist2_v
    if not np.all(np.isfinite(dist2)):
        raise ValueError("trajectory carries no reference distances")
    times = trajectory.times
    d0 = float(dist2[0])
    if d0 <= 0.0:
        raise InsufficientDecayError("initial data coincides with the reference")
    if float(dist2[-1]) > 1e-8 * d0:
        raise InsufficientDecayError(
            "terminal distance is above 1e-8 of the initial one; "
            "the trajectory has not decayed enough to certify a rate")
    below = np.nonzero(dist2 <= onset_fraction * d0)[0]
    if below.size == 0:
        raise InsufficientDecayError("distance never dropped below the onset fraction")
    t_onset = float(times[below[0]])
    above_floor = np.nonzero(dist2 >= floor_factor * d0)[0]
    t_hi = float(times[above_floor[-1]]) if above_floor.size else float(times[-1])
    if t_hi <= t_onset:
        raise InsufficientDecayError("decay tail is entirely below the noise floor")
    t_lo = t_hi - window_fraction * (t_hi - t_onset)
    mask = (times >= t_lo) & (times <= t_hi) & (dist2 > 0.0)
    n_points = int(mask.sum())
    if n_points < min_points:
        raise InsufficientDecayError(
            f"only {n_points} samples in the fit window, need {min_points}")
    slope, intercept = np.polyfit(times[mask], np.log(dist2[mask]), 1)
    fitted_rate = -float(slope)
    gamma_claimed = min(2.0 * lam1, 0.5 * nu1)
    gamma_certified = min(lam1, 0.5 * nu1)
    return RateCertificate(
        gamma_claimed=gamma_claimed, gamma_certified=gamma_certified,
        fitted_rate=fitted_rate, prefactor=float(np.exp(intercept)),
        window=(t_lo, t_hi), n_points=n_points,
        passes=fitted_rate >= rate_slack * gamma_certified,
        nu1=nu1, lam1=lam1)


@dataclass(frozen=True)
class CaseReport:
    """Classification of a configuration with the evidence that produced it.
    ``second`` is None when none was found, and when the initial data lie
    below the minimal state, which decides a1 (or c) without a search."""

    case: str
    expectation: str
    membership: MembershipVerdict
    initial: tuple[FloatArray, FloatArray]
    bound: QuenchBound
    second: StationarySolution | None
    notes: tuple[str, ...]


def classify_case(grid: Grid, model: Model, params: ParamPoint,
                  recipe: InitialData, *,
                  op: DiscreteOperator | None = None,
                  eigenpair: tuple[float, FloatArray] | None = None,
                  seed_amplitude: float = 0.8,
                  order_slack: float = 1e-10,
                  **membership_kwargs) -> CaseReport:
    """Route a configuration to its predicted behavior.

    Precedence: an applicable quench bound wins (case c), then parameter
    points with no steady state (case b), then ordering of the initial data
    against the minimal steady state (a1) and, when one is found, against a
    second steady state (a21 below it, a22 above it).  Anything else is
    reported as none-established rather than guessed.
    """
    if op is None:
        op = assemble_laplacian(grid)
    if eigenpair is None:
        eigenpair = principal_laplacian_eigenpair(op)
    notes: list[str] = []

    membership = monotone_minimal_solution(
        grid, model, params, op=op, eigenpair=eigenpair, **membership_kwargs)
    minimal = membership.solution if isinstance(membership, InLambda) else None

    second = None
    if recipe.kind in ("convex_combo", "above_second"):
        if minimal is None:
            raise ConfigError(
                f"initial recipe {recipe.kind!r} needs steady states, but the "
                f"membership verdict is {membership.status!r}")
        second = second_solution_search(
            grid, model, params, minimal, seed_amplitude=seed_amplitude, op=op)
        if second is None:
            raise ConfigError(
                f"initial recipe {recipe.kind!r} needs a second steady "
                "state and the search found none")

    try:
        u0, v0 = materialize_initial(
            recipe, grid,
            minimal=None if minimal is None else (minimal.w, minimal.z),
            second=None if second is None else (second.w, second.z))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    bound = quench_time_bound(u0, v0, grid, model, params,
                              op=op, eigenpair=eigenpair)

    def below(a0, b0, pair) -> bool:
        return bool(np.all(a0 <= pair[0] + order_slack)
                    and np.all(b0 <= pair[1] + order_slack))

    def above(a0, b0, pair) -> bool:
        return bool(np.all(a0 >= pair[0] - order_slack)
                    and np.all(b0 >= pair[1] - order_slack))

    # Only data above the minimal state need a second state to compare against.
    if (second is None and minimal is not None
            and not below(u0, v0, (minimal.w, minimal.z))):
        second = second_solution_search(
            grid, model, params, minimal, seed_amplitude=seed_amplitude, op=op)

    if bound.applicable:
        case, expectation = "c", ("finite-time quench certified with an "
                                  "explicit time bound")
    elif isinstance(membership, NotInLambda):
        case, expectation = "b", ("no steady state at this parameter point; "
                                  "the flow cannot stabilize")
        notes.append(f"nonexistence evidence: {membership.evidence}")
    elif minimal is None:
        case, expectation = "none-established", "no prediction certified"
        notes.append("membership undetermined: " + membership.hint)
    elif below(u0, v0, (minimal.w, minimal.z)):
        case, expectation = "a1", ("global existence with decay to the "
                                   "minimal steady state")
    elif second is not None and below(u0, v0, (second.w, second.z)):
        case, expectation = "a21", ("global existence with decay to the "
                                    "minimal steady state")
    elif second is not None and above(u0, v0, (second.w, second.z)):
        case, expectation = "a22", ("initial data dominates a second steady "
                                    "state; quench expected, no time bound "
                                    "certified")
    else:
        case, expectation = "none-established", "no prediction certified"
        if second is None:
            notes.append("initial data exceeds the minimal steady state and "
                         "no second steady state was found to compare against")
        else:
            notes.append("initial data is not ordered against the second "
                         "steady state")

    return CaseReport(case=case, expectation=expectation, membership=membership,
                      initial=(u0, v0), bound=bound, second=second,
                      notes=tuple(notes))
