"""Checkable certificates: quench-time bounds, decay-rate fits, and the
case classification that routes a configuration to its predicted behavior.

Everything here is a posteriori: a certificate states a quantitative claim
computed from the discrete data, and a verifier compares the claim against a
simulated trajectory with pinned slack factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientDecayError
from .grid import FloatArray, Grid
from .model import Model, ParamPoint
from .stationary import (
    InLambda,
    MembershipVerdict,
    NotInLambda,
    StationarySolution,
    _weighted_masses,
)
from .evolution import TerminalStatus, Trajectory

QUENCH_TIME_SLACK = 0.05
RATE_FIT_SLACK = 0.95
_ORDER_SLACK = 1e-10  # tolerance of classify_case's orderings of pairs
# rate_certificate's fit window: its share of the tail, the onset and floor
# (fractions of the initial squared distance) and the fewest samples to fit
_RATE_WINDOW, _RATE_ONSET, _RATE_FLOOR, _RATE_MIN_POINTS = 0.6, 0.1, 1e-12, 5

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
                      params: ParamPoint) -> QuenchBound:
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
    lam1, k_alpha, k_beta, mass_u, mass_v = _weighted_masses(
        grid, model, u0, v0, ("u0", "v0"))

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


def verify_quench_bound(trajectory: Trajectory, bound: QuenchBound) -> QuenchCheck:
    """Check the asserted bound: an applicable bound demands a quench no later
    than bound * (1 + QUENCH_TIME_SLACK); an inapplicable one asserts nothing
    and passes vacuously."""
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
                if trajectory.horizon < best * (1.0 + QUENCH_TIME_SLACK)
                else "trajectory outlived the bound")
        return QuenchCheck(passes=False, observed_time=None, bound_used=best,
                           note=f"applicable bound but no quench: {hint}")
    passes = observed <= best * (1.0 + QUENCH_TIME_SLACK)
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


def rate_certificate(trajectory: Trajectory, lam1: float, nu1: float) -> RateCertificate:
    """Fit the tail of log(squared distance to the reference) and compare
    against the certified decay constant.

    The fit window is the last 60% of the tail that starts once the distance
    has dropped below 0.1 of its initial value and is cut off where it reaches
    1e-12 times the initial value, below which the samples measure solver
    precision rather than decay.  Raises InsufficientDecayError when the
    trajectory never reaches onset, ends above 1e-8 of the initial distance,
    or leaves fewer than 5 samples to fit.
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
    below = np.nonzero(dist2 <= _RATE_ONSET * d0)[0]
    if below.size == 0:
        raise InsufficientDecayError("distance never dropped below the onset fraction")
    t_onset = float(times[below[0]])
    above_floor = np.nonzero(dist2 >= _RATE_FLOOR * d0)[0]
    t_hi = float(times[above_floor[-1]]) if above_floor.size else float(times[-1])
    if t_hi <= t_onset:
        raise InsufficientDecayError("decay tail is entirely below the noise floor")
    t_lo = t_hi - _RATE_WINDOW * (t_hi - t_onset)
    mask = (times >= t_lo) & (times <= t_hi) & (dist2 > 0.0)
    n_points = int(mask.sum())
    if n_points < _RATE_MIN_POINTS:
        raise InsufficientDecayError(
            f"only {n_points} samples in the fit window, need {_RATE_MIN_POINTS}")
    slope, intercept = np.polyfit(times[mask], np.log(dist2[mask]), 1)
    fitted_rate = -float(slope)
    gamma_claimed = min(2.0 * lam1, 0.5 * nu1)
    gamma_certified = min(lam1, 0.5 * nu1)
    return RateCertificate(
        gamma_claimed=gamma_claimed, gamma_certified=gamma_certified,
        fitted_rate=fitted_rate, prefactor=float(np.exp(intercept)),
        window=(t_lo, t_hi), n_points=n_points,
        passes=fitted_rate >= RATE_FIT_SLACK * gamma_certified,
        nu1=nu1, lam1=lam1)


@dataclass(frozen=True)
class CaseReport:
    """Classification of a configuration with the evidence that produced it.
    ``second`` is None when none was found, and when the initial data lie
    below the minimal state, which decides a1 (or c) without a search."""

    case: str
    expectation: str
    bound: QuenchBound
    second: StationarySolution | None
    notes: tuple[str, ...]


def classify_case(grid: Grid, model: Model, params: ParamPoint,
                  membership: MembershipVerdict,
                  initial: tuple[FloatArray, FloatArray],
                  find_second: Callable[[], StationarySolution | None]
                  ) -> CaseReport:
    """Route a configuration to its predicted behavior.

    ``membership`` is the verdict at ``params`` and ``initial`` the initial
    pair.  ``find_second()`` returns the second steady state, or None when
    there is none; it is called only when the minimal state exists and the
    initial data do not lie below it.

    Precedence: an applicable quench bound wins (case c), then parameter
    points with no steady state (case b), then ordering of the initial data
    against the minimal steady state (a1) and, when one is found, against a
    second steady state (a21 below it, a22 above it).  Anything else is
    reported as none-established rather than guessed.
    """
    notes: list[str] = []
    u0, v0 = initial
    minimal = membership.solution if isinstance(membership, InLambda) else None
    bound = quench_time_bound(u0, v0, grid, model, params)

    def below(state: StationarySolution) -> bool:
        return bool(np.all(u0 <= state.w + _ORDER_SLACK)
                    and np.all(v0 <= state.z + _ORDER_SLACK))

    def above(state: StationarySolution) -> bool:
        return bool(np.all(u0 >= state.w - _ORDER_SLACK)
                    and np.all(v0 >= state.z - _ORDER_SLACK))

    below_minimal = minimal is not None and below(minimal)
    # Only data above the minimal state need a second state to compare against.
    second = find_second() if minimal is not None and not below_minimal else None

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
    elif below_minimal:
        case, expectation = "a1", ("global existence with decay to the "
                                   "minimal steady state")
    elif second is not None and below(second):
        case, expectation = "a21", ("global existence with decay to the "
                                    "minimal steady state")
    elif second is not None and above(second):
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

    return CaseReport(case=case, expectation=expectation, bound=bound,
                      second=second, notes=tuple(notes))
