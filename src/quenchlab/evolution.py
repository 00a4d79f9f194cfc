"""Time integration of the coupled reaction-diffusion system.

The stepper is IMEX Euler: diffusion implicit (one SPD solve per component
per step), reaction explicit.  Adaptive runs control the local error by step
doubling; setting dt_min == dt_max selects a fixed step instead, which is the
mode used for convergence studies.  The integrator watches the running maxima
for approach to the blow-up level 1 and reports a quench event built from
three staged level crossings, refined by bisection inside the crossing step
and extrapolated geometrically to the level itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepRangeError
from .grid import (
    FloatArray,
    Grid,
    gradient_inner,
    integrate,
    solve_poisson,
)
from .model import Model, ParamPoint

_LEVEL_BISECT_ITERS = 40

# Step controller: a step of error err proposes dt * SAFETY * sqrt(tol_step / err),
# grown at most GROWTH_LIMIT-fold and capped by QUENCH_CAP * (1 - max)^2.
SAFETY = 0.9
GROWTH_LIMIT = 2.0
QUENCH_CAP = 0.25


class TerminalStatus(enum.Enum):
    HORIZON = "horizon"
    QUENCHED = "quenched"
    STEP_UNDERFLOW = "step-underflow"


@dataclass(frozen=True)
class StepperConfig:
    """Stepper controls.  dt_min == dt_max selects fixed-step mode, which
    skips the error estimate; the quench-proximity cap
    QUENCH_CAP * (1 - max)^2 never binds there, being floored at dt_min."""

    dt_init: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float = 0.05
    tol_step: float = 1e-6
    quench_delta: float = 1e-3
    snapshot_stride: int = 10

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not self.tol_step > 0:
            raise ValueError("tol_step must be positive")
        if not (0 < self.quench_delta < 0.25):
            raise ValueError("quench_delta must lie in (0, 0.25)")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def fixed_dt(self) -> bool:
        return self.dt_min == self.dt_max

    @property
    def quench_levels(self) -> tuple[float, float, float]:
        d = self.quench_delta
        return (1.0 - 4.0 * d, 1.0 - 2.0 * d, 1.0 - d)


@dataclass(frozen=True)
class QuenchEvent:
    """Detected approach to the blow-up level.

    ``time`` extrapolates the three staged crossing times to level 1 when the
    crossings behave geometrically; otherwise it is the last crossing time
    and ``extrapolated`` is False.  The trajectory itself always ends at the
    last crossing, not at the extrapolated time.
    """

    time: float
    which: str  # "u" | "v" | "both"
    level: float
    extrapolated: bool
    level_times: tuple[float, float, float]


@dataclass(frozen=True)
class Trajectory:
    """Accepted-step diagnostics plus sparse state snapshots.

    Row 0 describes the initial data (rate quantities there are nan).  The
    dist2 columns hold squared weighted-L2 distances to the reference pair
    and are nan when no reference was given.
    """

    times: FloatArray
    max_u: FloatArray
    max_v: FloatArray
    ut_l2: FloatArray
    vt_l2: FloatArray
    utvt: FloatArray
    energy: FloatArray
    dist2_u: FloatArray
    dist2_v: FloatArray
    dt: FloatArray
    snapshots: tuple[tuple[float, FloatArray, FloatArray], ...]
    status: TerminalStatus
    quench: QuenchEvent | None
    config: StepperConfig
    horizon: float
    final_u: FloatArray
    final_v: FloatArray

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def quench_time(self) -> float | None:
        return None if self.quench is None else self.quench.time


def step(u: FloatArray, v: FloatArray, dt: float, grid: Grid, model: Model,
         params: ParamPoint) -> tuple[FloatArray, FloatArray]:
    """One IMEX Euler step of size dt from (u, v).

    Solves (I + dt A) u_new = u + dt lam alpha f(v) and the mirror equation.
    Raises StepRangeError when either new component reaches 1.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    react = _reaction(grid, model, params)(u, v)
    return _imex_step(u, v, dt, grid.laplacian.shifted(1.0, dt), react)


def _reaction(grid, model, params):
    """(u, v) -> (lam alpha f(v), mu beta g(u)): the explicit terms at one
    state, which every step from that state shares."""
    lam_alpha = params.lam * model.alpha.sample(grid)
    mu_beta = params.mu * model.beta.sample(grid)
    return lambda u, v: (lam_alpha * model.f.value(v), mu_beta * model.g.value(u))


def _imex_step(u, v, dt, solver, react):
    rhs = np.array([u + dt * react[0], v + dt * react[1]]).T
    new = solve_poisson(solver, rhs)  # (u, v) as one block
    top = float(new.max())
    if top >= 1.0:
        raise StepRangeError(
            f"step of size {dt:.3e} reached max value {top:.6f}")
    np.maximum(new, 0.0, out=new)
    return new[:, 0], new[:, 1]


def lyapunov_energy(u: FloatArray, v: FloatArray, grid: Grid, model: Model,
                    params: ParamPoint) -> float:
    """Mixed energy: gradient cross term minus both reaction potentials.

    Along the flow its time derivative balances -2 integral(u_t v_t), so on
    decaying trajectories the recorded energies must be nonincreasing up to
    the discretization residual.  Like its quadratures it checks no field.
    """
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    return (gradient_inner(grid, u, v)
            - params.lam * integrate(alpha * model.f.antideriv(v), grid)
            - params.mu * integrate(beta * model.g.antideriv(u), grid))


class _Recorder:
    """Accumulates per-step diagnostics and snapshots for a Trajectory."""

    def __init__(self, grid, model, params, config, reference):
        self.grid, self.model, self.params = grid, model, params
        self.config = config
        self.ref = reference
        self.rows = {key: [] for key in
                     ("times", "max_u", "max_v", "ut_l2", "vt_l2", "utvt",
                      "energy", "dist2_u", "dist2_v", "dt")}
        self.snapshots: list[tuple[float, FloatArray, FloatArray]] = []
        self.accepted = 0

    def _dist2(self, field, which):
        if self.ref is None:
            return math.nan
        diff = field - self.ref[which]
        return integrate(diff * diff, self.grid)

    def record(self, t, u, v, dt, u_prev=None, v_prev=None):
        g = self.grid
        r = self.rows
        r["times"].append(t)
        r["max_u"].append(float(u.max()))
        r["max_v"].append(float(v.max()))
        r["energy"].append(lyapunov_energy(u, v, g, self.model, self.params))
        r["dist2_u"].append(self._dist2(u, 0))
        r["dist2_v"].append(self._dist2(v, 1))
        r["dt"].append(dt)
        if u_prev is None:
            r["ut_l2"].append(math.nan)
            r["vt_l2"].append(math.nan)
            r["utvt"].append(math.nan)
        else:
            ut = (u - u_prev) / dt
            vt = (v - v_prev) / dt
            r["ut_l2"].append(math.sqrt(integrate(ut * ut, g)))
            r["vt_l2"].append(math.sqrt(integrate(vt * vt, g)))
            r["utvt"].append(integrate(ut * vt, g))

    def snapshot(self, t, u, v, *, force=False):
        stride = self.config.snapshot_stride
        if force or self.accepted % stride == 0:
            if not self.snapshots or self.snapshots[-1][0] != t:
                self.snapshots.append((t, u.copy(), v.copy()))

    def build(self, status, quench, horizon, u, v) -> Trajectory:
        arrays = {key: np.asarray(vals, dtype=float) for key, vals in self.rows.items()}
        return Trajectory(snapshots=tuple(self.snapshots), status=status,
                          quench=quench, config=self.config, horizon=horizon,
                          final_u=u, final_v=v, **arrays)


def _aitken_quench_time(level_times: tuple[float, float, float]) -> tuple[float, bool]:
    """Extrapolate staged crossing times to the level-1 singularity.

    Accepts the geometric-series estimate only when the gaps are positive and
    contracting; otherwise the last crossing is returned unextrapolated.
    """
    t1, t2, t3 = level_times
    if all(map(math.isfinite, level_times)):
        d1, d2 = t2 - t1, t3 - t2
        if d1 > 0 and d2 > 0 and d2 < d1:
            r = d2 / d1
            return t3 + d2 * r / (1.0 - r), True
    return t3, False


def _memoized_advance(advance, u, v, react, dt):
    """theta -> advance(u, v, react, theta * dt), each fraction computed once
    (a StepRangeError too): the level bisections of one crossing step, for
    u and v and for successive levels, share their first midpoints."""
    outcomes = {}

    def advance_by(theta):
        if theta not in outcomes:
            try:
                outcomes[theta] = advance(u, v, react, theta * dt)
            except StepRangeError as exc:
                outcomes[theta] = exc
        if isinstance(outcomes[theta], StepRangeError):
            raise outcomes[theta]
        return outcomes[theta]

    return advance_by


def simulate(initial: tuple[FloatArray, FloatArray], grid: Grid, model: Model,
             params: ParamPoint, config: StepperConfig, horizon: float, *,
             reference: tuple[FloatArray, FloatArray] | None = None) -> Trajectory:
    """Integrate the system from ``initial`` until horizon, quench, or
    step underflow.

    Adaptive mode advances by two half steps, accepting when they agree with
    the single full step to tol_step in the sup norm; the proposed step is
    additionally capped by QUENCH_CAP * (1 - max)^2 so the state cannot jump
    over the staged quench levels.  Fixed-step mode takes single steps of
    dt_max, the last one shortened to the horizon, with no error estimate;
    there a step reaching 1 raises StepRangeError.  Quench levels are located
    inside the crossing step by bisection on the step fraction, which re-runs
    the same advance, so crossing times are consistent with the accepted
    states; within one crossing step each fraction is advanced once.
    Each crossing is logged per component; when a component crosses the
    innermost level the run stops there and the event time extrapolates the
    three crossings geometrically.  All attempts from a state, and the
    bisections and final partial step in its crossing step, share one
    reaction.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    op = grid.laplacian
    u = np.array(grid.check_field(initial[0], "u0"), dtype=float, copy=True)
    v = np.array(grid.check_field(initial[1], "v0"), dtype=float, copy=True)
    if max(float(u.max()), float(v.max())) >= 1.0:
        raise ValueError("initial data must stay below the blow-up level 1")
    reaction = _reaction(grid, model, params)
    if reference is not None:
        reference = (grid.check_field(reference[0], "reference u"),
                     grid.check_field(reference[1], "reference v"))

    def single(uc, vc, react, dt):
        return _imex_step(uc, vc, dt, op.shifted(1.0, dt), react)

    if config.fixed_dt:
        advance = single
    else:
        def advance(uc, vc, react, dt):
            half = op.shifted(1.0, 0.5 * dt)  # one factorization for both half steps
            um, vm = _imex_step(uc, vc, 0.5 * dt, half, react)
            return _imex_step(um, vm, 0.5 * dt, half, reaction(um, vm))

    recorder = _Recorder(grid, model, params, config, reference)
    recorder.record(0.0, u, v, math.nan)
    recorder.snapshot(0.0, u, v, force=True)

    levels = config.quench_levels
    level_times = {"u": [math.nan] * 3, "v": [math.nan] * 3}
    level_cursor = {"u": 0, "v": 0}
    for which, field in (("u", u), ("v", v)):
        while (level_cursor[which] < 3
               and float(field.max()) >= levels[level_cursor[which]]):
            level_times[which][level_cursor[which]] = 0.0
            level_cursor[which] += 1
    if level_cursor["u"] == 3 or level_cursor["v"] == 3:
        which = "u" if level_cursor["u"] == 3 else "v"
        quench = QuenchEvent(time=0.0, which=which,
                             level=float((u if which == "u" else v).max()),
                             extrapolated=False,
                             level_times=tuple(level_times[which]))
        return recorder.build(TerminalStatus.QUENCHED, quench, horizon, u, v)

    def bisect_crossing(advance_by, level, which):
        """Largest-accuracy step fraction theta with max(component) = level."""
        lo, hi = 0.0, 1.0
        for _ in range(_LEVEL_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            try:
                um, vm = advance_by(mid)
            except StepRangeError:
                hi = mid
                continue
            top = float((um if which == "u" else vm).max())
            if top >= level:
                hi = mid
            else:
                lo = mid
        return hi

    t = 0.0
    dt = config.dt_init
    status = TerminalStatus.HORIZON
    quench = None
    time_slack = 1e-12 * horizon
    react = None  # the reaction at (u, v), shared by every attempt from there

    while t < horizon - time_slack:
        if react is None:
            react = reaction(u, v)
        top = max(float(u.max()), float(v.max()))
        cap = max(QUENCH_CAP * (1.0 - top) ** 2, config.dt_min)
        dt_eff = min(dt, config.dt_max, cap, horizon - t)

        try:
            if config.fixed_dt:
                un, vn = advance(u, v, react, dt_eff)
                err = 0.0
            else:
                u1, v1 = single(u, v, react, dt_eff)
                un, vn = advance(u, v, react, dt_eff)
                err = max(float(np.abs(un - u1).max()),
                          float(np.abs(vn - v1).max()))
        except StepRangeError:
            if config.fixed_dt:
                raise
            dt = 0.5 * dt_eff
            if dt < config.dt_min:
                status = TerminalStatus.STEP_UNDERFLOW
                break
            continue

        if err > config.tol_step:
            dt = dt_eff * max(0.2, SAFETY * math.sqrt(config.tol_step / err))
            if dt < config.dt_min and horizon - t > config.dt_min:
                status = TerminalStatus.STEP_UNDERFLOW
                break
            continue

        # Accepted.  Before committing, resolve any staged level crossings
        # inside this step, in increasing-level order per component.
        crossed_final: list[tuple[float, str]] = []
        advance_by = _memoized_advance(advance, u, v, react, dt_eff)
        for which, new_field in (("u", un), ("v", vn)):
            new_max = float(new_field.max())
            while level_cursor[which] < 3 and new_max >= levels[level_cursor[which]]:
                idx = level_cursor[which]
                theta = bisect_crossing(advance_by, levels[idx], which)
                level_times[which][idx] = t + theta * dt_eff
                level_cursor[which] = idx + 1
                if idx == 2:
                    crossed_final.append((theta, which))

        if crossed_final:
            theta, lead = min(crossed_final)
            which = lead
            if (len(crossed_final) == 2
                    and abs(crossed_final[0][0] - crossed_final[1][0]) <= 1e-9):
                which = "both"
            uq, vq = advance_by(theta)
            t_cross = t + theta * dt_eff
            recorder.accepted += 1
            recorder.record(t_cross, uq, vq, theta * dt_eff, u, v)
            t_event, extrapolated = _aitken_quench_time(tuple(level_times[lead]))
            quench = QuenchEvent(
                time=t_event, which=which,
                level=float((uq if lead == "u" else vq).max()),
                extrapolated=extrapolated,
                level_times=tuple(level_times[lead]))
            t, u, v = t_cross, uq, vq  # the closing snapshot records the crossing
            status = TerminalStatus.QUENCHED
            break

        u_prev, v_prev = u, v
        t += dt_eff
        u, v = un, vn
        react = None
        recorder.accepted += 1
        recorder.record(t, u, v, dt_eff, u_prev, v_prev)
        recorder.snapshot(t, u, v)

        if err > 0:
            factor = min(GROWTH_LIMIT, max(0.2, SAFETY * math.sqrt(config.tol_step / err)))
        else:
            factor = GROWTH_LIMIT
        dt = min(max(dt_eff * factor, config.dt_min), config.dt_max)

    recorder.snapshot(t, u, v, force=True)
    return recorder.build(status, quench, horizon, u, v)
