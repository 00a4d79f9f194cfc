"""Time integration of the coupled reaction-diffusion system.

The stepper is IMEX Euler: diffusion implicit (one SPD solve of both
components per step), reaction explicit.  Adaptive runs control the local
error by step doubling; setting dt_min == dt_max selects a fixed step instead,
which is the mode used for convergence studies.  The integrator logs when
each component reaches each of three staged levels below the blow-up level 1
(the initial data at time 0, later crossings by bisection inside the step),
and reports the first innermost crossing as a quench event, its time
extrapolated geometrically to the level itself.

The state (u, v) is one (2, n) block.  One attempt kernel (``_Kernel``),
built per ``simulate`` or ``step`` call for its step mode, makes every step:
``attempt`` gives the new state and its error estimate, ``advance`` the
state alone (``step``, the bisection of a crossing step).  It writes rhs and
solutions into two reused (3, 2, n) buffers, factors I + c*A from the grid's
stencil (``grid._factor``), and checks all rows it made in one
``_check_solves`` call before a result is used or a StepRangeError raised.
Initial data are range-checked once, at entry; the reaction
(``Model.reaction``) then evaluates f and g unchecked, since every state the
step makes lies in [0, 1).  A ``_Recorder`` takes every accepted state: it
evaluates their diagnostics a chunk at a time (``_RECORD_CHUNK``), each row by
the per-state formula, and keeps the stride and closing snapshots.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepRangeError
from .grid import FloatArray, Grid, _check_solves, _factor, _solve, gradient_inner, integrate
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
    Raises ValueError unless u and v are fields of the grid in [0, 1), and
    StepRangeError when either new component reaches 1.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    w = _state_block(grid, u, v, "u", "v")
    kernel = _Kernel(grid, model, params, fixed=True)
    new = kernel.advance(w, kernel.reaction(w), dt)
    return new[0], new[1]


def _state_block(grid, u, v, u_name, v_name):
    """(u, v) as a new (2, n) block, each a finite field of the grid in [0, 1)."""
    w = np.array([grid.check_field(u, u_name), grid.check_field(v, v_name)])
    for name, field in zip((u_name, v_name), w):
        if field.min() < 0.0 or field.max() >= 1.0:
            raise ValueError(f"{name} must lie in [0, 1), below the blow-up level 1")
    return w


class _Kernel:
    """IMEX Euler steps of one grid, model, parameter point and step mode on
    a reused workspace: row 0 of ``rhs`` and ``x`` holds a full step, rows 1
    and 2 the half steps, which share one factor; ``dt`` holds each row's step
    size.  A fixed step is the full row, an adaptive step the half rows.
    ``x`` keeps the solutions as solved, for the check."""

    def __init__(self, grid, model, params, fixed):
        self.grid = grid
        self.rhs, self.x = np.empty((2, 3, 2, grid.n_total))
        self.dt = np.empty((3, 1, 1))
        self.reaction = model.reaction(grid, params)
        self.lo, self.hi = (0, 1) if fixed else (1, 3)  # the rows making the new state

    def attempt(self, w, react, dt):
        """From the state block w with explicit terms react, the step of size
        dt and its error estimate: the new state and its sup distance from
        the full step's, 0.0 for a fixed step."""
        new = self._rows(0, w, react, dt)
        return new, float(np.abs(new - np.maximum(self.x[0], 0.0)).max())

    def advance(self, w, react, dt):
        """The new state alone, without the adaptive error's full step."""
        return self._rows(self.lo, w, react, dt)

    def _rows(self, lo, w, react, dt):
        # Rows lo to hi of the step of size dt, and the new state, clamped at
        # 0 in a new array.  Every solve made is checked before the state is
        # returned or a step reaching 1 raises StepRangeError: a failed solve wins.
        hi = self.hi
        if lo == 0:
            self._step(0, w, react, dt, _factor(self.grid, 1.0, dt))
        if hi == 3:
            half = _factor(self.grid, 1.0, 0.5 * dt)  # one factorization for both half steps
            self._step(1, w, react, 0.5 * dt, half)
            self._range(lo, 2)  # the midpoint's reaction needs it below 1
            wm = np.maximum(self.x[1], 0.0)
            self._step(2, wm, self.reaction(wm), 0.5 * dt, half)
        self._range(lo, hi)
        self._check(lo, hi)
        return np.maximum(self.x[hi - 1], 0.0)

    def _step(self, row, w, react, dt, factor):
        # (I + dt A) x = w + dt react, both components, into the row
        rhs, x = self.rhs[row], self.x[row]
        np.multiply(react, dt, out=rhs)
        rhs += w
        x[...] = rhs
        _solve(self.grid, factor, x, overwrite=True)
        self.dt[row] = dt

    def _range(self, lo, hi):
        # StepRangeError when a solution of rows lo to hi reached 1, once they are checked
        if self.x[lo:hi].max() >= 1.0:
            self._check(lo, hi)
            tops = self.x[lo:hi].max(axis=(1, 2))
            row = lo + int(np.argmax(tops >= 1.0))
            raise StepRangeError(f"step of size {self.dt[row, 0, 0]:.3e} reached max value "
                                 f"{tops[row - lo]:.6f}")

    def _check(self, lo, hi):
        # rows lo to hi in one call, which raises as the first failed row would alone
        _check_solves(self.grid, self.x[lo:hi], self.rhs[lo:hi], 1.0, self.dt[lo:hi],
                      solves=hi - lo)


def lyapunov_energy(u: FloatArray, v: FloatArray, grid: Grid, model: Model,
                    params: ParamPoint) -> float | FloatArray:
    """Mixed energy: gradient cross term minus both reaction potentials,
    gradient_inner(grid, u, v) - lam integrate(alpha F(v)) - mu integrate(beta G(u)).

    Along the flow its time derivative balances -2 integral(u_t v_t), so on
    decaying trajectories the recorded energies must be nonincreasing up to
    the discretization residual.  Stacks of fields (k, n) give the k
    energies, each equal to the lone pair's bit for bit.  Like its
    quadratures it checks no field.
    """
    return (gradient_inner(grid, u, v)
            - params.lam * integrate(model.alpha.sample(grid) * model.f.antideriv(v), grid)
            - params.mu * integrate(model.beta.sample(grid) * model.g.antideriv(u), grid))


# Accepted states wait in a _Recorder until this many are evaluated together.
_RECORD_CHUNK = 8


class _Recorder:
    """Accumulates per-step diagnostics and snapshots for a Trajectory.

    Accepted states are copied into a preallocated block and their
    diagnostics evaluated a chunk at a time, each row by the per-state
    formula: the rates of a state take the state recorded before it, which
    row 0 of the block holds, NaN for the initial state, whose rates are
    therefore nan."""

    def __init__(self, grid, model, params, config, reference):
        self.grid, self.model, self.params = grid, model, params
        self.config = config
        self.ref = None if reference is None else np.array(reference)
        self.times: list[float] = []
        self.dt: list[float] = []
        self.block = np.empty((_RECORD_CHUNK + 1, 2, grid.n_total))
        self.block[0] = math.nan  # the initial state's predecessor
        self.filled = 1  # rows of block in use
        self.columns = {key: [] for key in
                        ("max_u", "max_v", "ut_l2", "vt_l2", "utvt",
                         "energy", "dist2_u", "dist2_v")}
        self.snapshots: list[tuple[float, FloatArray, FloatArray]] = []

    def record(self, t, w, dt):  # dt: the step to w, nan for the initial state
        if len(self.times) % self.config.snapshot_stride == 0:  # w's step count
            self.snapshots.append((t, w[0].copy(), w[1].copy()))
        self.times.append(t)
        self.dt.append(dt)
        self.block[self.filled] = w
        self.filled += 1
        if self.filled == len(self.block):
            self._evaluate()

    def _evaluate(self):
        g, block = self.grid, self.block[:self.filled]
        w = block[1:]  # (k, 2, n), the states not yet evaluated
        k = len(w)
        out = self.columns
        maxima = w.max(axis=2)
        out["max_u"].append(maxima[:, 0])
        out["max_v"].append(maxima[:, 1])
        out["energy"].append(lyapunov_energy(w[:, 0], w[:, 1], g, self.model, self.params))
        if self.ref is None:
            out["dist2_u"].append(np.full(k, math.nan))
            out["dist2_v"].append(np.full(k, math.nan))
        else:
            diff = w - self.ref
            diff *= diff
            dist2 = integrate(diff, g)
            out["dist2_u"].append(dist2[:, 0])
            out["dist2_v"].append(dist2[:, 1])
        # (u - u_prev) / dt and (v - v_prev) / dt, squared in place once the
        # cross term is taken
        rates = np.subtract(block[1:], block[:-1])
        rates /= np.array(self.dt[len(self.dt) - len(rates):])[:, None, None]
        utvt = integrate(rates[:, 0] * rates[:, 1], g)
        rates *= rates
        l2 = np.sqrt(integrate(rates, g))
        out["ut_l2"].append(l2[:, 0])
        out["vt_l2"].append(l2[:, 1])
        out["utvt"].append(utvt)
        self.block[0] = block[-1]
        self.filled = 1

    def build(self, status, quench, horizon, w) -> Trajectory:
        if self.snapshots[-1][0] != self.times[-1]:  # the closing snapshot, unless on the stride
            self.snapshots.append((self.times[-1], w[0].copy(), w[1].copy()))
        if self.filled > 1:
            self._evaluate()
        arrays = {key: np.concatenate(parts) for key, parts in self.columns.items()}
        return Trajectory(times=np.asarray(self.times, dtype=float),
                          dt=np.asarray(self.dt, dtype=float),
                          snapshots=tuple(self.snapshots), status=status,
                          quench=quench, config=self.config, horizon=horizon,
                          final_u=w[0], final_v=w[1], **arrays)


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


def _memoized_advance(advance, w, react, dt):
    """theta -> advance(w, react, theta * dt), each fraction computed once
    (a StepRangeError too): the level bisections of one crossing step, for
    u and v and for successive levels, share their first midpoints."""
    outcomes = {}

    def advance_by(theta):
        if theta not in outcomes:
            try:
                outcomes[theta] = advance(w, react, theta * dt)
            except StepRangeError as exc:
                outcomes[theta] = exc
        if isinstance(outcomes[theta], StepRangeError):
            raise outcomes[theta]
        return outcomes[theta]

    return advance_by


def _bisect_crossing(advance_by, level, component):
    """Largest-accuracy step fraction theta at which the component's maximum
    reaches level, by bisection on advance_by (a StepRangeError is above)."""
    lo, hi = 0.0, 1.0
    for _ in range(_LEVEL_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        try:
            wm = advance_by(mid)
        except StepRangeError:
            hi = mid
            continue
        if wm[component].max() >= level:
            hi = mid
        else:
            lo = mid
    return hi


def _reach_levels(reached, maxima, levels, t, dt, advance_by):
    """Append to reached[c], the times component c has reached the levels,
    t + theta dt for each further level its maximum maxima[c] reaches, theta
    by bisection on advance_by (0 without one: the initial state).  Returns
    the (theta, c) of the components that reached the innermost level."""
    final = []
    for c, (times, top) in enumerate(zip(reached, maxima)):
        while len(times) < len(levels) and top >= levels[len(times)]:
            level = levels[len(times)]
            theta = 0.0 if advance_by is None else _bisect_crossing(advance_by, level, c)
            times.append(t + theta * dt)
            if len(times) == len(levels):
                final.append((theta, c))
    return final


def _quench_event(final, reached, w) -> QuenchEvent:
    """The event at w, the state where the first component in final (from
    _reach_levels) reached the innermost level: it leads, and which is "both"
    when the other did within 1e-9 of the step."""
    lead = min(final)[1]
    both = len(final) == 2 and abs(final[0][0] - final[1][0]) <= 1e-9
    time, extrapolated = _aitken_quench_time(tuple(reached[lead]))
    return QuenchEvent(time=time, which="both" if both else "uv"[lead],
                       level=float(w[lead].max()), extrapolated=extrapolated,
                       level_times=tuple(reached[lead]))


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
    there a step reaching 1 raises StepRangeError.  All attempts from a
    state, and the bisections and final partial step in its crossing step,
    share one reaction.

    ``_reach_levels`` logs when each component reaches each quench level: at
    0 for the initial data, then in a crossing step by bisection on the step
    fraction, which re-runs the same advance (each fraction once), so the
    crossing times agree with the accepted states.  The run stops at the
    first state reaching the innermost level, and ``_quench_event`` reports
    it, its time extrapolated from the three crossings geometrically.

    The state (u, v) is one (2, n) block.  The initial data must lie in
    [0, 1) (ValueError); every state made from them does by construction.
    The solves of an attempt (its full step and both half steps) are checked
    together once they are made, and before a StepRangeError is raised.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    w = _state_block(grid, initial[0], initial[1], "u0", "v0")
    if reference is not None:
        reference = (grid.check_field(reference[0], "reference u"),
                     grid.check_field(reference[1], "reference v"))
    kernel = _Kernel(grid, model, params, config.fixed_dt)
    recorder = _Recorder(grid, model, params, config, reference)
    recorder.record(0.0, w, math.nan)
    levels = config.quench_levels
    reached = ([], [])  # per component, the times it reached each level
    maxima = w.max(axis=1).tolist()
    final = _reach_levels(reached, maxima, levels, 0.0, 0.0, None)

    t = 0.0
    dt = config.dt_init
    status = TerminalStatus.HORIZON
    time_slack = 1e-12 * horizon
    react = None  # the reaction at w, shared by every attempt from there

    while not final and t < horizon - time_slack:
        if react is None:
            react = kernel.reaction(w)
        cap = max(QUENCH_CAP * (1.0 - max(maxima)) ** 2, config.dt_min)
        dt_eff = min(dt, config.dt_max, cap, horizon - t)

        try:
            wn, err = kernel.attempt(w, react, dt_eff)
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

        # Accepted.  A step reaching a further level is a crossing step; one
        # in which a component reaches the innermost level ends the run at
        # the first such crossing.
        maxima = wn.max(axis=1).tolist()
        if maxima[0] >= levels[len(reached[0])] or maxima[1] >= levels[len(reached[1])]:
            advance_by = _memoized_advance(kernel.advance, w, react, dt_eff)
            final = _reach_levels(reached, maxima, levels, t, dt_eff, advance_by)
            if final:
                theta = min(final)[0]
                t, w = t + theta * dt_eff, advance_by(theta)
                recorder.record(t, w, theta * dt_eff)
                break

        t += dt_eff
        w = wn
        react = None
        recorder.record(t, w, dt_eff)

        if err > 0:
            factor = min(GROWTH_LIMIT, max(0.2, SAFETY * math.sqrt(config.tol_step / err)))
        else:
            factor = GROWTH_LIMIT
        dt = min(max(dt_eff * factor, config.dt_min), config.dt_max)

    quench = _quench_event(final, reached, w) if final else None
    return recorder.build(TerminalStatus.QUENCHED if final else status, quench, horizon, w)
