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


class TerminalStatus(enum.Enum):
    HORIZON = "horizon"
    QUENCHED = "quenched"
    STEP_UNDERFLOW = "step-underflow"


@dataclass(frozen=True)
class StepperConfig:
    """Stepper controls.  dt_min == dt_max selects fixed-step mode, which
    disables the error controller and the quench-proximity cap."""

    dt_init: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float = 0.05
    safety: float = 0.9
    tol_step: float = 1e-6
    quench_delta: float = 1e-3
    snapshot_stride: int = 10
    quench_cap: float = 0.25
    growth_limit: float = 2.0
    tol_lin: float = 1e-12

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
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
         params: ParamPoint, *, tol_lin: float = 1e-12) -> tuple[FloatArray, FloatArray]:
    """One IMEX Euler step of size dt from (u, v).

    Solves (I + dt A) u_new = u + dt lam alpha f(v) and the mirror equation.
    Raises StepRangeError when either new component reaches 1.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    solver = grid.laplacian.shifted(1.0, dt)
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    return _imex_step(u, v, dt, solver, alpha, beta, model, params, tol_lin)


def _imex_step(u, v, dt, solver, alpha, beta, model, params, tol_lin):
    rhs = np.array([u + dt * (params.lam * alpha * model.f.value(v)),
                    v + dt * (params.mu * beta * model.g.value(u))]).T
    new = solve_poisson(solver, rhs, tol_lin=tol_lin)  # (u, v) as one block
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
    return (gradient_inner(grid.laplacian, u, v)
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


def simulate(initial: tuple[FloatArray, FloatArray], grid: Grid, model: Model,
             params: ParamPoint, config: StepperConfig, horizon: float, *,
             reference: tuple[FloatArray, FloatArray] | None = None) -> Trajectory:
    """Integrate the system from ``initial`` until horizon, quench, or
    step underflow.

    Adaptive mode advances by two half steps, accepting when they agree with
    the single full step to tol_step in the sup norm; the proposed step is
    additionally capped by quench_cap * (1 - max)^2 so the state cannot jump
    over the staged quench levels.  Quench levels are located inside the
    crossing step by bisection on the step fraction, which re-runs the same
    two-half-step advance, so crossing times are consistent with the accepted
    states.  Each crossing is logged per component; when a component crosses
    the innermost level the run stops there and the event time extrapolates
    the three crossings geometrically.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    op = grid.laplacian
    u = np.array(grid.check_field(initial[0], "u0"), dtype=float, copy=True)
    v = np.array(grid.check_field(initial[1], "v0"), dtype=float, copy=True)
    if max(float(u.max()), float(v.max())) >= 1.0:
        raise ValueError("initial data must stay below the blow-up level 1")
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    if reference is not None:
        reference = (grid.check_field(reference[0], "reference u"),
                     grid.check_field(reference[1], "reference v"))

    def imex(uc, vc, dt, solver):
        return _imex_step(uc, vc, dt, solver, alpha, beta, model, params, config.tol_lin)

    def single(uc, vc, dt):
        return imex(uc, vc, dt, op.shifted(1.0, dt))

    if config.fixed_dt:
        advance = single
    else:
        def advance(uc, vc, dt):
            half = op.shifted(1.0, 0.5 * dt)  # one factorization for both half steps
            return imex(*imex(uc, vc, 0.5 * dt, half), 0.5 * dt, half)

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

    def bisect_crossing(uc, vc, dt, level, which):
        """Largest-accuracy step fraction theta with max(component) = level."""
        lo, hi = 0.0, 1.0
        for _ in range(_LEVEL_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            try:
                um, vm = advance(uc, vc, mid * dt)
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

    while t < horizon - time_slack:
        top = max(float(u.max()), float(v.max()))
        if config.fixed_dt:
            dt_eff = min(config.dt_max, horizon - t)
        else:
            cap = max(config.quench_cap * (1.0 - top) ** 2, config.dt_min)
            dt_eff = min(dt, config.dt_max, cap, horizon - t)

        try:
            if config.fixed_dt:
                un, vn = advance(u, v, dt_eff)
                err = 0.0
            else:
                u1, v1 = single(u, v, dt_eff)
                un, vn = advance(u, v, dt_eff)
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

        if not config.fixed_dt and err > config.tol_step:
            dt = dt_eff * max(0.2, config.safety * math.sqrt(config.tol_step / err))
            if dt < config.dt_min and horizon - t > config.dt_min:
                status = TerminalStatus.STEP_UNDERFLOW
                break
            continue

        # Accepted.  Before committing, resolve any staged level crossings
        # inside this step, in increasing-level order per component.
        crossed_final: list[tuple[float, str]] = []
        for which, new_field in (("u", un), ("v", vn)):
            new_max = float(new_field.max())
            while level_cursor[which] < 3 and new_max >= levels[level_cursor[which]]:
                idx = level_cursor[which]
                theta = bisect_crossing(u, v, dt_eff, levels[idx], which)
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
            uq, vq = advance(u, v, theta * dt_eff)
            t_cross = t + theta * dt_eff
            recorder.accepted += 1
            recorder.record(t_cross, uq, vq, theta * dt_eff, u, v)
            recorder.snapshot(t_cross, uq, vq, force=True)
            t_event, extrapolated = _aitken_quench_time(tuple(level_times[lead]))
            quench = QuenchEvent(
                time=t_event, which=which,
                level=float((uq if lead == "u" else vq).max()),
                extrapolated=extrapolated,
                level_times=tuple(level_times[lead]))
            u, v = uq, vq
            status = TerminalStatus.QUENCHED
            break

        u_prev, v_prev = u, v
        t += dt_eff
        u, v = un, vn
        recorder.accepted += 1
        recorder.record(t, u, v, dt_eff, u_prev, v_prev)
        recorder.snapshot(t, u, v)

        if not config.fixed_dt:
            if err > 0:
                factor = min(config.growth_limit,
                             max(0.2, config.safety * math.sqrt(config.tol_step / err)))
            else:
                factor = config.growth_limit
            dt = min(max(dt_eff * factor, config.dt_min), config.dt_max)

    recorder.snapshot(t, u, v, force=True)
    return recorder.build(status, quench, horizon, u, v)


@dataclass(frozen=True)
class RatioConstants:
    """Comparison constants c with u >= c_uv * v (and the mirror) along the
    flow, each the minimum of a curvature term and an initial-slope term.
    A None constant means neither term could be certified; notes say why."""

    c_uv: float | None
    c_vu: float | None
    curvature_uv: float | None
    initial_uv: float | None
    curvature_vu: float | None
    initial_vu: float | None
    notes: tuple[str, ...]


def ratio_constants(u0: FloatArray, v0: FloatArray, grid: Grid, model: Model,
                    params: ParamPoint, w: FloatArray, z: FloatArray) -> RatioConstants:
    """Certified lower bounds on the component ratios below the steady pair.

    The curvature term compares reaction slopes at the extremes of the range
    the components can visit (0 up to the steady state); the initial term is
    the worst-case ratio of the initial time derivatives.  Terms are dropped
    (with a note) when a denominator is not uniformly positive or a ratio
    changes sign; if both terms drop the constant is None.
    """
    op = grid.laplacian
    u0 = grid.check_field(u0, "u0")
    v0 = grid.check_field(v0, "v0")
    w = grid.check_field(w, "w")
    z = grid.check_field(z, "z")
    alpha = model.alpha.sample(grid)
    beta = model.beta.sample(grid)
    notes: list[str] = []

    ratio_ab = float((alpha / beta).min())
    ratio_ba = float((beta / alpha).min())
    curv_uv = math.sqrt((params.lam / params.mu) * ratio_ab
                        * model.f.deriv(0.0) / model.g.deriv(float(w.max())))
    curv_vu = math.sqrt((params.mu / params.lam) * ratio_ba
                        * model.g.deriv(0.0) / model.f.deriv(float(z.max())))

    ut0 = -op.apply(u0) + params.lam * alpha * model.f.value(v0)
    vt0 = -op.apply(v0) + params.mu * beta * model.g.value(u0)

    def safe_inf_ratio(num, den, label):
        floor = 1e-12 * float(np.abs(den).max())
        if float(den.min()) <= floor:
            notes.append(f"{label}: denominator not uniformly positive, term dropped")
            return None
        r = num / den
        low = float(r.min())
        if low <= 0.0:
            notes.append(f"{label}: ratio is not positive everywhere, term dropped")
            return None
        return low

    init_uv = safe_inf_ratio(ut0, vt0, "initial u_t/v_t")
    init_vu = safe_inf_ratio(vt0, ut0, "initial v_t/u_t")

    def combine(curv, init):
        terms = [term for term in (curv, init) if term is not None]
        return min(terms) if terms else None

    return RatioConstants(
        c_uv=combine(curv_uv, init_uv), c_vu=combine(curv_vu, init_vu),
        curvature_uv=curv_uv, initial_uv=init_uv,
        curvature_vu=curv_vu, initial_vu=init_vu,
        notes=tuple(notes))
