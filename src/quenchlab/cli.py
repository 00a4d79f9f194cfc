"""Command-line surface: INI configuration, run orchestration, CSV/JSON output.

Commands
    stationary   minimal steady state and membership verdict
    curve        trace the existence-region boundary over lambda samples
    eigen        principal eigenvalue of the linearization at the steady state
    simulate     time integration with quench detection
    rate         tail decay-rate certificate against the reference steady state
    certify      case classification plus the applicable verification

Configuration lives in one INI file with sections [domain], [model], [run];
``--override section.key=value`` flags win over the file.  Each command builds
one ``Run`` from the resolved configuration (grid, model, parameters; steady
states and initial data on first use) and writes its artifacts from it; the
Laplacian and its principal eigenvalue lambda1 come from the grid.  Every
output embeds the fully resolved configuration, numeric CSV cells carry 17
significant digits, and a rerun with the same inputs is bit-identical.
``--threads`` is validated and echoed but has no effect.  Exit codes: 0 for
success (for certify: certificate verified), 1 for a failed run, a failed
certificate or a numerical error, 2 for configuration errors, including a
ValueError while building the run or its initial data (for certify also:
nothing to verify).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from functools import cached_property

import numpy as np

from .certificates import (
    classify_case,
    initial_from_recipe,
    rate_certificate,
    verify_quench_bound,
)
from .errors import ConfigError, QuenchlabError
from .evolution import StepperConfig, TerminalStatus, simulate
from .grid import interval, principal_laplacian_eigenpair, rectangle
from .model import (
    InitialData,
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    validate_hypotheses,
)
from .spectra import assemble_linearization, principal_eigenpair
from .stationary import (
    InLambda,
    MembershipVerdict,
    StationarySolution,
    analytic_nonexistence_bound,
    mass_bound_check,
    monotone_minimal_solution,
    second_solution_search,
    trace_critical_curve,
)

_FAMILY_CHOICES = ("log", "exp", "power")
_PROFILE_CHOICES = ("constant", "bump", "powerdist")
_INITIAL_CHOICES = ("zero", "sine", "scaled_minimal", "convex_combo", "above_second")
_REFERENCE_CHOICES = ("none", "minimal")


def _float(raw: str) -> float:
    return float(raw)


def _int(raw: str) -> int:
    return int(raw)


def _float_list(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    return tuple(float(p) for p in parts)


def _optional_floats(raw: str) -> tuple[float, ...] | None:
    raw = raw.strip()
    return _float_list(raw) if raw else None


def _choice(*allowed: str):
    def cast(raw: str) -> str:
        value = raw.strip()
        if value not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {value!r}")
        return value
    return cast


def _profile_keys(prefix: str) -> dict:
    return {
        f"{prefix}_family": (_choice(*_PROFILE_CHOICES), "constant"),
        f"{prefix}_c": (_float, 1.0),
        f"{prefix}_width": (_float, 10.0),
        f"{prefix}_center": (_optional_floats, None),
        f"{prefix}_kappa": (_float, 1.0),
    }


# key -> (caster, default); None default means "unset, resolved later"
_SCHEMA: dict[str, dict] = {
    "domain": {
        "dimension": (_int, 1),
        "a": (_float, 0.0),
        "b": (_float, 1.0),
        "c": (_float, 0.0),
        "d": (_float, 1.0),
        "n": (_int, 199),
        "nx": (_int, None),
        "ny": (_int, None),
    },
    "model": {
        "f_family": (_choice(*_FAMILY_CHOICES), "log"),
        "f_p": (_float, 2.0),
        "g_family": (_choice(*_FAMILY_CHOICES), "log"),
        "g_p": (_float, 2.0),
        **_profile_keys("alpha"),
        **_profile_keys("beta"),
        "lambda": (_float, 1.0),
        "mu": (_float, 1.0),
        "initial_kind": (_choice(*_INITIAL_CHOICES), "zero"),
        "initial_s": (_float, 0.5),
        "initial_eps": (_float, 0.05),
        "initial_amp_u": (_float, 0.9),
        "initial_amp_v": (_float, 0.9),
    },
    "run": {
        "horizon": (_float, 5.0),
        "dt_init": (_float, 1e-4),
        "dt_min": (_float, 1e-12),
        "dt_max": (_float, 0.05),
        "safety": (_float, 0.9),
        "tol_step": (_float, 1e-6),
        "quench_delta": (_float, 1e-3),
        "snapshot_stride": (_int, 10),
        "quench_cap": (_float, 0.25),
        "growth_limit": (_float, 2.0),
        "tol_lin": (_float, 1e-12),
        "tol_stat": (_float, 1e-10),
        "max_iter": (_int, 10_000),
        "delta_blow": (_float, 1e-4),
        "tol_res": (_float, 1e-8),
        "bisect_tol": (_float, 1e-3),
        "lambda_samples": (_float_list, ()),
        "curve_max_iter": (_int, 2000),
        "floor_factor": (_float, 1e-6),
        "seed_amplitude": (_float, 0.8),
        "eigen_coupling_scale": (_float, 1.0),
        "reference": (_choice(*_REFERENCE_CHOICES), "none"),
    },
}


def load_config(path: str, overrides: list[str]) -> dict:
    """Read the INI file, apply overrides, and return the resolved mapping.

    Every key is schema checked; the error for an unknown or malformed key
    names it as section.key.
    """
    cfg = {section: {key: default for key, (_, default) in keys.items()}
           for section, keys in _SCHEMA.items()}

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read configuration file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown configuration section [{section}]", key=section)
        for key, raw in parser.items(section):
            _apply(cfg, section, key, raw)

    for entry in overrides:
        head, sep, raw = entry.partition("=")
        section, dot, key = head.partition(".")
        if not sep or not dot or section not in _SCHEMA:
            raise ConfigError(
                f"override must look like section.key=value, got {entry!r}",
                key=head)
        _apply(cfg, section, key.strip(), raw)

    # Resolve dt_init into [dt_min, dt_max] so fixed-step configs need not
    # repeat the value; the echoed config carries the resolved number.
    r = cfg["run"]
    r["dt_init"] = min(max(r["dt_init"], r["dt_min"]), r["dt_max"])
    return cfg


def _apply(cfg: dict, section: str, key: str, raw: str) -> None:
    schema = _SCHEMA[section]
    if key not in schema:
        raise ConfigError(f"unknown configuration key {section}.{key}",
                          key=f"{section}.{key}")
    caster = schema[key][0]
    try:
        cfg[section][key] = caster(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}",
                          key=f"{section}.{key}") from exc


def build_grid(cfg: dict):
    d = cfg["domain"]
    if d["dimension"] == 1:
        return interval(d["a"], d["b"], d["n"])
    if d["dimension"] == 2:
        nx = d["nx"] if d["nx"] is not None else d["n"]
        ny = d["ny"] if d["ny"] is not None else d["n"]
        return rectangle((d["a"], d["b"]), (d["c"], d["d"]), nx, ny)
    raise ConfigError(f"domain.dimension must be 1 or 2, got {d['dimension']}",
                      key="domain.dimension")


def _build_profile(m: dict, prefix: str) -> Profile:
    center = m[f"{prefix}_center"]
    return Profile(family=m[f"{prefix}_family"], c=m[f"{prefix}_c"],
                   width=m[f"{prefix}_width"],
                   center=None if center is None else tuple(center),
                   kappa=m[f"{prefix}_kappa"])


def build_model(cfg: dict) -> tuple[Model, ParamPoint]:
    m = cfg["model"]
    model = Model(
        f=Nonlinearity(family=m["f_family"], p=m["f_p"]),
        g=Nonlinearity(family=m["g_family"], p=m["g_p"]),
        alpha=_build_profile(m, "alpha"),
        beta=_build_profile(m, "beta"))
    return model, ParamPoint(lam=m["lambda"], mu=m["mu"])


def build_stepper(cfg: dict) -> StepperConfig:
    r = cfg["run"]
    return StepperConfig(
        dt_init=r["dt_init"], dt_min=r["dt_min"], dt_max=r["dt_max"],
        safety=r["safety"], tol_step=r["tol_step"],
        quench_delta=r["quench_delta"], snapshot_stride=r["snapshot_stride"],
        quench_cap=r["quench_cap"], growth_limit=r["growth_limit"],
        tol_lin=r["tol_lin"])


def _sine_pair(grid, amp_u: float, amp_v: float):
    coords = grid.coordinates()
    shape = np.ones(grid.n_total)
    for axis, (lo, hi) in enumerate(grid.extents):
        shape = shape * np.sin(np.pi * (coords[:, axis] - lo) / (hi - lo))
    return amp_u * shape, amp_v * shape


def build_recipe(cfg: dict, grid) -> InitialData:
    m = cfg["model"]
    kind = m["initial_kind"]
    if kind == "zero":
        return InitialData.zero()
    if kind == "sine":
        return InitialData.explicit(*_sine_pair(grid, m["initial_amp_u"],
                                                m["initial_amp_v"]))
    if kind == "scaled_minimal":
        return InitialData.scaled_minimal(m["initial_s"])
    if kind == "convex_combo":
        return InitialData.convex_combo(m["initial_s"])
    return InitialData.above_second(m["initial_eps"])


class Run:
    """Everything one command computes from the resolved configuration.

    Building it is the config phase: the grid, model, parameters, stepper,
    initial-data recipe, the model hypotheses and the horizon, where any
    ValueError is a ConfigError.  The membership verdict (with the minimal
    steady state), the second steady state and the initial pair are computed
    on first use.
    """

    def __init__(self, cfg: dict, command: str, threads: int):
        self.command = command
        self.settings = r = cfg["run"]
        self.echo = _config_echo(cfg, command, threads)
        try:
            self.grid = build_grid(cfg)
            self.model, self.params = build_model(cfg)
            self.stepper = build_stepper(cfg)
            self.recipe = build_recipe(cfg, self.grid)
            hypotheses = validate_hypotheses(self.model, self.grid, self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not hypotheses.ok:
            raise ConfigError(f"model hypothesis violated: {hypotheses.first_violation}")
        if not r["horizon"] > 0:
            raise ConfigError(f"run.horizon must be positive, got {r['horizon']}",
                              key="run.horizon")

    @cached_property
    def verdict(self) -> MembershipVerdict:
        r = self.settings
        return monotone_minimal_solution(
            self.grid, self.model, self.params, tol_stat=r["tol_stat"],
            max_iter=r["max_iter"], delta_blow=r["delta_blow"],
            tol_res=r["tol_res"])

    @property
    def minimal(self) -> StationarySolution | None:
        return self.verdict.solution if isinstance(self.verdict, InLambda) else None

    def steady_state(self) -> StationarySolution:
        """The minimal steady state, without which the command fails."""
        if self.minimal is None:
            raise QuenchlabError(f"{self.command} needs a steady state; "
                                 f"membership verdict is {self.verdict.status!r}")
        return self.minimal

    @cached_property
    def second(self) -> StationarySolution | None:
        return second_solution_search(
            self.grid, self.model, self.params, self.minimal,
            seed_amplitude=self.settings["seed_amplitude"])

    @cached_property
    def initial(self) -> tuple[np.ndarray, np.ndarray]:
        pair, _ = initial_from_recipe(self.recipe, self.grid,
                                      lambda: self.verdict, lambda _: self.second)
        return pair

    def linearized_pair(self, state: StationarySolution, coupling_scale: float = 1.0):
        """Principal eigenpair of the linearization at a steady state."""
        return principal_eigenpair(assemble_linearization(
            self.grid, self.model, self.params, state.w, state.z,
            coupling_scale=coupling_scale))

    def evolve(self, initial, reference=None):
        return simulate(initial, self.grid, self.model, self.params, self.stepper,
                        self.settings["horizon"], reference=reference)

    def decay_rate(self, initial, minimal: StationarySolution):
        """Trajectory against the minimal state and its decay-rate certificate."""
        pair = self.linearized_pair(minimal)
        trajectory = self.evolve(initial, reference=(minimal.w, minimal.z))
        lam1, _ = principal_laplacian_eigenpair(self.grid.laplacian)
        return trajectory, rate_certificate(trajectory, lam1, pair.nu1)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(float(v)) for v in obj.ravel()]
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, TerminalStatus):
        return obj.value
    return obj


def _config_echo(cfg: dict, command: str, threads: int) -> dict:
    echo = _json_safe(cfg)
    echo["command"] = command
    echo["threads"] = threads
    return echo


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(_json_safe(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_table(path: str, header: list[str], rows, echo: dict) -> None:
    """CSV with a leading config-echo comment line and 17-digit numeric cells."""
    floats = ",".join(["%.17g"] * len(header)) + "\n"  # the bytes _fmt gives floats
    with open(path, "w") as handle:
        handle.write("# config: "
                     + json.dumps(_json_safe(echo), sort_keys=True,
                                  separators=(",", ":"))
                     + "\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            if len(row) == len(header) and all(isinstance(cell, float) for cell in row):
                handle.write(floats % tuple(row))
            else:
                handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def read_table(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Re-parse an emitted CSV into (config echo, header, raw string rows)."""
    with open(path) as handle:
        first = handle.readline()
        if not first.startswith("# config: "):
            raise ValueError(f"{path} carries no config echo line")
        echo = json.loads(first[len("# config: "):])
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return echo, header, rows


def _write_fields(path: str, grid, columns: list[str], fields, echo: dict) -> None:
    """One row per interior node: its coordinates, then each field's value."""
    write_table(path, ["x", "y"][: grid.dimension] + columns,
                np.column_stack([grid.coordinates(), *fields]).tolist(), echo)


def _solution_payload(solution) -> dict:
    return {
        "iterations": solution.iterations,
        "final_change": solution.final_change,
        "residual_w": solution.residual_w,
        "residual_z": solution.residual_z,
        "max_w": float(solution.w.max()),
        "max_z": float(solution.z.max()),
    }


def cmd_stationary(run: Run, out: str) -> int:
    grid = run.grid
    lam_bar, mu_bar = analytic_nonexistence_bound(grid, run.model)
    verdict = run.verdict
    payload = {
        "status": verdict.status,
        "lambda": run.params.lam,
        "mu": run.params.mu,
        "lambda_bar": lam_bar,
        "mu_bar": mu_bar,
        "config": run.echo,
    }
    if isinstance(verdict, InLambda):
        solution = verdict.solution
        payload["solution"] = _solution_payload(solution)
        report = mass_bound_check(solution.w, solution.z, grid, run.model,
                                  run.params)
        payload["mass_bound"] = {
            "mass_w": report.mass_w, "bound_w": report.bound_w,
            "mass_z": report.mass_z, "bound_z": report.bound_z,
            "passes": report.passes,
        }
        _write_fields(os.path.join(out, "fields.csv"), grid, ["w", "z"],
                      [solution.w, solution.z], run.echo)
    elif verdict.status == "not-in-lambda":
        payload["evidence"] = verdict.evidence
        payload["detail"] = verdict.detail
    else:
        payload["iterations"] = verdict.iterations
        payload["last_change"] = verdict.last_change
        payload["hint"] = verdict.hint
    write_json(os.path.join(out, "verdict.json"), payload)
    return 0


def cmd_curve(run: Run, out: str) -> int:
    r = run.settings
    samples = r["lambda_samples"]
    if not samples:
        raise ConfigError("curve needs run.lambda_samples",
                          key="run.lambda_samples")
    curve = trace_critical_curve(
        run.grid, run.model, samples, bisect_tol=r["bisect_tol"],
        tol_stat=r["tol_stat"], tol_res=r["tol_res"], max_iter=r["curve_max_iter"],
        delta_blow=r["delta_blow"], floor_factor=r["floor_factor"])
    rows = [[s.lam, s.mu_critical, s.bracket_lo, s.bracket_hi, s.status]
            for s in curve.samples]
    write_table(os.path.join(out, "curve.csv"),
                ["lam", "mu_critical", "bracket_lo", "bracket_hi", "status"],
                rows, run.echo)
    write_json(os.path.join(out, "curve.json"), {
        "lambda_star": list(curve.lambda_star),
        "mu_star": list(curve.mu_star),
        "bisect_tol": curve.bisect_tol,
        "non_increasing": curve.is_non_increasing(),
        "n_samples": len(curve.samples),
        "config": run.echo,
    })
    return 0


def cmd_eigen(run: Run, out: str) -> int:
    solution = run.steady_state()
    scale = run.settings["eigen_coupling_scale"]
    pair = run.linearized_pair(solution, scale)
    write_json(os.path.join(out, "eigen.json"), {
        "nu1": pair.nu1,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "lambda1": principal_laplacian_eigenpair(run.grid.laplacian)[0],
        "coupling_scale": scale,
        "solution": _solution_payload(solution),
        "config": run.echo,
    })
    _write_fields(os.path.join(out, "eigenfunctions.csv"), run.grid,
                  ["phi", "psi"], [pair.phi, pair.psi], run.echo)
    return 0


def _quench_payload(event) -> dict | None:
    if event is None:
        return None
    return {
        "time": event.time,
        "which": event.which,
        "level": event.level,
        "extrapolated": event.extrapolated,
        "level_times": list(event.level_times),
    }


def _write_trajectory(trajectory, grid, out: str, echo: dict) -> None:
    columns = ["t", "max_u", "max_v", "ut_l2", "vt_l2", "energy",
               "dist2_u", "dist2_v", "dt"]
    data = [getattr(trajectory, "times" if c == "t" else c) for c in columns]
    write_table(os.path.join(out, "trajectory.csv"), columns,
                np.column_stack(data).tolist(), echo)

    coords, ones = grid.coordinates(), np.ones(grid.n_total)
    rows = (row for t, u, v in trajectory.snapshots
            for row in np.column_stack([t * ones, coords, u, v]).tolist())
    write_table(os.path.join(out, "snapshots.csv"),
                ["t"] + ["x", "y"][: grid.dimension] + ["u", "v"], rows, echo)


def cmd_simulate(run: Run, out: str) -> int:
    initial = run.initial
    reference = None
    if run.settings["reference"] == "minimal":
        minimal = run.minimal
        if minimal is None:
            raise ConfigError("run.reference = minimal, but no minimal steady "
                              "state exists at this parameter point",
                              key="run.reference")
        reference = (minimal.w, minimal.z)
    trajectory = run.evolve(initial, reference=reference)
    _write_trajectory(trajectory, run.grid, out, run.echo)
    write_json(os.path.join(out, "run.json"), {
        "status": trajectory.status.value,
        "steps": trajectory.n_steps,
        "final_time": float(trajectory.times[-1]),
        "final_max_u": float(trajectory.max_u[-1]),
        "final_max_v": float(trajectory.max_v[-1]),
        "quench": _quench_payload(trajectory.quench),
        "horizon": trajectory.horizon,
        "config": run.echo,
    })
    return 0


def cmd_rate(run: Run, out: str) -> int:
    minimal = run.steady_state()
    trajectory, certificate = run.decay_rate(run.initial, minimal)
    _write_trajectory(trajectory, run.grid, out, run.echo)
    write_json(os.path.join(out, "rate.json"), {
        "gamma_claimed": certificate.gamma_claimed,
        "gamma_certified": certificate.gamma_certified,
        "fitted_rate": certificate.fitted_rate,
        "prefactor": certificate.prefactor,
        "window": list(certificate.window),
        "n_points": certificate.n_points,
        "passes": certificate.passes,
        "nu1": certificate.nu1,
        "lambda1": certificate.lam1,
        "note": certificate.note,
        "config": run.echo,
    })
    return 0 if certificate.passes else 1


def cmd_certify(run: Run, out: str) -> int:
    r = run.settings
    report = classify_case(run.grid, run.model, run.params, run.recipe,
                           seed_amplitude=r["seed_amplitude"],
                           tol_stat=r["tol_stat"], max_iter=r["max_iter"],
                           delta_blow=r["delta_blow"], tol_res=r["tol_res"])
    payload = {
        "case": report.case,
        "expectation": report.expectation,
        "membership": report.membership.status,
        "bound": {
            "bound_u": report.bound.bound_u,
            "bound_v": report.bound.bound_v,
            "threshold_u": report.bound.threshold_u,
            "threshold_v": report.bound.threshold_v,
            "mass_u": report.bound.mass_u,
            "mass_v": report.bound.mass_v,
            "applicable": report.bound.applicable,
        },
        "notes": list(report.notes),
        "config": run.echo,
    }

    if report.case == "none-established":
        payload["verification"] = {"kind": "none", "passes": None,
                                   "note": "no certificate applies"}
        exit_code = 2
    elif report.case in ("a1", "a21"):
        _, certificate = run.decay_rate(report.initial, report.membership.solution)
        payload["verification"] = {
            "kind": "decay-rate", "passes": certificate.passes,
            "fitted_rate": certificate.fitted_rate,
            "gamma_certified": certificate.gamma_certified,
            "gamma_claimed": certificate.gamma_claimed,
            "note": certificate.note,
        }
        exit_code = 0 if certificate.passes else 1
    else:
        trajectory = run.evolve(report.initial)
        if report.case == "c":
            check = verify_quench_bound(trajectory, report.bound)
            payload["verification"] = {
                "kind": "quench-bound", "passes": check.passes,
                "observed_time": check.observed_time,
                "bound_used": check.bound_used, "note": check.note,
            }
            passes = check.passes
        else:  # b or a22: quench expected, no time bound certified
            passes = trajectory.status is TerminalStatus.QUENCHED
            payload["verification"] = {
                "kind": "quench-expected", "passes": passes,
                "status": trajectory.status.value,
                "quench": _quench_payload(trajectory.quench),
            }
        exit_code = 0 if passes else 1

    payload["exit_code"] = exit_code
    write_json(os.path.join(out, "certify.json"), payload)
    return exit_code


_COMMANDS = {
    "stationary": cmd_stationary,
    "curve": cmd_curve,
    "eigen": cmd_eigen,
    "simulate": cmd_simulate,
    "rate": cmd_rate,
    "certify": cmd_certify,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="Steady states, spectra, quenching dynamics, and "
                    "certificates for a coupled singular reaction-diffusion "
                    "system.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("QUENCHLAB_THREADS", "1")),
                        help="accepted (>= 1) and echoed as config.threads; "
                             "has no effect, every command runs in one thread")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one configuration value; repeatable")
    return parser.parse_args(argv)


def _emit_error(out: str, exc: Exception, code: int) -> int:
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    key = getattr(exc, "key", None)
    if key is not None:
        body["error"]["key"] = key
    nu = getattr(exc, "nu_estimate", None)
    if nu is not None:
        body["error"]["nu_estimate"] = nu
    text = json.dumps(_json_safe(body), indent=2, sort_keys=True)
    print(text, file=sys.stderr)
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "error.json"), "w") as handle:
            handle.write(text + "\n")
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](Run(cfg, args.command, args.threads),
                                       args.out)
    except ConfigError as exc:
        return _emit_error(args.out, exc, 2)
    except (QuenchlabError, ValueError) as exc:
        return _emit_error(args.out, exc, 1)


if __name__ == "__main__":
    raise SystemExit(main())
