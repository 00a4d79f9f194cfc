"""Seeded inputs for the quenchlab benchmark.

A workload is a list of CLI operations over INI files generated from the
seed.  The seed moves the parameters inside narrow windows around the
shipped configs, so every seed takes the same code paths at nearly the same
cost while no two seeds hand the program identical inputs.

This module imports nothing heavy: the set-up timing imports it in a fresh
interpreter next to ``quenchlab.cli``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("curve", "quench", "decay2d")


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass: ``quenchlab <command> --config <config>``."""

    name: str
    command: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    configs: dict  # file name -> {section: {key: value}}
    ops: tuple[Op, ...]


def _power2(lam: float, mu: float) -> dict:
    return {"f_family": "power", "f_p": 2.0, "g_family": "power", "g_p": 2.0,
            "lambda": lam, "mu": mu}


def _curve(rng: random.Random) -> Workload:
    # On an interval of length L the problem at (lam, mu) is the one on (0,1)
    # at (lam L^2, mu L^2).  The seed moves and stretches the interval and
    # scales the 16 samples of configs/curve.ini (0.2 to 2.45) by 1/L^2, so
    # every seed asks the same question on different inputs.  Moving the
    # samples along the curve instead changes the cost by up to 2.4x: a
    # bisection midpoint that lands next to the fold costs thousands of
    # Picard iterations.
    a = rng.uniform(-0.5, 0.5)
    length = rng.uniform(0.9, 1.1)
    samples = [(0.2 + 0.15 * k) / length**2 for k in range(16)]
    config = {
        "domain": {"dimension": 1, "a": a, "b": a + length, "n": 99},
        "model": {"f_family": "power", "f_p": 2.0, "g_family": "power", "g_p": 2.0},
        "run": {"lambda_samples": samples, "bisect_tol": 1e-3},
    }
    params = {"lambda_samples": samples, "n": 99, "length": length, "bisect_tol": 1e-3}
    return Workload("curve", params, {"curve.ini": config}, (Op("curve", "curve", "curve.ini"),))


def _quench(rng: random.Random) -> Workload:
    lam_sim = rng.uniform(11.75, 12.25)
    lam_cert = rng.uniform(19.5, 20.5)
    amp_u = rng.uniform(0.88, 0.92)
    amp_v = rng.uniform(0.88, 0.92)
    domain = {"dimension": 1, "a": 0.0, "b": 1.0, "n": 199}
    simulate = {  # configs/forced_quench.ini
        "domain": domain,
        "model": {**_power2(lam_sim, lam_sim), "initial_kind": "zero"},
        "run": {"horizon": 1.0},
    }
    certify = {  # configs/certified_quench.ini: case c, the quench-time bound
        "domain": domain,
        "model": {"f_family": "log", "g_family": "log", "lambda": lam_cert, "mu": lam_cert,
                  "initial_kind": "sine", "initial_amp_u": amp_u, "initial_amp_v": amp_v},
        "run": {"horizon": 1.0},
    }
    params = {"n": 199, "lambda_simulate": lam_sim, "lambda_certify": lam_cert,
              "amp_u": amp_u, "amp_v": amp_v}
    return Workload("quench", params,
                    {"simulate.ini": simulate, "certify.ini": certify},
                    (Op("simulate", "simulate", "simulate.ini"),
                     Op("certify", "certify", "certify.ini")))


def _decay2d(rng: random.Random) -> Workload:
    lam = rng.uniform(0.47, 0.53)
    mu = rng.uniform(0.47, 0.53)
    # (0,2)x(0,1) with 47x23 interior nodes: h = 1/24 on both axes, nx != ny.
    config = {
        "domain": {"dimension": 2, "a": 0.0, "b": 2.0, "c": 0.0, "d": 1.0, "nx": 47, "ny": 23},
        "model": {**_power2(lam, mu), "initial_kind": "zero"},
        "run": {"horizon": 5.0, "reference": "minimal"},
    }
    params = {"lambda": lam, "mu": mu, "extents": ((0.0, 2.0), (0.0, 1.0)), "n": (47, 23)}
    return Workload("decay2d", params, {"decay2d.ini": config},
                    tuple(Op(c, c, "decay2d.ini") for c in ("stationary", "eigen", "certify")))


_MAKERS = {"curve": _curve, "quench": _quench, "decay2d": _decay2d}


def make(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    return _MAKERS[name](random.Random(f"{name}-{seed}"))


def _value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_inputs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write the workload's INI files into ``directory``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for file_name, sections in workload.configs.items():
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {_value(value)}" for key, value in keys.items()]
            lines.append("")
        paths[file_name] = directory / file_name
        paths[file_name].write_text("\n".join(lines))
    return paths
