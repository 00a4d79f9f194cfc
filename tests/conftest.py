"""Shared fixtures.

The expensive artifacts (the random membership batch, the long decay run)
are session-scoped so the acceptance tests that reuse them do not pay for
them twice; each fixture records its own wall-clock cost so the owning
acceptance test can assert the runtime budget honestly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quenchlab import (
    Model,
    Nonlinearity,
    ParamPoint,
    Profile,
    StepperConfig,
    analytic_nonexistence_bound,
    interval,
    monotone_minimal_solution,
    principal_laplacian_eigenpair,
    simulate,
)


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


def rebind(monkeypatch, original, replacement) -> None:
    """Replace ``original`` in every quenchlab module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "quenchlab" or name.startswith("quenchlab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def power2_model() -> Model:
    return Model(f=Nonlinearity("power", p=2.0), g=Nonlinearity("power", p=2.0),
                 alpha=Profile("constant"), beta=Profile("constant"))


def unit_stack(n: int):
    g = interval(0.0, 1.0, n)
    op = g.laplacian
    return g, op, principal_laplacian_eigenpair(op)


@pytest.fixture(scope="session")
def unit99():
    return unit_stack(99)


@pytest.fixture(scope="session")
def unit199():
    return unit_stack(199)


@pytest.fixture(scope="session")
def membership_batch(unit99):
    """Twenty random configurations verified to admit a steady state.

    Rejection-samples model/parameter combinations below the analytic
    nonexistence box until twenty land inside the existence region; each
    accepted record carries the solution plus a flag confirming that every
    iterate of the construction was pointwise nondecreasing.
    """
    g, _, _ = unit99
    rng = np.random.default_rng(20260819)
    families = ["log", "exp", "power"]

    def draw_model() -> Model:
        f = Nonlinearity(str(rng.choice(families)), p=float(rng.uniform(1.5, 3.0)))
        gg = Nonlinearity(str(rng.choice(families)), p=float(rng.uniform(1.5, 3.0)))
        if rng.random() < 0.5:
            alpha = Profile("bump", c=float(rng.uniform(0.5, 1.5)), width=6.0)
        else:
            alpha = Profile("constant", c=float(rng.uniform(0.5, 2.0)))
        beta = Profile("constant", c=float(rng.uniform(0.5, 2.0)))
        return Model(f=f, g=gg, alpha=alpha, beta=beta)

    t0 = time.perf_counter()
    records = []
    attempts = 0
    while len(records) < 20 and attempts < 400:
        attempts += 1
        model = draw_model()
        lam_bar, mu_bar = analytic_nonexistence_bound(g, model)
        params = ParamPoint(float(rng.uniform(0.02, 0.3)) * lam_bar,
                            float(rng.uniform(0.02, 0.3)) * mu_bar)
        prev = {"w": None, "z": None}
        mono = {"ok": True}

        def watch(_, w, z, prev=prev, mono=mono):
            if prev["w"] is not None:
                if not (np.all(w >= prev["w"]) and np.all(z >= prev["z"])):
                    mono["ok"] = False
            prev["w"], prev["z"] = w.copy(), z.copy()

        verdict = monotone_minimal_solution(g, model, params, iterate_hook=watch)
        if verdict.status == "in-lambda":
            records.append((model, params, verdict.solution, mono["ok"]))
    elapsed = time.perf_counter() - t0
    assert len(records) == 20, f"only {len(records)} admissible draws in {attempts}"
    return records, elapsed


@pytest.fixture(scope="session")
def decay_run(unit199):
    """Long symmetric decay run toward the minimal steady state.

    Zero data at lam = mu = 0.5 with the inverse-square family, horizon 5,
    recorded against the minimal solution so distance and rate diagnostics
    come for free.  Reused by the energy-identity and rate tests.
    """
    g, op, eig = unit199
    model = power2_model()
    params = ParamPoint(0.5, 0.5)
    t0 = time.perf_counter()
    sol = monotone_minimal_solution(g, model, params).solution
    trajectory = simulate((np.zeros(g.n_total), np.zeros(g.n_total)), g, model,
                          params, StepperConfig(), 5.0,
                          reference=(sol.w, sol.z))
    elapsed = time.perf_counter() - t0
    return {"grid": g, "op": op, "eig": eig, "model": model, "params": params,
            "solution": sol, "trajectory": trajectory, "elapsed": elapsed}
