"""Self-test of the benchmark's checks.

    python3 bench/selftest.py [--seed N]

Runs one pass of every workload, confirms that every check accepts the real
outputs, then, for each check, perturbs a copy of the outputs and confirms
that the check rejects it.  Every check must be covered by a perturbation.
It also confirms that the metric names and units the benchmark prints are
the ones BENCHMARK.json declares.  Exits 1 on any miss.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import run  # pins the BLAS/OpenMP pools and puts the sources on sys.path

import checks  # noqa: E402
import quenchlab.cli as cli  # noqa: E402
import workloads  # noqa: E402
from spans import per_layer  # noqa: E402


def edit_json(name, fn):
    def mutate(out: Path):
        doc = json.loads((out / name).read_text())
        fn(doc)
        (out / name).write_text(json.dumps(doc))
    return mutate


def edit_csv(name, fn):
    """fn(column index by name, rows of string cells) edits the rows in place."""
    def mutate(out: Path):
        lines = (out / name).read_text().splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        fn({key: i for i, key in enumerate(header)}, rows)
        (out / name).write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
    return mutate


def scale_cells(keys, factor, rows_slice=slice(None)):
    def fn(col, rows):
        for row in rows[rows_slice]:
            for key in keys:
                row[col[key]] = repr(float(row[col[key]]) * factor)
    return fn


def set_cell(row, key, value):
    def fn(col, rows):
        rows[row][col[key]] = value
    return fn


def raise_later_sample(col, rows):
    for key in ("mu_critical", "bracket_lo", "bracket_hi"):
        rows[6][col[key]] = repr(float(rows[5][col[key]]) + 0.5)


def drop_last_max(col, rows):
    rows[-1][col["max_u"]] = repr(float(rows[-2][col["max_u"]]) - 1e-3)


def nudge_field(col, rows):
    rows[100][col["w"]] = repr(float(rows[100][col["w"]]) + 1e-6)


def set_path(*keys_and_value):
    *keys, value = keys_and_value

    def fn(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
    return fn


def both_intercepts_above(doc):
    # lambda* sits within 1.2% of the ceiling 8/L^2
    for key in ("lambda_star", "mu_star"):
        doc[key] = [1.05 * v for v in doc[key]]


# (workload, operation, check) -> perturbation of that operation's outputs
PERTURBATIONS = {
    ("curve", "curve", "curve_samples_ok"):
        edit_csv("curve.csv", set_cell(3, "status", "wide-bracket")),
    ("curve", "curve", "curve_samples_match_inputs"):
        edit_csv("curve.csv", scale_cells(["lam"], 1 + 1e-9, slice(5, 6))),
    ("curve", "curve", "curve_non_increasing"):
        edit_csv("curve.csv", raise_later_sample),
    ("curve", "curve", "curve_diagonal_at_fold"):
        edit_csv("curve.csv", scale_cells(["mu_critical", "bracket_lo", "bracket_hi"], 1.05)),
    ("curve", "curve", "curve_intercepts_overlap"):
        edit_json("curve.json", set_path("mu_star", lambda v: [x + 0.1 for x in v])),
    ("curve", "curve", "curve_intercepts_below_ceiling"):
        edit_json("curve.json", both_intercepts_above),
    ("quench", "simulate", "simulate_quenched"):
        edit_json("run.json", set_path("status", "horizon")),
    ("quench", "simulate", "simulate_max_nondecreasing"):
        edit_csv("trajectory.csv", drop_last_max),
    ("quench", "simulate", "simulate_time_in_window"):
        edit_json("run.json", set_path("quench", "time", lambda t: 1.2 * t)),
    ("quench", "certify", "certify_c_verified"):
        edit_json("certify.json", set_path("case", "b")),
    ("quench", "certify", "certify_c_within_own_bound"):
        edit_json("certify.json", lambda d: d["verification"].update(
            observed_time=1.1 * d["verification"]["bound_used"])),
    ("quench", "certify", "certify_c_bound_matches"):
        edit_json("certify.json", set_path("verification", "bound_used", lambda b: 1.01 * b)),
    ("decay2d", "stationary", "stationary_in_lambda"):
        edit_json("verdict.json", set_path("status", "undetermined")),
    ("decay2d", "stationary", "stationary_residual"):
        edit_csv("fields.csv", nudge_field),
    ("decay2d", "eigen", "eigen_lambda1"):
        edit_json("eigen.json", set_path("lambda1", lambda v: v * (1 + 1e-9))),
    ("decay2d", "eigen", "eigen_nu1_range"):
        edit_json("eigen.json", lambda d: d.update(nu1=1.01 * d["lambda1"])),
    ("decay2d", "eigen", "eigen_nu1_matches_own"):
        edit_json("eigen.json", set_path("nu1", lambda v: v * (1 + 1e-6))),
    ("decay2d", "eigen", "eigen_functions_positive"):
        edit_csv("eigenfunctions.csv", set_cell(0, "psi", "-1e-12")),
    ("decay2d", "certify", "certify_a1_verified"):
        edit_json("certify.json", set_path("verification", "passes", False)),
    ("decay2d", "certify", "certify_a1_gamma"):
        edit_json("certify.json",
                  set_path("verification", "gamma_certified", lambda g: g * 1.001)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    misses = []

    declared = {check.__name__ for ops in checks.CHECKS.values()
                for fns in ops.values() for check in fns}
    uncovered = declared - {check for _, _, check in PERTURBATIONS}
    if uncovered:
        misses.append(f"checks without a perturbation: {sorted(uncovered)}")

    for name in workloads.NAMES:
        workload = workloads.make(name, args.seed)
        base = run.OUT / "selftest" / name
        inputs = workloads.write_inputs(workload, base / "inputs")
        _, arts = run.run_pass(cli, workload, inputs, base / "pass")
        ref = checks.Reference(workload)
        rcs = {op: art.rc for op, art in arts.items()}
        for op, art in arts.items():
            failures = checks.check_op(name, op, arts, ref, art.digests())
            if failures:
                misses.append(f"{name}/{op}: real outputs rejected: {failures}")

        def copy(rc_override=None):
            target = base / "perturbed"
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(base / "pass", target)
            rc_override = rc_override or {}
            return {o: checks.Artifacts(target / o, rc_override.get(o, rc))
                    for o, rc in rcs.items()}

        for op in arts:
            first = arts[op].digests()
            perturbed = copy({op: 1})
            if not checks.check_op(name, op, perturbed, ref, first):
                misses.append(f"{name}/{op}: exit code 1 accepted")
            perturbed = copy()
            victim = sorted(perturbed[op].out.iterdir())[0]
            victim.write_bytes(victim.read_bytes() + b" ")
            if not checks.check_op(name, op, perturbed, ref, first):
                misses.append(f"{name}/{op}: changed bytes in {victim.name} accepted")

        for (wl, op, check_name), mutate in PERTURBATIONS.items():
            if wl != name:
                continue
            perturbed = copy()
            mutate(perturbed[op].out)
            check = next(c for c in checks.CHECKS[wl][op] if c.__name__ == check_name)
            try:
                check(perturbed, ref)
            except checks.CheckError as exc:
                print(f"ok  {wl}/{op}/{check_name}: {exc}")
            else:
                misses.append(f"{wl}/{op}/{check_name}: perturbed output accepted")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    printed = {name: unit for name, (_, unit) in per_layer({}, {}).items()}
    printed["trace.overhead_s"] = "s"
    for kind, names in (("end_to_end", {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}),
                        ("per_layer", printed)):
        if {m["name"]: m["unit"] for m in spec[kind]} != names:
            misses.append(f"BENCHMARK.json {kind} differs from the printed metrics")

    for miss in misses:
        print("MISS", miss)
    print(f"{len(PERTURBATIONS)} perturbations, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
