"""End-to-end and per-layer benchmark of the quenchlab CLI.

    python3 bench/run.py --workload curve|quench|decay2d --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the workload's
INI inputs from the seed, then calls ``quenchlab.cli.main`` in this process
with ``--threads 1`` on each operation of the workload, pass after pass,
each pass into a fresh output directory, until S seconds have gone by.  Every
operation's outputs are checked (see checks.py); an operation fails when it
exits non-zero or a check fails.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters that import quenchlab.cli and write the inputs), pass_s (median
wall time of the passes, checks excluded) and peak_rss_mb.  The run imports
quenchlab before its first pass, so every pass is warm: the cold start is
what setup_s measures.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (see spans.py).  The last line of standard output is the JSON result.
"""

import os

# One BLAS/OpenMP thread: the load must fit a 2-core machine, and pinning
# keeps every run on the same code path.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "QUENCHLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, per_layer  # noqa: E402

SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import quenchlab.cli
import workloads
from pathlib import Path
workloads.write_inputs(workloads.make(sys.argv[3], int(sys.argv[4])), Path(sys.argv[5]))
"""


def measure_setup(name: str, seed: int) -> float:
    """Median time for a fresh interpreter to import the CLI and write the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        target = OUT / name / "setup"
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name,
                        str(seed), str(target)], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_pass(cli, workload, inputs: dict, out: Path, tracer=None):
    """Run the workload's operations once; returns (seconds, artifacts by op)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    seconds = 0.0
    arts = {}
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    try:
        for op in workload.ops:
            argv = [op.command, "--config", str(inputs[op.config]),
                    "--out", str(out / op.name), "--threads", "1"]
            t0 = perf_counter()
            try:
                rc = cli.main(argv) if tracer is None else tracer.root("cli.main", cli.main, argv)
            except (Exception, SystemExit) as exc:  # a crash is one failed operation
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
            seconds += perf_counter() - t0
            arts[op.name] = checks.Artifacts(out / op.name, rc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, arts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curve", "quench", "decay2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quenchlab" / "cli.py").is_file():
        print(f"no quenchlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    import quenchlab.cli as cli

    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    workload = workloads.make(args.workload, args.seed)
    inputs = workloads.write_inputs(workload, OUT / args.workload / "inputs")
    ref = checks.Reference(workload)
    tracer = Tracer() if args.trace else None

    plain, traced, layer = [], [], []
    first: dict[str, dict | None] = {op.name: None for op in workload.ops}
    attempted = failed = 0
    start = perf_counter()
    k = 0
    while True:
        # With tracing, odd passes are traced and even ones give pass_s.
        use_tracer = tracer if (tracer is not None and k % 2 == 1) else None
        seconds, arts = run_pass(cli, workload, inputs, OUT / args.workload / "pass", use_tracer)
        for op in workload.ops:
            failures = checks.check_op(args.workload, op.name, arts, ref, first[op.name])
            if k == 0 and arts[op.name].out.is_dir():
                first[op.name] = arts[op.name].digests()
            attempted += 1
            if failures:
                failed += 1
                print(f"pass {k} {op.name} failed: " + "; ".join(failures), file=sys.stderr)
        if use_tracer is not None:
            traced.append(seconds)
            layer.append(tracer.layer_metrics(len(traced) - 1))
        else:
            plain.append(seconds)
        print(f"pass {k}{' traced' if use_tracer else ''}: {seconds:.4f} s", file=sys.stderr)
        k += 1
        if perf_counter() - start >= args.seconds and plain and (tracer is None or traced):
            break

    correct = failed == 0
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        tracer.write(OUT / args.workload / "spans.npz")
        counts = [c for c, _ in layer]
        if any(c != counts[0] for c in counts):
            print("per-layer counts differ between traced passes", file=sys.stderr)
            correct = False
        times = {key: statistics.median(t[key] for _, t in layer) for key in layer[0][1]}
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer(counts[-1], times).items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
