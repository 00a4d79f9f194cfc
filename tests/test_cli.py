"""Command-line driver: configs, overrides, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_table, rebind
from quenchlab import monotone_minimal_solution, second_solution_search
from quenchlab.cli import _fmt, main, write_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

DECAY = """\
[domain]
dimension = 1
a = 0.0
b = 1.0
n = 49

[model]
f_family = power
f_p = 2.0
g_family = power
g_p = 2.0
lambda = 0.5
mu = 0.5
initial_kind = zero

[run]
horizon = 1.0
reference = minimal
"""

QUENCH = """\
[domain]
dimension = 1
a = 0.0
b = 1.0
n = 49

[model]
f_family = log
g_family = log
lambda = 20.0
mu = 20.0
initial_kind = sine
initial_amp_u = 0.9
initial_amp_v = 0.9

[run]
horizon = 1.0
"""


@pytest.fixture
def decay_ini(tmp_path):
    path = tmp_path / "decay.ini"
    path.write_text(DECAY)
    return str(path)


@pytest.fixture
def quench_ini(tmp_path):
    path = tmp_path / "quench.ini"
    path.write_text(QUENCH)
    return str(path)


def test_stationary_artifacts(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out]) == 0
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["status"] == "in-lambda"
    assert max(verdict["solution"]["residual_w"],
               verdict["solution"]["residual_z"]) <= 1e-8
    assert verdict["mass_bound"]["passes"]
    echo, header, rows = read_table(os.path.join(out, "fields.csv"))
    assert header == ["x", "w", "z"]
    assert echo["command"] == "stationary"
    assert len(rows) == 49


def test_stationary_nonexistence_writes_no_fields(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    code = main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.lambda=12.0"])
    assert code == 0
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["status"] == "not-in-lambda"
    assert verdict["evidence"] == "analytic-bound"
    assert not os.path.exists(os.path.join(out, "fields.csv"))


def test_unknown_key_exits_2_and_names_it(decay_ini, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.bogus=1"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "model.bogus" in err["error"]["message"]
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["key"] == "model.bogus"


@pytest.mark.parametrize("override", [
    "run.safety=0.9", "run.growth_limit=2.0", "run.quench_cap=0.25", "run.tol_lin=1e-12",
    "run.curve_max_iter=2000", "run.seed_amplitude=0.8", "run.eigen_coupling_scale=1.0"])
def test_removed_knob_exits_2_and_names_it(override, decay_ini, tmp_path, capsys):
    # the step controller's constants and library defaults are no longer keys
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", override]) == 2
    key = override.partition("=")[0]
    assert json.loads(capsys.readouterr().err)["error"]["key"] == key
    assert json.load(open(os.path.join(out, "error.json")))["error"]["key"] == key


@pytest.mark.parametrize("command, override", [
    ("curve", "run.bisect_tol=0"), ("curve", "run.bisect_tol=-1"),
    ("curve", "run.floor_factor=0"), ("simulate", "run.tol_step=-1"),
    ("curve", "run.delta_blow=2")])
def test_out_of_range_knob_exits_2_at_once(command, override, decay_ini, tmp_path):
    # in a child process, so a run that hangs on the value fails on the timeout
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "quenchlab.cli", command, "--config", decay_ini,
         "--out", str(out), "--override", "run.lambda_samples=0.5", "--override", override],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=30)
    assert done.returncode == 2
    key = override.partition("=")[0]
    assert json.load(open(out / "error.json"))["error"]["key"] == key


@pytest.mark.parametrize("override", [
    "run.tol_stat=0", "run.tol_res=-1", "run.max_iter=0", "run.dt_min=0", "run.dt_max=-1",
    "run.snapshot_stride=0", "run.quench_delta=0.5", "domain.n=0", "domain.nx=0",
    "domain.ny=0", "run.horizon=inf", "run.lambda_samples=0", "run.lambda_samples=-1",
    "run.lambda_samples=nan", "model.lambda=inf", "model.mu=0", "model.alpha_c=inf",
    "model.alpha_c=nan", "model.alpha_center=nan", "model.beta_center=0.5 inf",
    "model.f_p=inf", "model.initial_amp_u=nan", "domain.b=inf", "run.dt_init=nan"])
def test_single_key_range_exits_2_and_names_it(override, decay_ini, tmp_path, capsys):
    # checked where the value is parsed, so the error names its key
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", override]) == 2
    key = override.partition("=")[0]
    assert json.loads(capsys.readouterr().err)["error"]["key"] == key
    assert json.load(open(os.path.join(out, "error.json")))["error"]["key"] == key


def test_malformed_value_exits_2(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.lambda=abc"]) == 2


def test_override_precedence(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    main(["stationary", "--config", decay_ini, "--out", out,
          "--override", "model.lambda=0.7"])
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["config"]["model"]["lambda"] == 0.7


def test_simulate_artifacts_and_rerun_determinism(decay_ini, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", decay_ini, "--out", out1]) == 0
    assert main(["simulate", "--config", decay_ini, "--out", out2]) == 0
    for name in ("trajectory.csv", "snapshots.npy", "nodes.csv", "run.json"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), f"{name} differs between reruns"
    echo, header, rows = read_table(os.path.join(out1, "trajectory.csv"))
    assert header == ["t", "max_u", "max_v", "ut_l2", "vt_l2", "energy",
                      "dist2_u", "dist2_v", "dt"]
    run = json.load(open(os.path.join(out1, "run.json")))
    assert run["status"] == "horizon"
    assert run["final_time"] == pytest.approx(1.0, abs=1e-12)
    # Snapshots: float64 rows (t, u, v) with the node coordinates once, in
    # nodes.csv, in field order.
    snaps = np.load(os.path.join(out1, "snapshots.npy"))
    assert snaps.dtype == np.float64
    assert snaps.ndim == 2 and snaps.shape[0] >= 2 and snaps.shape[1] == 1 + 2 * 49
    t = snaps[:, 0]
    assert t[0] == 0.0 and np.all(np.diff(t) > 0.0)
    assert t[-1] == run["final_time"]
    assert not snaps[0, 1:].any()  # initial_kind = zero
    assert snaps[-1, 1:50].max() == run["final_max_u"]
    assert snaps[-1, 50:].max() == run["final_max_v"]
    _, nheader, nrows = read_table(os.path.join(out1, "nodes.csv"))
    assert nheader == ["x"]
    x = np.array([float(row[0]) for row in nrows])
    assert len(x) == 49 and np.all(np.diff(x) > 0.0)
    assert x == pytest.approx(np.arange(1, 50) / 50, abs=1e-15)


CURVE_OVERRIDES = ["--override", "run.lambda_samples=0.5, 1.0",
                   "--override", "run.bisect_tol=1e-2"]


@pytest.mark.parametrize("command", ["stationary", "curve", "eigen", "simulate",
                                     "rate", "certify"])
def test_rerun_is_byte_identical(command, decay_ini, tmp_path):
    # rate and certify need the longer horizon to reach a decay certificate
    extra = {"curve": CURVE_OVERRIDES,
             "rate": ["--override", "run.horizon=4.0"],
             "certify": ["--override", "run.horizon=4.0"]}.get(command, [])
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([command, "--config", decay_ini, "--out", str(out), *extra]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names and names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
            f"{command}: {name} differs between reruns"


def test_simulate_quench_run(quench_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", quench_ini, "--out", out]) == 0
    run = json.load(open(os.path.join(out, "run.json")))
    assert run["status"] == "quenched"
    assert run["quench"]["time"] > 0.0
    assert run["quench"]["which"] in ("u", "v", "both")


def test_eigen_artifacts(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["eigen", "--config", decay_ini, "--out", out]) == 0
    eig = json.load(open(os.path.join(out, "eigen.json")))
    assert eig["nu1"] > 0.0
    assert eig["residual"] <= 1e-10
    _, header, rows = read_table(os.path.join(out, "eigenfunctions.csv"))
    assert header == ["x", "phi", "psi"]
    assert all(float(r[1]) > 0.0 for r in rows)


@pytest.mark.parametrize("overrides", [
    ["model.g_family=exp", "model.lambda=0.05", "model.mu=0.05"],
    ["domain.dimension=2", "domain.c=0", "domain.d=1", "domain.nx=15", "domain.ny=7",
     "model.f_family=power", "model.g_family=exp", "model.alpha_family=powerdist",
     "model.beta_family=powerdist", "model.lambda=0.3", "model.mu=0.3"]],
    ids=["exp-1d", "asym-15x7"])
def test_slow_contraction_states_end_exit_0(overrides, tmp_path):
    # nu1 / nu2 near 1: unshifted inverse iteration ran out of steps here, and
    # eigen, rate and certify all exited 1; eigen.json and rate.json report
    # the Collatz-Wielandt bracket and the factorizations
    extra = [arg for value in overrides for arg in ("--override", value)]
    reports = {}
    for command, name in (("eigen", "eigen.json"), ("rate", "rate.json"),
                          ("certify", "certify.json")):
        out = str(tmp_path / command)
        assert main([command, "--config", str(CONFIGS / "decay.ini"), "--out", out, *extra]) == 0
        reports[command] = json.load(open(os.path.join(out, name)))
    eig, rate = reports["eigen"], reports["rate"]
    assert eig["nu1_lower"] <= eig["nu1"] <= eig["nu1_upper"]
    assert eig["factorizations"] >= 1
    assert {key: rate[key] for key in ("nu1", "nu1_lower", "nu1_upper", "factorizations")} \
        == {key: eig[key] for key in ("nu1", "nu1_lower", "nu1_upper", "factorizations")}
    assert reports["certify"]["case"] == "a1" and reports["certify"]["verification"]["passes"]


def test_eigen_stops_at_the_rounding_floor_near_the_fold(tmp_path):
    # 1e-6 below the fold at lam = 0.5 the residual stalls at the rounding
    # floor of M x, above 1e-10 nu1 (EigenConvergenceError once): eigen
    # stops there, with nu1 inside the Collatz-Wielandt bracket
    out = str(tmp_path / "eigen")
    assert main(["eigen", "--config", str(CONFIGS / "decay.ini"), "--out", out,
                 "--override", "domain.n=99", "--override", "model.mu=2.8960795"]) == 0
    eig = json.load(open(os.path.join(out, "eigen.json")))
    assert eig["nu1_lower"] <= eig["nu1"] <= eig["nu1_upper"]
    assert eig["nu1_upper"] - eig["nu1_lower"] <= 1e-7 * eig["nu1"]
    assert eig["iterations"] <= 10


def _assert_same_files(first: Path, second: Path) -> None:
    names = sorted(os.listdir(first))
    assert names and names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), (first, name)


def _loaded_after_six_commands(decay_ini, quench_ini, tmp_path, names):
    """Which of ``names`` a fresh interpreter holds after running all six commands."""
    longer = ["--override", "run.horizon=4.0"]
    runs = [["stationary", decay_ini], ["eigen", decay_ini], ["rate", decay_ini, *longer],
            ["certify", decay_ini, *longer], ["simulate", quench_ini],
            ["curve", decay_ini, *CURVE_OVERRIDES]]
    code = ("import sys\nfrom quenchlab.cli import main\n"
            f"for i, (cmd, cfg, *extra) in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + '/' + str(i)\n"
            "    assert main([cmd, '--config', cfg, '--out', out, *extra]) == 0, cmd\n"
            f"print([name for name in {names!r} if name in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_eigen_loads_no_sparse_linalg(decay_ini, quench_ini, tmp_path):
    # A is held as stencil weights and M is factored on the banded LAPACK
    # kernel: none of the six commands imports scipy.sparse
    assert _loaded_after_six_commands(decay_ini, quench_ini, tmp_path, ["scipy.sparse"]) == "[]"


def test_cold_path_loads_no_scipy_linalg(decay_ini, quench_ini, tmp_path):
    # quenchlab._lapack loads scipy's LAPACK extension by file; if a scipy
    # moves it, the fallback runs scipy.linalg's init and this fails
    names = ["scipy.linalg", "numpy.f2py", "numpy.testing"]
    assert _loaded_after_six_commands(decay_ini, quench_ini, tmp_path, names) == "[]"


# Makes only the by-file load of quenchlab._lapack fail, so it falls back to
# scipy.linalg.lapack; find_spec is restored once quenchlab is imported.
FORCE_LAPACK_FALLBACK = """\
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: None if name == "scipy" else find_spec(name, *args)
import quenchlab.cli
importlib.util.find_spec = find_spec
"""


@pytest.mark.parametrize("first", ["quenchlab.cli", "scipy.linalg"])
def test_lapack_routines_are_scipys(first):
    # whichever module loads the extension first, the routines quenchlab
    # calls are scipy.linalg.lapack's own objects
    code = (f"import {first}\nimport quenchlab.cli\nfrom quenchlab import grid, spectra\n"
            "from scipy.linalg import lapack\n"
            "assert grid.lapack.dpttrf is lapack.dpttrf and grid.lapack.dpttrs is lapack.dpttrs\n"
            "assert spectra.lapack.dgbtrf is lapack.dgbtrf and spectra.lapack.dgbtrs is lapack.dgbtrs\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_lapack_fallback_writes_the_same_bytes(tmp_path):
    # certify decay runs dpttrf and dgbtrf, simulate the 1D solves
    runs = [["certify", str(CONFIGS / "decay.ini")],
            ["simulate", str(CONFIGS / "forced_quench.ini")]]
    for path, prelude in (("direct", ""), ("fallback", FORCE_LAPACK_FALLBACK)):
        code = (prelude + "import sys\nfrom quenchlab.cli import main\n"
                f"for cmd, cfg in {runs!r}:\n"
                f"    out = {str(tmp_path / path)!r} + '/' + cmd\n"
                "    assert main([cmd, '--config', cfg, '--out', out]) == 0, cmd\n"
                "print('scipy.linalg' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(path == "fallback")
    for cmd, _ in runs:
        _assert_same_files(tmp_path / "direct" / cmd, tmp_path / "fallback" / cmd)


RECTANGLE_47X23 = ["--override", "domain.dimension=2", "--override", "domain.b=2",
                   "--override", "domain.nx=47", "--override", "domain.ny=23"]


def test_2d_stationary_loads_no_scipy_fft(decay_ini, tmp_path):
    # 2D solves are products with the grid's sine matrices, not scipy.fft
    code = ("import sys\nfrom quenchlab.cli import main\n"
            f"args = ['stationary', '--config', {decay_ini!r}, '--out', {str(tmp_path)!r}]\n"
            f"assert main(args + {RECTANGLE_47X23!r}) == 0\n"
            "print('scipy.fft' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_2d_certify_is_byte_identical_across_blas_threads(tmp_path):
    # One and two OpenBLAS threads give the same bytes on the bench's 47x23
    # rectangle (README: larger 2D grids may not).
    outs = [tmp_path / "1", tmp_path / "2"]
    for out in outs:
        done = subprocess.run(
            [sys.executable, "-m", "quenchlab.cli", "certify", "--config",
             str(CONFIGS / "decay.ini"), "--out", str(out), *RECTANGLE_47X23],
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": out.name},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    _assert_same_files(*outs)


def test_eigen_requires_steady_state(quench_ini, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["eigen", "--config", quench_ini, "--out", out]) == 1
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["type"] != "ConfigError"
    capsys.readouterr()


def test_curve_artifacts(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    code = main(["curve", "--config", decay_ini, "--out", out,
                 "--override", "run.lambda_samples=0.5, 1.0",
                 "--override", "run.bisect_tol=1e-2"])
    assert code == 0
    echo, header, rows = read_table(os.path.join(out, "curve.csv"))
    assert header == ["lam", "mu_critical", "bracket_lo", "bracket_hi", "status"]
    assert len(rows) == 2
    assert all(r[4] == "ok" for r in rows)
    meta = json.load(open(os.path.join(out, "curve.json")))
    assert meta["non_increasing"] is True


def test_curve_json_diagnostics(decay_ini, tmp_path, monkeypatch):
    # One entry per sample: the parameter points it decided and what
    # certified its bracket; without the fold Newton, bisection does.
    from quenchlab import stationary

    docs = []
    for name in ("fold", "bisection"):
        if name == "bisection":
            monkeypatch.setattr(stationary, "_fold_newton", lambda *args, **kwargs: None)
        out = tmp_path / name
        assert main(["curve", "--config", decay_ini, "--out", str(out), *CURVE_OVERRIDES]) == 0
        docs.append(json.load(open(out / "curve.json"))["diagnostics"])
    for doc, certificate in zip(docs, ("fold", "bisection")):
        assert [d["lam"] for d in doc] == [0.5, 1.0]
        assert [d["certificate"] for d in doc] == [certificate] * 2
    # the first sample: its halving probes, the supersolution and the escape
    # check; a later one starts from the previous fold and needs only the two
    fold, bisection = docs
    assert 2 < fold[0]["evaluations"]
    assert [f["evaluations"] for f in fold[1:]] == [2] * (len(fold) - 1)
    assert all(f["evaluations"] < b["evaluations"] for f, b in zip(fold, bisection))
    # and the fold Newton's steps: none where bisection alone decides
    assert all(f["newton_steps"] > 0 for f in fold)
    assert [b["newton_steps"] for b in bisection] == [0] * len(bisection)


def test_curve_honours_floor_factor(decay_ini, tmp_path):
    # The intercepts hold the other parameter at floor_factor times its bound.
    stars = []
    for factor in ("1e-6", "0.4"):
        out = tmp_path / factor
        assert main(["curve", "--config", decay_ini, "--out", str(out), *CURVE_OVERRIDES,
                     "--override", f"run.floor_factor={factor}"]) == 0
        meta = json.load(open(out / "curve.json"))
        assert meta["config"]["run"]["floor_factor"] == float(factor)
        stars.append(meta["lambda_star"])
    assert stars[0] != stars[1]


def test_second_search_honours_tol_res_and_delta_blow(decay_ini, tmp_path):
    # convex_combo data need the second steady state (max w about 0.82 here).
    # Its Newton search stops earlier under a looser run.tol_res, and finds
    # nothing when run.delta_blow puts the escape level below it.
    def run(command, name, override):
        out = tmp_path / name
        code = main([command, "--config", decay_ini, "--out", str(out),
                     "--override", "model.initial_kind=convex_combo",
                     "--override", "run.horizon=0.05", "--override", override])
        return code, out

    tables = []
    for tol in ("1e-8", "1e-3"):
        code, out = run("simulate", tol, f"run.tol_res={tol}")
        assert code == 0
        tables.append(read_table(str(out / "trajectory.csv"))[2])
    assert tables[0] != tables[1]
    for command in ("simulate", "certify"):  # both build convex_combo data
        code, out = run(command, f"low-cap-{command}", "run.delta_blow=0.2")
        assert code == 2
        saved = json.load(open(out / "error.json"))
        assert "second steady state" in saved["error"]["message"]


def test_curve_honours_tol_res(decay_ini, tmp_path):
    # The membership verdicts and the fold Newton test residuals against
    # run.tol_res; a target no residual meets leaves no in-lambda point.
    tables = []
    for tol in ("1e-8", "1e-30"):
        out = tmp_path / tol
        assert main(["curve", "--config", decay_ini, "--out", str(out), *CURVE_OVERRIDES,
                     "--override", f"run.tol_res={tol}"]) == 0
        _, _, rows = read_table(str(out / "curve.csv"))
        tables.append(rows)
    assert tables[0] != tables[1]
    assert all(r[4] == "ok" for r in tables[0])
    assert all(r[4] == "no-bracket" for r in tables[1])


def test_rate_command(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["rate", "--config", decay_ini, "--out", out,
                 "--override", "run.horizon=4.0"]) == 0
    rate = json.load(open(os.path.join(out, "rate.json")))
    assert rate["passes"] is True
    assert rate["fitted_rate"] >= 0.95 * rate["gamma_certified"]
    assert rate["prefactor"] > 0.0
    assert rate["note"]


def test_rate_errors_when_no_steady_state(quench_ini, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["rate", "--config", quench_ini, "--out", out]) == 1
    assert os.path.exists(os.path.join(out, "error.json"))
    capsys.readouterr()


def test_certify_exit_codes(decay_ini, quench_ini, tmp_path):
    out = str(tmp_path / "c1")
    assert main(["certify", "--config", decay_ini, "--out", out,
                 "--override", "run.horizon=4.0"]) == 0
    report = json.load(open(os.path.join(out, "certify.json")))
    assert report["case"] == "a1"
    assert report["verification"]["kind"] == "decay-rate"

    out2 = str(tmp_path / "c2")
    assert main(["certify", "--config", quench_ini, "--out", out2]) == 0
    report2 = json.load(open(os.path.join(out2, "certify.json")))
    assert report2["case"] == "c"
    assert report2["verification"]["kind"] == "quench-bound"

    out3 = str(tmp_path / "c3")
    code = main(["certify", "--config", decay_ini, "--out", out3,
                 "--override", "run.max_iter=3",
                 "--override", "run.tol_stat=1e-16"])
    assert code == 2
    report3 = json.load(open(os.path.join(out3, "certify.json")))
    assert report3["case"] == "none-established"


def test_certify_with_a_vanishing_weight_ends_in_a_verdict(tmp_path):
    # a bump of width 1e4 is 0 near the boundary: its side's threshold is inf,
    # written as null, and the other side and the decay certificate decide
    out = str(tmp_path / "out")
    assert main(["certify", "--config", str(CONFIGS / "decay.ini"), "--out", out,
                 "--override", "model.alpha_family=bump",
                 "--override", "model.alpha_width=1e4"]) == 0
    report = json.load(open(os.path.join(out, "certify.json")))
    assert report["case"] == "a1" and report["verification"]["passes"]
    assert report["bound"]["threshold_u"] is None and report["bound"]["bound_u"] is None
    assert report["bound"]["threshold_v"] > 0.0


def test_certify_shares_one_verdict_and_one_second_search(decay_ini, tmp_path,
                                                          monkeypatch):
    # convex_combo data need the second state for the initial pair, and lie
    # above the minimal state, so the classification asks for it again
    counts = {"verdict": 0, "second": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("verdict", monotone_minimal_solution),
                     ("second", second_solution_search)):
        rebind(monkeypatch, fn, counted(name, fn))
    out = tmp_path / "out"
    assert main(["certify", "--config", decay_ini, "--out", str(out),
                 "--override", "model.initial_kind=convex_combo",
                 "--override", "run.horizon=4.0"]) == 0
    assert json.load(open(out / "certify.json"))["case"] == "a21"
    assert counts == {"verdict": 1, "second": 1}


def test_missing_config_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", str(tmp_path / "nope.ini"),
                 "--out", out]) == 2
    capsys.readouterr()


def test_json_floats_round_trip(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    main(["stationary", "--config", decay_ini, "--out", out])
    echo, header, rows = read_table(os.path.join(out, "fields.csv"))
    # 17 significant digits reproduce the binary values exactly
    values = np.array([[float(c) for c in row] for row in rows])
    assert np.all(np.isfinite(values))
    mid = values[len(values) // 2]
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["solution"]["max_w"] == pytest.approx(values[:, 1].max(),
                                                         abs=0.0)


def test_curve_threads_have_no_effect(decay_ini, tmp_path):
    rows = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}")
        assert main(["curve", "--config", decay_ini, "--out", out,
                     "--threads", threads,
                     "--override", "run.lambda_samples=0.5, 1.0",
                     "--override", "run.bisect_tol=1e-2"]) == 0
        echo, header, data = read_table(os.path.join(out, "curve.csv"))
        assert echo["threads"] == int(threads)
        rows.append(data)
    assert rows[0] == rows[1]


def test_numerical_value_error_exits_1(decay_ini, tmp_path, monkeypatch, capsys):
    import quenchlab.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("raised inside the integration")

    monkeypatch.setattr(cli, "simulate", broken)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", decay_ini, "--out", out]) == 1
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["type"] == "ValueError"
    assert saved["error"]["message"] == "raised inside the integration"
    capsys.readouterr()


def test_zero_horizon_is_config_error(decay_ini, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", decay_ini, "--out", out,
                 "--override", "run.horizon=0"]) == 2
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["type"] == "ConfigError"
    assert saved["error"]["key"] == "run.horizon"
    capsys.readouterr()


def test_trivial_weight_is_config_error(decay_ini, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.alpha_c=0"]) == 2
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["type"] == "ConfigError"
    assert "alpha: trivial" in saved["error"]["message"]
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [
    ["domain.b=1e-160"], ["domain.b=1e200"],
    ["domain.dimension=2", "domain.nx=15", "domain.ny=9", "domain.d=1e200"],
    ["domain.b=2e-152"],
    ["domain.dimension=2", "domain.nx=15", "domain.ny=9", "domain.d=1e-153"]],
    ids=["tiny", "huge", "huge-2d", "norm-overflow", "norm-overflow-2d"])
def test_extent_without_a_normal_stencil_weight_is_config_error(overrides, tmp_path, capsys):
    out = str(tmp_path / "out")
    args = ["stationary", "--config", str(CONFIGS / "forced_quench.ini"), "--out", out]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 2
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"]["type"] == "ConfigError"
    assert "is not a normal float" in saved["error"]["message"]
    capsys.readouterr()


def test_recipe_parameter_is_checked_in_the_config_phase(decay_ini, tmp_path, monkeypatch,
                                                         capsys):
    # stationary never builds the initial pair, yet a bad initial_s stops it
    # before any steady state is computed
    import quenchlab.cli as cli

    def no_verdict(*args, **kwargs):
        raise AssertionError("the membership verdict was computed")

    monkeypatch.setattr(cli, "monotone_minimal_solution", no_verdict)
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.initial_kind=convex_combo",
                 "--override", "model.initial_s=1"]) == 2
    saved = json.load(open(os.path.join(out, "error.json")))
    assert saved["error"] == {"type": "ConfigError",
                              "message": "convex_combo needs s in (0, 1), got 1.0"}
    capsys.readouterr()


def test_steep_power_is_admissible(decay_ini, tmp_path):
    # The power family at p = 160 overflows on the hypothesis lattice.
    out = str(tmp_path / "out")
    assert main(["stationary", "--config", decay_ini, "--out", out,
                 "--override", "model.f_p=160", "--override", "model.g_p=160"]) == 0
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["status"] == "not-in-lambda"


def test_rate_accepts_second_state_recipe(decay_ini, tmp_path):
    out = str(tmp_path / "out")
    code = main(["rate", "--config", decay_ini, "--out", out,
                 "--override", "model.initial_kind=convex_combo",
                 "--override", "model.lambda=1.2", "--override", "model.mu=1.2",
                 "--override", "run.horizon=4.0"])
    assert code != 2
    rate = json.load(open(os.path.join(out, "rate.json")))
    assert rate["config"]["model"]["initial_kind"] == "convex_combo"


def test_curve_exp_overflow_ends_in_a_verdict(tmp_path):
    # 2D exp/powerdist: the fallback bisection of the lambda intercept meets
    # Picard iterates whose exp sources overflow below the escape level.
    # They are decided by the diagonal escape bound, not a solver error.
    out = str(tmp_path / "out")
    overrides = ["domain.dimension=2", "domain.b=2.0", "domain.nx=15", "domain.ny=7",
                 "model.f_family=exp", "model.g_family=exp",
                 "model.alpha_family=powerdist", "model.beta_family=powerdist",
                 "run.lambda_samples=0.5", "run.bisect_tol=5e-3"]
    args = ["curve", "--config", str(CONFIGS / "curve.ini"), "--out", out]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 0
    _, header, rows = read_table(os.path.join(out, "curve.csv"))
    assert len(rows) == 1
    sample = dict(zip(header, rows[0]))
    assert sample["status"] == "ok"
    assert float(sample["mu_critical"]) == pytest.approx(5.3315, rel=1e-4)


def test_write_table_float_rows_match_cell_format(tmp_path):
    cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1,
             1.0 / 3.0, 1.7976931348623157e308, float(np.float64(2.5e-7))]
    rng = np.random.default_rng(4)
    rows = [cells, rng.standard_normal(len(cells)).tolist(),
            (10.0 ** rng.uniform(-300, 300, len(cells))).tolist(),
            [3, True, "ok", np.float64(0.1), None] + cells[:6],  # not all floats
            cells[:4]]  # narrower than the header
    header = [f"c{i}" for i in range(len(cells))]
    path = tmp_path / "table.csv"
    write_table(str(path), header, rows, {"command": "test"})
    lines = path.read_text().splitlines()[2:]
    assert lines == [",".join(_fmt(cell) for cell in row) for row in rows]
