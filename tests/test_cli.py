"""Command-line driver: configs, overrides, artifacts, exit codes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from quenchlab.cli import _fmt, main, read_table, write_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    for name in ("trajectory.csv", "snapshots.csv", "run.json"):
        with open(os.path.join(out1, name)) as f1, \
                open(os.path.join(out2, name)) as f2:
            assert f1.read() == f2.read(), f"{name} differs between reruns"
    echo, header, rows = read_table(os.path.join(out1, "trajectory.csv"))
    assert header == ["t", "max_u", "max_v", "ut_l2", "vt_l2", "energy",
                      "dist2_u", "dist2_v", "dt"]
    run = json.load(open(os.path.join(out1, "run.json")))
    assert run["status"] == "horizon"
    assert run["final_time"] == pytest.approx(1.0, abs=1e-12)
    _, sheader, _ = read_table(os.path.join(out1, "snapshots.csv"))
    assert sheader == ["t", "x", "u", "v"]


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


def test_threads_env_default(decay_ini, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    monkeypatch.setenv("QUENCHLAB_THREADS", "3")
    assert main(["stationary", "--config", decay_ini, "--out", out]) == 0
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["config"]["threads"] == 3


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
