import json
import subprocess
import sys

import numpy as np
import pytest

from edchan.jsonio import matrix_to_json


def run_cli(*args, env_extra=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "edchan", *args],
        capture_output=True, text=True, env=env,
    )


def dump_demo(name, path):
    out = run_cli("demo", "--name", name, "--output", str(path))
    assert out.returncode == 0, out.stderr
    return path


@pytest.fixture()
def ad_map(tmp_path):
    return dump_demo("amplitude_damping", tmp_path / "ad.json")


@pytest.fixture()
def scalar_decay_spec(tmp_path):
    g0 = 0.9
    spec = {
        "type": "semigroup_spec", "d_e": 1, "d_g": 1,
        "H": matrix_to_json(np.zeros((1, 1))),
        "G": matrix_to_json(np.array([[g0]])),
        "F": [],
        "epsilon": 0.0, "kappa": 0.0, "c": [],
        "psi": matrix_to_json(np.array([[g0]])),
    }
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(spec))
    return path, g0


def test_verify_amplitude_damping_exit_zero(ad_map):
    out = run_cli("verify", "--input", str(ad_map))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["cp"] and report["tp"]
    assert report["positive"] is True
    assert report["ball"]["member"]
    assert report["trace_nonincreasing_phi"]
    assert report["min_choi_eigenvalue"] > -1e-9


def test_verify_noncp_qubit_exit_one(tmp_path):
    path = dump_demo("noncp_qubit", tmp_path / "bad.json")
    out = run_cli("verify", "--input", str(path))
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert report["tp"] and not report["cp"]
    assert report["positive"] is False
    assert not report["ball"]["member"]
    assert len(report["witnesses"]) == 1


def test_verify_truncated_file_exit_two(tmp_path, ad_map):
    text = ad_map.read_text()
    bad = tmp_path / "trunc.json"
    bad.write_text(text[: len(text) // 2])
    out = run_cli("verify", "--input", str(bad))
    assert out.returncode == 2
    assert "error" in out.stderr


def test_verify_missing_file_exit_two():
    out = run_cli("verify", "--input", "/nonexistent/map.json")
    assert out.returncode == 2


def test_verify_is_byte_deterministic(ad_map, tmp_path):
    out1 = run_cli("verify", "--input", str(ad_map), "--output",
                   str(tmp_path / "r1.json"))
    out2 = run_cli("verify", "--input", str(ad_map), "--output",
                   str(tmp_path / "r2.json"))
    assert out1.returncode == out2.returncode == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_verify_respects_env_tolerance(tmp_path):
    path = dump_demo("noncp_qubit", tmp_path / "bad.json")
    out = run_cli("verify", "--input", str(path), env_extra={"EDCHAN_TOL": "1.0"})
    assert out.returncode == 0  # absurd tolerance accepts the map
    out = run_cli("verify", "--input", str(path), env_extra={"EDCHAN_TOL": "bogus"})
    assert out.returncode == 2


def test_kraus_amplitude_damping(ad_map):
    out = run_cli("kraus", "--input", str(ad_map))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["cp"] and report["count"] == 2
    assert report["reconstruction_error"] < 1e-9
    ops = report["operators"]
    assert len(ops) == 2 and len(ops[0]) == 2


def test_kraus_rejects_noncp(tmp_path):
    path = dump_demo("noncp_qubit", tmp_path / "bad.json")
    out = run_cli("kraus", "--input", str(path))
    assert out.returncode == 1
    assert json.loads(out.stdout)["cp"] is False


@pytest.mark.parametrize("name, code", [("amplitude_damping", 0), ("noncp_qubit", 1)])
def test_kraus_runs_block_cp_test_once(name, code, tmp_path, monkeypatch):
    from edchan import cli, cpcheck

    calls, is_cp_ed = [], cpcheck.is_cp_ed

    def counted(*args, **kwargs):
        calls.append(args)
        return is_cp_ed(*args, **kwargs)

    monkeypatch.setattr(cpcheck, "is_cp_ed", counted)
    monkeypatch.setattr(cli, "is_cp_ed", counted)
    path = dump_demo(name, tmp_path / "map.json")
    assert cli.main(["kraus", "--input", str(path), "--output", str(tmp_path / "k.json")]) == code
    assert len(calls) == 1


def test_evolve_scalar_decay_matches_closed_form(scalar_decay_spec, tmp_path):
    path, g0 = scalar_decay_spec
    out = run_cli("evolve", "--input", str(path), "--t-max", "2.0",
                  "--steps", "21", "--output", str(tmp_path / "traj.csv"))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert lines[0] == ("t,trace_ee,trace_gg,coherence_norm,"
                       "total_trace,min_propagator_choi_eigenvalue")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 21
    # default initial state: equal superposition of excited and ground level
    t0 = rows[0]
    assert abs(t0[0]) == 0.0
    assert abs(t0[1] - 0.5) < 1e-12 and abs(t0[2] - 0.5) < 1e-12
    assert abs(t0[3] - 0.5) < 1e-12 and abs(t0[4] - 1.0) < 1e-12
    for row in rows:
        t = row[0]
        assert abs(row[1] - 0.5 * np.exp(-g0 * t)) < 1e-9
        assert abs(row[2] - (1.0 - 0.5 * np.exp(-g0 * t))) < 1e-9
        assert abs(row[3] - 0.5 * np.exp(-g0 * t / 2)) < 1e-9
        assert abs(row[4] - 1.0) < 1e-9  # TP spec: constant total trace
        assert row[5] > -1e-9


def test_evolve_with_initial_state_file(scalar_decay_spec, tmp_path):
    path, g0 = scalar_decay_spec
    state = {"d_e": 1, "d_g": 1,
             "matrix": matrix_to_json(np.diag([1.0, 0.0]))}
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    out = run_cli("evolve", "--input", str(path), "--t-max", "1.0",
                  "--steps", "5", "--initial-state", str(spath))
    assert out.returncode == 0, out.stderr
    rows = [list(map(float, line.split(",")))
            for line in out.stdout.strip().split("\n")[1:]]
    assert abs(rows[0][1] - 1.0) < 1e-12
    assert abs(rows[-1][1] - np.exp(-g0)) < 1e-9


def test_evolve_rejects_bad_spec(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"type": "unknown"}))
    out = run_cli("evolve", "--input", str(path))
    assert out.returncode == 2


def test_evolve_rejects_bad_grid(scalar_decay_spec):
    path, _ = scalar_decay_spec
    out = run_cli("evolve", "--input", str(path), "--steps", "1")
    assert out.returncode == 2
    out = run_cli("evolve", "--input", str(path), "--t-max", "-1")
    assert out.returncode == 2


def test_divisibility_semigroup_exit_zero(scalar_decay_spec):
    path, _ = scalar_decay_spec
    out = run_cli("divisibility", "--input", str(path), "--t-max", "2.0",
                  "--steps", "11")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["cp_divisible"]
    assert report["min_eigenvalue"] > -1e-9
    assert len(report["step_min_eigenvalues"]) == 10


def test_divisibility_window_fixture_exit_one(tmp_path):
    path = dump_demo("noncp_divisible", tmp_path / "window.json")
    out = run_cli("divisibility", "--input", str(path))
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert not report["cp_divisible"]
    assert report["min_eigenvalue"] < -1e-4


def test_divisibility_identity_trajectory(tmp_path):
    from edchan import EDMap
    from edchan.dynamics import ChannelTrajectory
    from edchan.jsonio import trajectory_to_dict

    traj = ChannelTrajectory(
        np.linspace(0.0, 1.0, 4),
        tuple(EDMap.identity(1, 1) for _ in range(4)),
    )
    path = tmp_path / "id.json"
    path.write_text(json.dumps(trajectory_to_dict(traj)))
    out = run_cli("divisibility", "--input", str(path))
    assert out.returncode == 0


def test_generator_table_evolve(tmp_path):
    g0 = 1.0
    table = {
        "type": "generator_table", "d_e": 1, "d_g": 1,
        "times": [0.0, 2.0],
        "L": [matrix_to_json(np.array([[-g0]]))] * 2,
        "K": [matrix_to_json(np.array([[-g0 / 2]]))] * 2,
        "psi": [matrix_to_json(np.array([[g0]]))] * 2,
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = run_cli("evolve", "--input", str(path), "--t-max", "1.0", "--steps", "101")
    assert out.returncode == 0, out.stderr
    rows = [list(map(float, line.split(",")))
            for line in out.stdout.strip().split("\n")[1:]]
    # constant-table trajectory reproduces the semigroup to second order
    assert abs(rows[-1][1] - 0.5 * np.exp(-g0)) < 1e-4


def test_demo_suite_runs_clean():
    out = run_cli("demo")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAILED" not in out.stdout
    assert out.stdout.count("ok") >= 5


def test_demo_unknown_name():
    out = run_cli("demo", "--name", "nope")
    assert out.returncode == 2


def _decay_spec_file(tmp_path, rate):
    spec = {
        "type": "semigroup_spec", "d_e": 2, "d_g": 1,
        "H": matrix_to_json(np.zeros((2, 2))),
        "G": matrix_to_json(np.diag([0.0, rate])),
        "F": [], "epsilon": 0.0, "kappa": 0.0, "c": [],
        "psi": matrix_to_json(np.array([[0.0, 0.0, 0.0, rate]])),
    }
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("command", ["divisibility", "evolve"])
@pytest.mark.parametrize("steps, where", [(101, "grid index 62 (t = 0.93)"),
                                          (37, "grid index 23 (t = 0.958333)")])
def test_singular_trajectory_names_grid_point(command, steps, where, tmp_path, capsys):
    from edchan import cli

    path = _decay_spec_file(tmp_path, 30.0)
    code = cli.main([command, "--input", str(path), "--t-max", "1.5", "--steps", str(steps),
                     "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "phi is singular" in err and where in err


def _table(times):
    n = len(times)
    return {
        "type": "generator_table", "d_e": 1, "d_g": 1, "times": times,
        "L": [matrix_to_json(np.array([[-1.0]]))] * n,
        "K": [matrix_to_json(np.array([[-0.5]]))] * n,
        "psi": [matrix_to_json(np.array([[1.0]]))] * n,
    }


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("changes, args, field", [
    ({"kappa": NAN}, [], "kappa"),
    ({"kappa": INF}, [], "kappa"),
    ({}, ["--t-max", "nan"], "--t-max"),
    ({}, ["--t-max", "inf"], "--t-max"),
    (_table([0.0, NAN, 2.0]), [], "times"),
    (_table([0.0, 1.0, INF]), [], "times"),
], ids=["kappa_nan", "kappa_inf", "t_max_nan", "t_max_inf", "times_nan", "times_inf"])
@pytest.mark.parametrize("command", ["divisibility", "evolve"])
def test_non_finite_input_names_field(command, changes, args, field, scalar_decay_spec,
                                      tmp_path, capsys):
    from edchan import cli

    path, _ = scalar_decay_spec
    if changes.get("type") != "generator_table":
        changes = {**json.loads(path.read_text()), **changes}
    path.write_text(json.dumps(changes))
    code = cli.main([command, "--input", str(path), *args, "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "finite" in err
