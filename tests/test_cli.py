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


@pytest.mark.parametrize("args, env, field", [
    (["--tol", "nan"], {}, "--tol"),
    ([], {"EDCHAN_TOL": "nan"}, "EDCHAN_TOL"),
    ([], {"EDCHAN_TOL": "-inf"}, "EDCHAN_TOL"),
], ids=["tol_nan", "env_nan", "env_negative_inf"])
def test_verify_rejects_bad_tolerance(args, env, field, tmp_path, monkeypatch, capsys):
    from edchan import cli

    path = tmp_path / "ad.json"
    assert cli.main(["demo", "--name", "amplitude_damping", "--output", str(path)]) == 0
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(["verify", "--input", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite and non-negative" in captured.err


def test_kraus_amplitude_damping(ad_map):
    out = run_cli("kraus", "--input", str(ad_map))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["cp"] and report["count"] == 2
    assert report["reconstruction_error"] < 1e-9
    ops = report["operators"]
    assert len(ops) == 2 and len(ops[0]) == 2


def test_kraus_accepts_b_below_kraus_truncation(tmp_path, capsys):
    from edchan import cli
    from edchan.jsonio import edmap_to_dict
    from conftest import truncated_kraus_edmap

    path = tmp_path / "edge.json"
    path.write_text(json.dumps(edmap_to_dict(truncated_kraus_edmap())))
    assert cli.main(["kraus", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cp"] and report["count"] == 3
    assert report["reconstruction_error"] < 1e-9


def test_kraus_rejects_noncp(tmp_path):
    path = dump_demo("noncp_qubit", tmp_path / "bad.json")
    out = run_cli("kraus", "--input", str(path))
    assert out.returncode == 1
    assert json.loads(out.stdout)["cp"] is False


@pytest.mark.parametrize("name, code", [("amplitude_damping", 0), ("noncp_qubit", 1)])
def test_kraus_forms_damped_map_once(name, code, tmp_path, monkeypatch):
    """One damped map and one Choi eigensolve per block, for the verdict and the operators."""
    from edchan import cli, cpcheck

    calls = {"damped": 0, "eig": 0}
    damped_excited_map = cpcheck.damped_excited_map
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cpcheck, "damped_excited_map", counted("damped", damped_excited_map))
    monkeypatch.setattr(np.linalg, "eigh", counted("eig", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eig", eigvalsh))
    path = dump_demo(name, tmp_path / "map.json")
    assert cli.main(["kraus", "--input", str(path), "--output", str(tmp_path / "k.json")]) == code
    assert calls == {"damped": 1, "eig": 2}


def test_verify_eigensolves_phi_choi_once(tmp_path, monkeypatch):
    """The ball diagnostic takes phi's CP gate and Kraus family from one eigensolve."""
    from conftest import cp_edmap
    from edchan import cli
    from edchan.jsonio import edmap_to_dict

    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    path = tmp_path / "map.json"
    path.write_text(json.dumps(edmap_to_dict(cp_edmap(np.random.default_rng(5), 2, 2))))
    monkeypatch.setattr(np.linalg, "eigh", counted(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh))
    cli.main(["verify", "--input", str(path), "--output", str(tmp_path / "v.json")])
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["cp"] and report["ball"] is not None
    # omega and the damped block (is_cp_ed), phi (ball), phi's trace functional,
    # and M1 for the full-space minimum, which reuses is_cp_ed's C_omega minimum
    assert len(calls) == 5


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


def test_divisibility_semigroup_demo_names_no_pair(tmp_path, capsys):
    from edchan import cli

    path = tmp_path / "sg.json"
    assert cli.main(["demo", "--name", "semigroup", "--output", str(path)]) == 0
    assert cli.main(["divisibility", "--input", str(path), "--t-max", "2",
                     "--steps", "21"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cp_divisible"] and report["worst_pair"] is None


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


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    code = ("import sys, edchan.cli\n"
            "assert edchan.cli.main(['demo']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().split("\n")[-1] == "[]"


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
    ({}, ["--tol", "nan"], "--tol"),
    ({}, ["--tol", "inf"], "--tol"),
    ({}, ["--tol", "-1"], "--tol"),
], ids=["kappa_nan", "kappa_inf", "t_max_nan", "t_max_inf", "times_nan", "times_inf",
        "tol_nan", "tol_inf", "tol_negative"])
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


def _trajectory_payload():
    from edchan import EDMap
    from edchan.dynamics import ChannelTrajectory
    from edchan.jsonio import trajectory_to_dict

    grid = np.linspace(0.0, 1.0, 3)
    return trajectory_to_dict(ChannelTrajectory(grid, tuple(EDMap.identity(1, 1)
                                                            for _ in grid)))


@pytest.mark.parametrize("command, demo, changes, what, field", [
    ("verify", "amplitude_damping", {"d_e": None}, "excitation-damping map", "d_e"),
    ("verify", "amplitude_damping", {"d_e": 1.9}, "excitation-damping map", "d_e"),
    ("verify", "amplitude_damping", {"gamma": [1]}, "excitation-damping map", "gamma"),
    ("divisibility", None, {"maps": 5}, "trajectory", "maps"),
    ("divisibility", "semigroup", {"F": 3}, "semigroup spec", "F"),
    ("divisibility", "semigroup", {"d_g": 0}, "semigroup spec", "d_g"),
    ("divisibility", None, {**_table([0.0, 1.0]), "d_g": 0}, "generator table", "d_g"),
    ("verify", "amplitude_damping", {"d_e": True}, "excitation-damping map", "d_e"),
    ("verify", "amplitude_damping", {"B": [[[0.8, 0.0, 5.0]]]}, "B", "entries"),
    ("divisibility", None, {"d_g": 0}, "trajectory", "d_g"),
], ids=["d_e_null", "d_e_fraction", "gamma_list", "maps_int", "F_int", "spec_d_g_zero",
        "table_d_g_zero", "d_e_true", "B_three_numbers", "trajectory_d_g_zero"])
def test_wrong_field_type_exit_two(command, demo, changes, what, field, tmp_path, capsys):
    from edchan import cli

    path = tmp_path / "input.json"
    if demo is None:
        payload = _trajectory_payload()
    else:
        assert cli.main(["demo", "--name", demo, "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, **changes}))
    assert cli.main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what}: {field} ")


def test_trajectory_manifest_dimensions_must_match_its_maps(tmp_path, capsys):
    from edchan import cli

    path = tmp_path / "window.json"
    assert cli.main(["demo", "--name", "noncp_divisible", "--output", str(path)]) == 0
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "d_e": 5, "d_g": 7}))
    assert cli.main(["divisibility", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: trajectory: maps have (d_e, d_g) = (1, 2), but it declares (5, 7)\n")
    del payload["d_e"]
    path.write_text(json.dumps(payload))
    assert cli.main(["divisibility", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: trajectory: missing keys ['d_e']\n"
