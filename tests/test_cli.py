import copy
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


@pytest.mark.parametrize("phi, omega", [
    (np.eye(4) + np.diag([0, 0.3j, 0, 0]), [[0.5, 0, 0, 0.5]]),
    (0.5 * np.eye(4), [[0.5, 0.2, 0, 0.5]]),
], ids=["phi", "omega"])
def test_verify_dg1_map_not_hermiticity_preserving_exit_one(phi, omega, tmp_path, capsys):
    """A positive map preserves hermiticity, so verify reports a verdict instead of erroring."""
    from edchan import cli

    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "type": "edmap", "d_e": 2, "d_g": 1, "phi": matrix_to_json(phi),
        "omega": matrix_to_json(np.array(omega)), "B": matrix_to_json(0.5 * np.eye(2)),
        "gamma": 1.0}))
    assert cli.main(["verify", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["cp"], report["positive"], report["witnesses"]) == (False, False, [])
    assert captured.err == ""


def test_verify_truncated_file_exit_two(tmp_path, ad_map):
    text = ad_map.read_text()
    bad = tmp_path / "trunc.json"
    bad.write_text(text[: len(text) // 2])
    out = run_cli("verify", "--input", str(bad))
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {bad}: invalid JSON (")


@pytest.mark.parametrize("command, demo, flag", [
    ("kraus", "amplitude_damping", "--input"),
    ("evolve", "semigroup", "--input"),
    ("divisibility", "noncp_divisible", "--input"),
    ("evolve", "semigroup", "--initial-state"),
])
def test_truncated_input_is_invalid_json(command, demo, flag, tmp_path, capsys):
    from edchan import cli

    good, bad = tmp_path / "good.json", tmp_path / "truncated.json"
    assert cli.main(["demo", "--name", demo, "--output", str(good)]) == 0
    text = good.read_text()
    bad.write_text(text[: len(text) // 2])
    inputs = {"--input": bad} if flag == "--input" else {"--input": good, flag: bad}
    argv = [command, *(str(x) for pair in inputs.items() for x in pair)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: invalid JSON (")


@pytest.mark.parametrize("content", [
    # past the decoder's recursion limit, which would otherwise escape as a RecursionError
    b'{"type": "edmap", "phi": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    b"\xff\xfe{}",
], ids=["deep", "undecodable"])
def test_verify_unreadable_file_exit_two(content, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = run_cli("verify", "--input", str(bad))
    assert out.returncode == 2
    # one line naming the path, the decoder's own words (they vary across Python versions) after it
    assert out.stderr.startswith(f"error: {bad}: invalid JSON (")
    assert out.stderr.count("\n") == 1


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


def test_main_calls_share_no_state(ad_map, monkeypatch):
    from edchan import cli

    seen = []
    report = cli._verify_report
    monkeypatch.setattr(cli, "_verify_report",
                        lambda m, tol, seed: seen.append((tol, seed)) or report(m, tol, seed))
    monkeypatch.delenv("EDCHAN_TOL", raising=False)
    verify = ["verify", "--input", str(ad_map), "--output", str(ad_map.with_name("out.json"))]
    assert cli.main([*verify, "--seed", "5", "--tol", "1e-3"]) == 0
    assert cli.main(verify) == 0
    monkeypatch.setenv("EDCHAN_TOL", "1e-6")
    assert cli.main(verify) == 0
    assert seen == [(1e-3, 5), (1e-9, 0), (1e-6, 0)]
    assert cli.build_parser() is cli.build_parser()


def test_verify_respects_env_tolerance(tmp_path):
    path = dump_demo("noncp_qubit", tmp_path / "bad.json")
    out = run_cli("verify", "--input", str(path), env_extra={"EDCHAN_TOL": "1.0"})
    assert out.returncode == 0  # absurd tolerance accepts the map
    out = run_cli("verify", "--input", str(path), env_extra={"EDCHAN_TOL": "bogus"})
    assert out.returncode == 2


def test_library_and_cli_share_default_tolerance(tmp_path, monkeypatch, capsys):
    """omega(X) = tr(W X), W = diag(4, -3e-9): not CP at the flat 1e-9 in both."""
    from edchan import EDMap, LinearMap, cli, is_cp_ed
    from edchan.jsonio import edmap_to_dict

    m = EDMap(phi=LinearMap(0.5 * np.eye(4)), omega=LinearMap(np.array([[4.0, 0, 0, -3e-9]])),
              B=0.5 * np.eye(2), gamma=1.0)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(edmap_to_dict(m)))
    monkeypatch.delenv("EDCHAN_TOL", raising=False)
    assert cli.main(["verify", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert is_cp_ed(m).cp is report["cp"] is False


@pytest.mark.parametrize("command", ["kraus", "evolve", "divisibility", "demo"])
def test_seed_is_a_verify_option(command, capsys):
    from edchan import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "1", *([] if command == "demo" else ["--input", "x.json"])])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


def _full_space_reconstruction_error(m, operators):
    """The full-space oracle: Kraus superoperator against ``m.to_linear_map()``."""
    from edchan import KrausSet

    d = m.d_e + m.d_g
    rebuilt = KrausSet(tuple(operators)).to_linear_map(d_in=d, d_out=d)
    return float(np.abs(rebuilt.mat - m.to_linear_map().mat).max())


def _block_cp_map(rng, d_e, d_g, positive):
    from conftest import cp_edmap, random_cp_map
    from edchan import EDMap

    if positive:
        return cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.2, 0.9)))
    return EDMap(random_cp_map(rng, d_e, d_e), random_cp_map(rng, d_e, d_g),
                 np.zeros((d_e, d_e)), 0.0)


@pytest.mark.parametrize("positive", [False, True], ids=["gamma_zero", "gamma_positive"])
@pytest.mark.parametrize("d_g", [1, 2, 3])
@pytest.mark.parametrize("d_e", [1, 2, 4, 8])
def test_block_reconstruction_error_matches_full_space_oracle(d_e, d_g, positive):
    from edchan import cli, explicit_kraus_ed

    rng = np.random.default_rng([17, d_e, d_g, positive])
    m = _block_cp_map(rng, d_e, d_g, positive)
    ops = explicit_kraus_ed(m).operators
    assert (m.gamma > 0) == positive
    err = cli._reconstruction_error(m, ops)
    assert abs(err - _full_space_reconstruction_error(m, ops)) <= 1e-15


def test_block_reconstruction_error_sees_every_pair_of_blocks():
    """A 1e-6 change of one operator shows up whichever (output, input) block pair it hits."""
    from edchan import cli, explicit_kraus_ed

    rng = np.random.default_rng(23)
    m = _block_cp_map(rng, 2, 2, positive=True)
    ops = np.array(explicit_kraus_ed(m).operators)
    d, eps = 4, 1e-6
    sector = (slice(0, 2), slice(2, 4))

    def action(family):
        from edchan import KrausSet

        S = KrausSet(tuple(family)).to_linear_map(d_in=d, d_out=d).mat
        # T[a, b, i, j]: coefficient of X[i, j] in the image's entry [a, b]
        return S.reshape(d, d, d, d).transpose(1, 0, 3, 2)

    base = action(ops)
    perturbed = []
    for mu, p, q in np.ndindex(len(ops), d, d):
        family = ops.copy()
        family[mu, p, q] += eps
        perturbed.append((family, np.abs(action(family) - base)))
    for a, b, i, j in np.ndindex(2, 2, 2, 2):
        block = (sector[a], sector[b], sector[i], sector[j])
        # the single-entry change whose effect on this block is largest
        family, change = max(perturbed, key=lambda fc: fc[1][block].max())
        hit = change[block].max()
        assert hit >= 0.5 * eps ** 2, (a, b, i, j)
        err = cli._reconstruction_error(m, family)
        assert err >= hit - 1e-15
        assert abs(err - _full_space_reconstruction_error(m, family)) <= 1e-15


def test_kraus_of_the_zero_map_is_an_empty_family(tmp_path, capsys):
    from edchan import EDMap, LinearMap, cli
    from edchan.jsonio import edmap_to_dict

    path = tmp_path / "zero.json"
    zero = EDMap(LinearMap.zero(2, 2), LinearMap.zero(2, 1), np.zeros((2, 2)), 0.0)
    path.write_text(json.dumps(edmap_to_dict(zero)))
    assert cli.main(["kraus", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["count"], report["operators"], report["reconstruction_error"]) == (0, [], 0.0)


def test_kraus_builds_no_full_space_superoperator(tmp_path, monkeypatch, capsys):
    from edchan import EDMap, LinearMap, cli

    def forbidden(*args, **kwargs):
        raise AssertionError("full-space superoperator built")

    monkeypatch.setattr(EDMap, "to_linear_map", forbidden)
    assert cli.main(["demo"]) == 0
    path = tmp_path / "ad.json"
    assert cli.main(["demo", "--name", "amplitude_damping", "--output", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(LinearMap, "from_kraus", classmethod(forbidden))
    assert cli.main(["kraus", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["reconstruction_error"] < 1e-15


@pytest.mark.parametrize("name, code", [("amplitude_damping", 0), ("noncp_qubit", 1)])
def test_kraus_forms_damped_map_once(name, code, tmp_path, monkeypatch):
    """One damped map and one Choi eigensolve per block, for the verdict and the operators."""
    from edchan import cli, cpcheck

    calls = {"damped": 0, "eig": 0}
    damped_stack = cpcheck._damped_stack
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cpcheck, "_damped_stack", counted("damped", damped_stack))
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


@pytest.fixture()
def seesaw_calls(monkeypatch):
    """Counts the calls of the positivity search, which is_positive_ed_dg1 makes."""
    from edchan import cpcheck

    calls = []
    seesaw = cpcheck._seesaw
    monkeypatch.setattr(cpcheck, "_seesaw", lambda *a, **k: calls.append(a) or seesaw(*a, **k))
    return calls


def searched_report(m, tol, seed):
    """verify's report with the positivity verdict of is_positive_ed_dg1, as the search gives it."""
    from edchan import cli, is_positive_ed_dg1

    report = cli._verify_report(m, tol, seed)
    verdict = is_positive_ed_dg1(m, samples=cli.VERIFY_SAMPLES, tol=tol, seed=seed)
    witnesses = [matrix_to_json(verdict.witness)] if verdict.not_positive else []
    return {**report, "positive": not verdict.not_positive, "witnesses": witnesses}


@pytest.mark.parametrize("gamma", [None, 0.0], ids=["gamma_positive", "gamma_zero"])
@pytest.mark.parametrize("d_e", [1, 2, 4, 8])
def test_verify_dg1_cp_map_is_positive_without_a_search(d_e, gamma, seesaw_calls):
    """CP implies positive: a CP d_g = 1 map reads positive: true and the search never runs."""
    from conftest import cp_edmap
    from edchan import cli

    rng = np.random.default_rng([d_e, gamma is None])
    for seed in range(25):
        m = cp_edmap(rng, d_e, 1, fill=float(rng.uniform(0.0, 0.9)), gamma=gamma)
        report = cli._verify_report(m, 1e-9, seed)
        assert (report["cp"], report["positive"], report["witnesses"]) == (True, True, [])
        assert report["branch"] == ("gamma_zero" if gamma == 0.0 else "gamma_positive")
        assert seesaw_calls == []
        # the search, run anyway, finds nothing and leaves the same report
        assert report == searched_report(m, 1e-9, seed)
        seesaw_calls.clear()


@pytest.mark.parametrize("block, searches", [("damped", 1), ("omega", 0)])
@pytest.mark.parametrize("d_e", [2, 4, 8])
def test_verify_dg1_noncp_map_keeps_its_certified_witness(d_e, block, searches,
                                                         seesaw_calls):
    """A non-CP map is still searched (omega is decided exactly), and its witness certifies."""
    from conftest import cp_edmap, dg1_planted_noncp, random_noncp_map
    from edchan import BlockOperator, EDMap, apply, cli

    rng = np.random.default_rng(d_e)
    if block == "damped":
        m = dg1_planted_noncp(rng, d_e)
    else:
        m = cp_edmap(rng, d_e, 1)
        m = EDMap(m.phi, random_noncp_map(rng, d_e, 1), m.B, m.gamma)
    report = cli._verify_report(m, 1e-9, 0)
    assert len(seesaw_calls) == searches
    assert (report["cp"], report["positive"]) == (False, False)
    assert (report["omega_cp"], report["damped_phi_cp"]) == (block == "damped", block == "omega")
    (witness,) = report["witnesses"]
    chi = np.array(witness) @ [1, 1j]
    out = apply(m, BlockOperator.from_full(np.outer(chi, chi.conj()), d_e, 1)).full()
    assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] < -1e-9
    assert report == searched_report(m, 1e-9, 0)


def map_with_choi(w, V, d):
    """The map on d x d matrices whose Choi matrix is V diag(w) V†."""
    from edchan import LinearMap

    return sum((float(x) * LinearMap.from_kraus([v.reshape(d, d)]) for x, v in zip(w, V.T)),
               LinearMap.zero(d, d))


@pytest.mark.parametrize("gamma", [1.0, 0.0], ids=["gamma_positive", "gamma_zero"])
@pytest.mark.parametrize("depth, cp, searches", [(0.5, True, 0), (2.0, False, 1)],
                         ids=["half_tol", "twice_tol"])
def test_verify_dg1_damped_choi_minimum_at_the_tolerance(gamma, depth, cp, searches,
                                                         seesaw_calls):
    """A damped Choi minimum of -tol/2 is CP and certified positive; one of -2 tol is searched."""
    from conftest import random_cp_map, rc
    from edchan import EDMap, LinearMap, is_cp, is_cp_ed
    from edchan.cli import _verify_report

    tol, d = 1e-9, 3
    rng = np.random.default_rng(11)
    # the lowest Choi eigenvector is the product |0> ⊗ |0>
    V = np.linalg.qr(np.column_stack([np.eye(d * d)[:, 0], rc(rng, d * d, d * d - 1)]))[0]
    damped = map_with_choi([-depth * tol, *rng.uniform(0.2, 1.0, d * d - 1)], V, d)
    if gamma:
        B = 0.4 * rc(rng, d, d)
        phi = damped + LinearMap.from_kraus([B / np.sqrt(gamma)])
    else:
        B, phi = np.zeros((d, d)), damped
    m = EDMap(phi, random_cp_map(rng, d, 1), B, gamma)
    assert is_cp_ed(m, tol).damped_min_eigenvalue == pytest.approx(-depth * tol, abs=1e-14)
    assert is_cp(m.to_linear_map(), tol).is_cp is cp  # the full-Choi oracle agrees
    report = _verify_report(m, tol, 0)
    assert report["cp"] is cp and len(seesaw_calls) == searches
    if cp:
        assert (report["positive"], report["witnesses"]) == (True, [])


def verify_bytes(path, seed, tmp_path):
    from edchan import cli

    out = tmp_path / f"{path.stem}_{seed}.json"
    status = cli.main(["verify", "--input", str(path), "--output", str(out), "--seed", str(seed)])
    return status, out.read_bytes()


def test_verify_seed_does_not_reach_a_cp_dg1_map(tmp_path):
    """A CP d_g = 1 report is the same bytes for every seed; noncp_qubit keeps its seeded witness."""
    from conftest import cp_edmap
    from edchan import cli, demos, is_positive_ed_dg1
    from edchan.jsonio import edmap_to_dict

    path = tmp_path / "cp.json"
    path.write_text(json.dumps(edmap_to_dict(cp_edmap(np.random.default_rng(3), 4, 1))))
    (_, text), (_, other) = (verify_bytes(path, seed, tmp_path) for seed in (0, 99))
    assert text == other
    report = json.loads(text)
    assert (report["cp"], report["positive"], report["witnesses"]) == (True, True, [])

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edmap_to_dict(demos.noncp_qubit())))
    for seed in (0, 99):
        status, text = verify_bytes(path, seed, tmp_path)
        verdict = is_positive_ed_dg1(demos.noncp_qubit(), samples=cli.VERIFY_SAMPLES, seed=seed)
        assert status == 1
        assert json.loads(text)["witnesses"] == [matrix_to_json(verdict.witness)]


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


def test_evolve_rejects_state_of_other_sectors(tmp_path, capsys):
    # a 4-dimensional state split (3, 1) against the demo's (2, 2) sectors
    from edchan import cli

    spec, state = tmp_path / "sg.json", tmp_path / "state.json"
    assert cli.main(["demo", "--name", "semigroup", "--output", str(spec)]) == 0
    state.write_text(json.dumps({"d_e": 3, "d_g": 1, "matrix": matrix_to_json(np.eye(4) / 4)}))
    capsys.readouterr()
    assert cli.main(["evolve", "--input", str(spec), "--initial-state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: operator sectors (3, 1) do not match map sectors (2, 2)\n"


def test_evolve_reads_initial_state_before_input(tmp_path, capsys):
    from edchan import cli

    state = tmp_path / "state.json"
    state.write_text('{"d_e": 1,')
    argv = ["evolve", "--input", str(tmp_path / "missing.json"), "--initial-state", str(state)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {state}: invalid JSON (")


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
    # the decay spec's maps pass condition number 1e12 at `where`: the spec is
    # decided from its steps, while its stored copy inverts that map and refuses
    from edchan import cli
    from edchan.dynamics import semigroup_trajectory
    from edchan.jsonio import load, semigroup_spec_from_dict, trajectory_to_dict

    path, out = _decay_spec_file(tmp_path, 30.0), tmp_path / "out"
    assert cli.main([command, "--input", str(path), "--t-max", "1.5", "--steps", str(steps),
                     "--output", str(out)]) == 0
    if command == "divisibility":
        assert json.loads(out.read_text())["cp_divisible"] is True
    else:
        assert len(out.read_text().splitlines()) == steps + 1
    traj = semigroup_trajectory(semigroup_spec_from_dict(load(path)),
                                np.linspace(0.0, 1.5, steps))
    stored = tmp_path / "stored.json"
    stored.write_text(json.dumps(trajectory_to_dict(traj)))
    capsys.readouterr()
    assert cli.main([command, "--input", str(stored), "--output", str(out)]) == 2
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


def _maps_with_phi(phi):
    maps = _trajectory_payload()["maps"]
    maps[1]["phi"] = phi
    return maps


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
    ("verify", "amplitude_damping", {"gamma": "1.0"}, "excitation-damping map", "gamma"),
    ("verify", "amplitude_damping", {"gamma": True}, "excitation-damping map", "gamma"),
    ("divisibility", "semigroup", {"kappa": "0.4"}, "semigroup spec", "kappa"),
    ("divisibility", "semigroup", {"epsilon": False}, "semigroup spec", "epsilon"),
    ("divisibility", None, _table(["0", "1"]), "generator table", "times"),
    ("divisibility", None, {"grid": [False, True, True]}, "trajectory", "grid"),
    ("verify", "amplitude_damping", {"B": [[["0.8", False]]]}, "B", "entries"),
    ("kraus", "amplitude_damping", {"B": [[[True, False]]]}, "B", "entries"),
    ("verify", "phase_damping", {"omega": [[["1", "0"]]]}, "omega", "entries"),
    ("verify", "amplitude_damping", {"B": [[[True, 0.0]]]}, "B", "entries"),
    ("divisibility", None, {"maps": _maps_with_phi([[[True, 0.0]]])}, "phi", "entries"),
], ids=["d_e_null", "d_e_fraction", "gamma_list", "maps_int", "F_int", "spec_d_g_zero",
        "table_d_g_zero", "d_e_true", "B_three_numbers", "trajectory_d_g_zero",
        "gamma_string", "gamma_true", "kappa_string", "epsilon_false", "times_strings",
        "grid_booleans", "B_string_and_false", "B_booleans", "omega_strings",
        "B_true_and_number", "phi_true_and_number"])
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


@pytest.mark.parametrize("message, err", [
    ("Unable to allocate 1.49 GiB for an array with shape (200000000,) and data type float64",
     "error: Unable to allocate 1.49 GiB for an array with shape (200000000,) "
     "and data type float64\n"),
    ("", "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_exit_two(message, err, tmp_path, monkeypatch, capsys):
    # exit 1 is a negative verdict; an allocation that fails is an error
    from edchan import cli

    path = tmp_path / "sg.json"
    assert cli.main(["demo", "--name", "semigroup", "--output", str(path)]) == 0

    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "is_cp_divisible", allocate)
    assert cli.main(["divisibility", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


FUZZ_LEAVES = [None, True, False, 0, -1, 2, 0.5, -1e308, float("nan"), float("inf"), "x",
               [], {}, [[0.0, 0.0]], [[[0.0, 0.0]]]]
# the commands that read each input type; a tenth of the runs pick any command
FUZZ_COMMANDS = {"edmap": ["verify", "kraus"], "semigroup_spec": ["evolve", "divisibility"],
                 "generator_table": ["evolve", "divisibility"],
                 "trajectory": ["evolve", "divisibility"]}
# each command's report on exit 1, and the field that holds its negative verdict
FUZZ_VERDICTS = {"verify": ("verify_report", lambda r: not (r["cp"] and r["tp"])),
                 "kraus": ("kraus_report", lambda r: r["cp"] is False),
                 "divisibility": ("divisibility_report", lambda r: r["cp_divisible"] is False)}


def _fuzz_inputs(tmp_path):
    """The demo fixtures and a d_e = 4, d_g = 2 generator table, as decoded JSON."""
    from edchan import K_from_spec, cli, gkls_superop
    from conftest import random_semigroup_spec

    inputs = []
    for name in ("amplitude_damping", "phase_damping", "noncp_qubit", "semigroup",
                 "noncp_divisible"):
        path = tmp_path / f"{name}.json"
        assert cli.main(["demo", "--name", name, "--output", str(path)]) == 0
        inputs.append(json.loads(path.read_text()))
    spec = random_semigroup_spec(np.random.default_rng(80), 4, 2)
    L, K, psi = gkls_superop(spec.gen).mat, K_from_spec(spec), spec.psi.mat
    scales = (1.0, 2.0, 0.5)
    inputs.append({"type": "generator_table", "d_e": 4, "d_g": 2, "times": [0.0, 0.5, 1.0],
                   **{key: [matrix_to_json(c * M) for c in scales]
                      for key, M in (("L", L), ("K", K), ("psi", psi))}})
    return inputs


def _nodes(value, out):
    """Every (container, key) pair under value, containers before their members."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _nodes(child, out)
    return out


def _mutate(payload, rng):
    """One random node replaced or deleted, one number made NaN, or a dimension made small."""
    kind, dims = rng.integers(4), [key for key in ("d_e", "d_g") if key in payload]
    if kind == 3 and dims:
        payload[dims[rng.integers(len(dims))]] = int(rng.integers(0, 4))
        return payload
    nodes = _nodes(payload, [])
    if kind == 2:
        numbers = [(c, k) for c, k in nodes if type(c[k]) in (int, float)]
        container, key = numbers[rng.integers(len(numbers))]
        container[key] = float("nan")
        return payload
    container, key = nodes[rng.integers(len(nodes))]
    if kind == 1:
        del container[key]
    else:
        container[key] = copy.deepcopy(FUZZ_LEAVES[rng.integers(len(FUZZ_LEAVES))])
    return payload


# an entry near the float limit overflows in numpy; the console prints the
# warning and exits as here, so the run treats it as the console does
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_inputs_exit_zero_one_or_two(tmp_path, capsys):
    # 200 seeded mutations of small inputs: an error is exit 2, and exit 1 only
    # follows a negative verdict whose report has been written
    from edchan import cli

    rng = np.random.default_rng(2026)
    inputs = _fuzz_inputs(tmp_path)
    path, out = tmp_path / "input.json", tmp_path / "out"
    codes = []
    for trial in range(200):
        payload = _mutate(copy.deepcopy(inputs[trial % len(inputs)]), rng)
        path.write_text(json.dumps(payload))
        commands = FUZZ_COMMANDS.get(str(payload.get("type")))
        if commands is None or rng.random() < 0.1:
            commands = ["verify", "kraus", "evolve", "divisibility"]
        command = commands[rng.integers(len(commands))]
        out.unlink(missing_ok=True)
        code = cli.main([command, "--input", str(path), "--output", str(out)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (trial, command, code)
        if code == 2:
            assert captured.err.startswith("error: ") and not out.exists(), (trial, captured.err)
        if code == 1:
            assert command in FUZZ_VERDICTS, (trial, command)
            report_type, negative = FUZZ_VERDICTS[command]
            report = json.loads(out.read_text())
            assert report["type"] == report_type and negative(report), (trial, report)
        codes.append(code)
    # the mutations reach every exit code
    assert set(codes) == {0, 1, 2}
