import dataclasses
import gc
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from edchan import BlockOperator, EDMap, jsonio, semigroup_at
from edchan.jsonio import (
    block_operator_from_dict,
    block_operator_to_dict,
    canonical_dumps,
    edmap_from_dict,
    edmap_to_dict,
    generator_table_from_dict,
    matrix_from_json,
    matrix_to_json,
    observables_to_csv,
    semigroup_spec_from_dict,
    semigroup_spec_to_dict,
    trajectory_from_dict,
    trajectory_to_dict,
)
from edchan.dynamics import semigroup_trajectory
from conftest import cp_edmap, random_density, random_semigroup_spec, rc


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    M = rc(rng, 3, 2)
    back = matrix_from_json(matrix_to_json(M), (3, 2))
    assert np.abs(back - M).max() == 0.0


def test_matrix_from_json_rejects_bad_entries():
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0]], name="m")
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[2.0, 0.0], [3.0, 0.0]]], name="m")
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]]], shape=(2, 2), name="m")
    with pytest.raises(ValueError, match="m: entries must be"):
        matrix_from_json([[[0.8, 0.0, 5.0]]], name="m")
    with pytest.raises(ValueError, match="m: entries must be"):
        matrix_from_json([[[1.0, 0.0], None]], name="m")


def test_matrix_to_json_matches_entrywise_encoding():
    def entrywise(A):  # one [re, im] list per complex(z), row by row
        if A.ndim == 1:
            return [[complex(z).real, complex(z).imag] for z in A]
        return [entrywise(row) for row in A]

    rng = np.random.default_rng(6)
    signed_zeros = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                             [complex(-0.0, -0.0), complex(1.5, -0.0)]])
    for A in (rc(rng, 3, 4), rc(rng, 5), signed_zeros):
        encoded = matrix_to_json(A)
        assert encoded == entrywise(A)
        assert json.dumps(encoded) == json.dumps(entrywise(A))
    # decoding gives back every bit, the sign of each zero included
    back = matrix_from_json(matrix_to_json(signed_zeros))
    assert np.signbit(back.view(float)).tolist() == np.signbit(signed_zeros.view(float)).tolist()


def test_edmap_round_trip():
    rng = np.random.default_rng(1)
    m = cp_edmap(rng, 2, 3)
    back = edmap_from_dict(edmap_to_dict(m))
    assert np.abs(back.phi.mat - m.phi.mat).max() == 0.0
    assert np.abs(back.omega.mat - m.omega.mat).max() == 0.0
    assert np.abs(back.B - m.B).max() == 0.0
    assert back.gamma == m.gamma


def test_edmap_from_dict_validates():
    with pytest.raises(ValueError):
        edmap_from_dict({"d_e": 1})
    with pytest.raises(ValueError):
        edmap_from_dict("not a dict")
    rng = np.random.default_rng(2)
    payload = edmap_to_dict(cp_edmap(rng, 2, 2))
    payload["phi"] = payload["phi"][:2]
    with pytest.raises(ValueError):
        edmap_from_dict(payload)


def test_semigroup_spec_round_trip():
    rng = np.random.default_rng(3)
    spec = random_semigroup_spec(rng, 2, 2)
    back = semigroup_spec_from_dict(semigroup_spec_to_dict(spec))
    for t in (0.3, 1.1):
        a = semigroup_at(spec, t)
        b = semigroup_at(back, t)
        assert np.abs(a.to_linear_map().mat - b.to_linear_map().mat).max() < 1e-12


def test_trajectory_round_trip():
    rng = np.random.default_rng(4)
    spec = random_semigroup_spec(rng, 2, 1)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 4))
    back = trajectory_from_dict(trajectory_to_dict(traj))
    assert np.allclose(back.grid, traj.grid)
    for m1, m2 in zip(back.maps, traj.maps):
        assert np.abs(m1.phi.mat - m2.phi.mat).max() == 0.0


def test_trajectory_to_dict_writes_the_maps_one_at_a_time():
    from edchan.dynamics import CHUNK, ChannelTrajectory

    spec = random_semigroup_spec(np.random.default_rng(7), 2, 2)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 2 * CHUNK + 3) ** 1.5)
    payload = trajectory_to_dict(traj)
    assert "maps" not in vars(traj)
    want = [edmap_to_dict(m) for m in traj.maps]
    assert json.dumps(payload["maps"]) == json.dumps(want)
    stored = ChannelTrajectory(traj.grid, traj.maps)
    assert json.dumps(trajectory_to_dict(stored)) == json.dumps(payload)


@pytest.mark.parametrize("key", ["times", "grid"])
def test_time_arrays_reject_booleans_among_numbers(key):
    # numpy infers float64 for [false, 1.0], which would load as [0.0, 1.0]
    if key == "times":
        payload = {"d_e": 1, "d_g": 1, "times": [False, 1.0],
                   "L": [matrix_to_json(np.array([[-1.0]]))] * 2,
                   "K": [matrix_to_json(np.array([[-0.5]]))] * 2,
                   "psi": [matrix_to_json(np.array([[1.0]]))] * 2}
        load = generator_table_from_dict
    else:
        rng = np.random.default_rng(6)
        spec = random_semigroup_spec(rng, 1, 1)
        traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 3))
        payload = trajectory_to_dict(traj)
        payload["grid"] = [False, 0.5, 1.0]
        load = trajectory_from_dict
    with pytest.raises(ValueError, match=f"{key} has the wrong type or value "
                                         r"\(must be an array of numbers\)"):
        load(payload)


def test_block_operator_round_trip():
    rng = np.random.default_rng(5)
    X = BlockOperator.from_full(random_density(rng, 4), 2, 2)
    back = block_operator_from_dict(block_operator_to_dict(X))
    assert np.abs(back.full() - X.full()).max() == 0.0


def test_generator_table_interpolation():
    d_e, d_g = 1, 1
    times = [0.0, 1.0]
    table = {
        "d_e": d_e, "d_g": d_g, "times": times,
        "L": [matrix_to_json(np.array([[-1.0]])), matrix_to_json(np.array([[-3.0]]))],
        "K": [matrix_to_json(np.array([[-0.5]])), matrix_to_json(np.array([[-0.5]]))],
        "psi": [matrix_to_json(np.array([[1.0]])), matrix_to_json(np.array([[1.0]]))],
    }
    value = generator_table_from_dict(table)
    assert (value.d_e, value.d_g, value.times[-1]) == (1, 1, 1.0)
    L = value.at(np.array([0.5, 2.0]))[0]
    assert abs(L[0, 0, 0] + 2.0) < 1e-14
    assert abs(L[1, 0, 0] + 3.0) < 1e-14  # clamped beyond the table


def test_generator_table_validation():
    with pytest.raises(ValueError):
        generator_table_from_dict({"d_e": 1, "d_g": 1, "times": [0.0],
                                   "L": [], "K": [], "psi": []})


@pytest.mark.parametrize("short", ["L", "K", "psi"])
def test_generator_table_needs_one_sample_of_each_generator_per_time(short):
    sample = matrix_to_json(np.array([[-1.0]]))
    table = {"d_e": 1, "d_g": 1, "times": [0.0, 1.0, 2.0],
             "L": [sample] * 3, "K": [sample] * 3, "psi": [sample] * 3}
    table[short] = table[short][:2]
    with pytest.raises(ValueError, match="^generator table: need one L, K, psi sample per time$"):
        generator_table_from_dict(table)


def test_canonical_dumps_is_deterministic_and_sorted():
    payload = {"b": 1.0 / 3.0, "a": [True, None, 7], "c": {"y": 2, "x": 1e-300}}
    s1 = canonical_dumps(payload)
    s2 = canonical_dumps(payload)
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    parsed = json.loads(s1)
    assert parsed["b"] == pytest.approx(1.0 / 3.0, abs=0.0)


def same_bits(got, want) -> bool:
    """Parsed JSON ``got`` equals the payload ``want``, floats compared as IEEE bits."""
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    if isinstance(want, dict):
        return (type(got) is dict and got.keys() == want.keys()
                and all(same_bits(got[k], want[k]) for k in want))
    if isinstance(want, (list, tuple)):
        return type(got) is list and len(got) == len(want) and all(map(same_bits, got, want))
    return type(got) is type(want) and got == want


def test_canonical_dumps_round_trips_every_payload_bit_for_bit(tmp_path, monkeypatch):
    from edchan import cli, demos

    payloads = []

    def capture(obj):
        payloads.append(obj)
        return canonical_dumps(obj)

    monkeypatch.setattr(cli, "canonical_dumps", capture)
    out = str(tmp_path / "out.json")
    for name in cli._demo_payloads():
        path = str(tmp_path / f"{name}.json")
        assert cli.main(["demo", "--name", name, "--output", path]) == 0
        for command in ("verify", "kraus") if payloads[-1]["type"] == "edmap" else ("divisibility",):
            assert cli.main([command, "--input", path, "--output", out]) in (0, 1)
    assert {p["type"] for p in payloads} >= {"edmap", "semigroup_spec", "trajectory",
                                              "verify_report", "kraus_report",
                                              "divisibility_report"}
    # -0.0 entries in phi and B, and integral floats, which must stay floats
    m = demos.phase_damping_qubit()
    m = EDMap(m.phi * -0.0, m.omega, np.array([[complex(-0.0, -0.0)]]), 1.0)
    payloads.append(edmap_to_dict(m))
    for p in payloads:
        assert same_bits(json.loads(canonical_dumps(p)), p), p["type"]
    back = edmap_from_dict(json.loads(canonical_dumps(payloads[-1])))
    for got, want in ((back.phi.mat, m.phi.mat), (back.B, m.B)):
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    assert np.signbit(back.B.real).all() and np.signbit(back.B.imag).all()


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps(float("nan"))


def _json_dumps(obj) -> str:
    """The writer's oracle: the standard library's encoder with the same settings."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _random_payload(rng, depth=0):
    """A seeded nested payload of every kind the writer takes, pair rows among them."""
    leaves = [
        lambda: float(rng.standard_normal() * 10.0 ** int(rng.integers(-320, 300))),
        lambda: np.float64(rng.standard_normal()),
        lambda: float(rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e308, 2.0, -17.0, 1e16])),
        lambda: int(rng.integers(-10 ** 6, 10 ** 6)) * 10 ** int(rng.integers(0, 30)),
        lambda: [True, False, None][int(rng.integers(3))],
        lambda: "".join(rng.choice(list('aZ"\\/\n\t\x00\x7fé€😀 '), int(rng.integers(0, 6)))),
        lambda: matrix_to_json(rc(rng, *rng.integers(0, 3, int(rng.integers(1, 4))))),
        lambda: [float(x) for x in rng.standard_normal(int(rng.integers(0, 4)))],
    ]
    kind = int(rng.integers(len(leaves) + (3 if depth < 4 else 0)))
    if kind < len(leaves):
        return leaves[kind]()
    items = [_random_payload(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    if kind == len(leaves):
        return items
    if kind == len(leaves) + 1:
        return tuple(items)
    return {"".join(rng.choice(list("abcé\n"), 3)): x for x in items}


WRITER_CASES = {
    "empty_dict": {},
    "empty_list": [],
    "list_of_empty": [[]],
    "nested_empties": {"a": [[], {}, [[]]], "b": {}},
    "scalars": [-0.0, 0.0, 5e-324, 1e308, -1e308, 1.0, 2.0 ** 53, 10 ** 40, -7, True, False, None],
    "numpy_float": [np.float64(0.1), np.float64(-0.0), [np.float64(1.5), np.float64(2.5)]],
    "tuples": ((1.0, 2.0), (3.0, 4.0), ((1.0, 2.0),)),
    "matrix_1x1": matrix_to_json(np.array([[1.0 - 0.5j]])),
    "matrix_empty": matrix_to_json(np.zeros((0, 0))),
    "matrix_2x2": matrix_to_json(np.array([[1.0, -0.0j], [5e-324, 1e308j]])),
    "pairs_then_ints": [[1.0, 2.0], [1, 2.0]],
    "pairs_then_bool": [[1.0, 2.0], [True, 2.0]],
    "pairs_then_triple": [[1.0, 2.0], [1.0, 2.0, 3.0]],
    "pairs_then_string": [[1.0, 2.0], "ab"],
    "pair_then_float": [[1.0, 2.0], 3.0],
    "pair_of_strings": [["a", "b"]],
    "floats_then_int": [1.0, 2],
    "floats_then_list": [1.0, [2.0]],
    "strings": {"é": "snowman ☃, emoji 😀", "esc": "\"\\\n\r\t\b\f\x00\x1f/", "": ""},
    "keys_sorted": {"b": 1, "a": 2, "B": 3, "é": 4, "aa": 5},
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_canonical_dumps_matches_json_dumps_on_edge_cases(name):
    obj = WRITER_CASES[name]
    assert canonical_dumps(obj) == _json_dumps(obj)


def test_canonical_dumps_matches_json_dumps_on_random_payloads():
    rng = np.random.default_rng(31)
    for _ in range(400):
        obj = _random_payload(rng)
        assert canonical_dumps(obj) == _json_dumps(obj), obj


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["top", "pair", "flat_list", "dict_value", "deep"])
def test_canonical_dumps_rejects_non_finite_anywhere(bad, where):
    obj = {"top": bad, "pair": [[1.0, 2.0], [1.0, bad]], "flat_list": [1.0, bad, 2.0],
           "dict_value": {"x": bad}, "deep": {"a": [[{"b": (bad,)}]]}}[where]
    with pytest.raises(ValueError):
        _json_dumps(obj)
    with pytest.raises(ValueError):
        canonical_dumps(obj)


@pytest.mark.parametrize("bad", [{1.0}, 1j, np.int64(3), np.bool_(True), {1: 2.0}, [object()]],
                         ids=["set", "complex", "int64", "numpy_bool", "int_key", "object"])
def test_canonical_dumps_rejects_other_types(bad):
    with pytest.raises(TypeError):
        canonical_dumps(bad)


def test_observables_csv_shape():
    rows = [
        {"t": 0.0, "trace_ee": 0.5, "trace_gg": 0.5, "coherence_norm": 0.5,
         "total_trace": 1.0, "min_propagator_choi_eigenvalue": 0.0},
    ]
    text = observables_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("t,trace_ee,trace_gg")
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 6


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "numpy_nan"])
def test_observables_csv_writes_17_digits_and_rejects_non_finite(bad):
    row = {"t": 0.1, "trace_ee": 1 / 3, "trace_gg": -0.0, "coherence_norm": 1e-300,
           "total_trace": np.float64(2.0 / 3), "min_propagator_choi_eigenvalue": 5e-324}
    line = observables_to_csv([row]).split("\n")[1]
    assert line == ",".join(f"{float(row[c]):.17g}" for c in row) == (
        "0.10000000000000001,0.33333333333333331,-0,1e-300,"
        "0.66666666666666663,4.9406564584124654e-324")
    with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
        observables_to_csv([dict(row, coherence_norm=bad)])
    with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
        canonical_dumps({"x": bad})


def _negate_zeros(x):
    """Every 0.0 in a decoded payload as -0.0, whose sign the readers must keep."""
    if isinstance(x, list):
        return [_negate_zeros(v) for v in x]
    if isinstance(x, dict):
        return {k: _negate_zeros(v) for k, v in x.items()}
    return -0.0 if type(x) is float and x == 0.0 else x


def _parity_payloads():
    rng = np.random.default_rng(12)
    m = cp_edmap(rng, 2, 2)
    edmap = edmap_to_dict(EDMap(m.phi, m.omega, np.diag([0.0, 0.5j]), m.gamma))
    spec = semigroup_spec_to_dict(random_semigroup_spec(rng, 2, 2, n_jumps=2))
    table = {"type": "generator_table", "d_e": 2, "d_g": 1, "times": [0.0, 1.0, 2.0],
             "L": [matrix_to_json(rc(rng, 4, 4)) for _ in range(3)],
             "K": [matrix_to_json(np.diag(rc(rng, 2))) for _ in range(3)],
             "psi": [matrix_to_json(rc(rng, 1, 4)) for _ in range(3)]}
    traj = trajectory_to_dict(semigroup_trajectory(random_semigroup_spec(rng, 2, 1),
                                                   np.linspace(0.0, 1.0, 3)))
    chi = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
    state = block_operator_to_dict(BlockOperator.from_full(np.outer(chi, chi.conj()), 2, 1))
    return {
        "edmap": (edmap_from_dict, edmap, [("phi",), ("omega",), ("B",)]),
        "semigroup_spec": (semigroup_spec_from_dict, spec,
                           [("H",), ("G",), ("F",), ("F", 1), ("c",), ("psi",)]),
        "generator_table": (generator_table_from_dict, table,
                            [("L",), ("L", 1), ("K",), ("K", 0), ("psi",), ("psi", 2)]),
        "trajectory": (trajectory_from_dict, traj,
                       [("maps", 1, "phi"), ("maps", 1, "omega"), ("maps", 1, "B")]),
        "block_operator": (block_operator_from_dict, state, [("matrix",)]),
    }


# Malformed values for one matrix field; inf is written as the literal 1e400.
MALFORMED = {
    "ragged_rows": [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
    "third_component": [[[0.8, 0.0, 5.0]]],
    "null": None,
    "null_pair": [[[1.0, 0.0], None]],
    "null_number": [[[None, 0.0]]],
    "string": "abc",
    "string_number": [[["0.8", 0.0]]],
    "boolean": True,
    "boolean_pair": [[[True, False]]],
    "boolean_and_number": [[[True, 0.0]]],
    "1e400": [[[float("inf"), 0.0]]],
    "huge_integer": [[[10 ** 400, 0]]],
    "empty": [],
    "non_list": 5,
    "object": {"re": 1.0, "im": 0.0},
}


def _leaves(x):
    """The arrays and numbers a reader returns, in order, as comparable bit strings."""
    if dataclasses.is_dataclass(x):
        return [v for f in dataclasses.fields(x) for v in _leaves(getattr(x, f.name))]
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _leaves(item)]
    if x is None:
        return [None]
    A = np.asarray(x)
    return [(type(x).__name__, A.dtype.str, A.shape, A.tobytes())]


def _read(reader, data):
    try:
        return _leaves(reader(data))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("schema", ["edmap", "semigroup_spec", "generator_table",
                                    "trajectory", "block_operator"])
def test_load_reads_like_plain_json(schema, tmp_path):
    reader, payload, fields = _parity_payloads()[schema]
    payload = _negate_zeros(payload)
    cases = [("valid", payload)]
    for field in fields:
        for label, bad in MALFORMED.items():
            case = json.loads(json.dumps(payload))
            owner = case
            for key in field[:-1]:
                owner = owner[key]
            owner[field[-1]] = bad
            cases.append((f"{'.'.join(map(str, field))}={label}", case))
    path = tmp_path / "input.json"
    mismatches = []
    for label, case in cases:
        text = json.dumps(case).replace("Infinity", "1e400")
        path.write_text(text)
        want, got = _read(reader, json.loads(text)), _read(reader, jsonio.load(path))
        if got != want:
            mismatches.append((label, got, want))
    assert mismatches == []
    valid = _read(reader, payload)
    assert isinstance(valid, list), valid
    # the valid case holds signed zeros, so the comparison sees their sign bits
    floats = [np.frombuffer(b, dtype=d).view(float) for _, d, _, b in filter(None, valid)
              if np.dtype(d).kind in "fc"]
    assert any(np.any((F == 0) & np.signbit(F)) for F in floats)


def test_load_looks_for_booleans_only_in_a_text_with_a_literal(monkeypatch, tmp_path, capsys):
    # "semigroup" holds a u, but a spec with no true or false among its numbers
    # skips the element check; a true among H's numbers still exits 2
    from edchan import cli

    calls, holds_bool = [], jsonio._holds_bool
    monkeypatch.setattr(jsonio, "_holds_bool", lambda v: calls.append(v) or holds_bool(v))
    path = tmp_path / "semigroup.json"
    assert cli.main(["demo", "--name", "semigroup", "--output", str(path)]) == 0
    assert cli.main(["divisibility", "--input", str(path), "--output", str(tmp_path / "div")]) == 0
    assert calls == []
    payload = json.loads(path.read_text())
    payload["H"][0][0][0] = True
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["divisibility", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: H: entries must be [re, im] pairs of numbers\n"
    assert calls


def test_load_holds_a_stored_trajectory_below_three_file_sizes(tmp_path):
    rng = np.random.default_rng(13)
    spec = random_semigroup_spec(rng, 4, 2)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 24) ** 1.5)
    path = tmp_path / "stored.json"
    path.write_text(json.dumps(trajectory_to_dict(traj)))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        data = jsonio.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plain json.load peaks near four file sizes: every float a Python object
    assert peak < 3 * size, (peak, size)
    assert len(data["maps"]) == 24
    assert all(type(m[key]) is np.ndarray
               for m in data["maps"] for key in ("phi", "omega", "B"))
    # the readers view the arrays load built, without a copy
    B = data["maps"][1]["B"]
    assert np.shares_memory(matrix_from_json(B, (4, 4), "B"), B)
    assert trajectory_from_dict(data).d_e == 4


@pytest.fixture(scope="module")
def stored_8(tmp_path_factory):
    """A d_e = 8 stored trajectory: each phi holds 4096 pair lists, past gen0's threshold of 700."""
    spec = random_semigroup_spec(np.random.default_rng(17), 8, 1)
    path = tmp_path_factory.mktemp("stored") / "stored_8.json"
    path.write_text(json.dumps(trajectory_to_dict(semigroup_trajectory(spec, [0.0, 0.5]))))
    return path


def _collections(fn, *args):
    """The cyclic collections that run during ``fn(*args)``."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(count)
    return len(starts)


def test_load_decodes_without_cyclic_collections(stored_8):
    assert gc.isenabled()
    assert _collections(jsonio.load, stored_8) == 0
    assert gc.isenabled()
    # the control: the same text decoded into lists with the collector on
    assert _collections(json.loads, stored_8.read_text()) >= 1


@pytest.mark.parametrize("case", ["valid", "truncated", "deep", "undecodable"])
def test_load_restores_the_collector(case, stored_8, tmp_path):
    path = stored_8
    if case != "valid":
        path = tmp_path / f"{case}.json"
        path.write_bytes({
            "truncated": stored_8.read_bytes()[:100000],
            "deep": b'{"type": "edmap", "phi": ' + b"[" * 100000 + b"]" * 100000 + b"}",
            "undecodable": b"\xff\xfe{}",
        }[case])
    assert gc.isenabled()
    if case == "valid":
        assert len(jsonio.load(path)["maps"]) == 2
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invalid JSON \("):
            jsonio.load(path)
    assert gc.isenabled()


def test_load_leaves_a_disabled_collector_disabled(stored_8, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    gc.disable()
    try:
        jsonio.load(stored_8)
        assert not gc.isenabled()
        with pytest.raises(ValueError, match="invalid JSON"):
            jsonio.load(deep)
        assert not gc.isenabled()
    finally:
        gc.enable()
