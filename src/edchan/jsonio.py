"""File formats: JSON schemas for maps, specs and trajectories, CSV export.

Complex numbers are encoded as two-element arrays [re, im]; a vector is a
list of such pairs and a matrix a list of rows of them. JSON reports are the
bytes of ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``:
keys sorted, floats as their shortest round-trip repr, exact to the bit (the
sign of -0.0 and the float type of 1.0 kept). ``canonical_dumps`` writes
them itself, each list of floats or of [re, im] pairs with one join. ``load``
turns each matrix field into a float array as the decoder closes its object,
so a stored trajectory never sits in memory as nested lists; a matrix entry
that is a string or a boolean is an input error. The decode runs with cyclic
garbage collection paused process-wide, the caller's state restored after it.
See docs/formats.md for the schemas.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import index

import numpy as np

from .channel import BlockOperator, EDMap, LinearMap
from .dynamics import (ChannelTrajectory, GeneratorTable, GKLSGenerator, SemigroupSpec,
                       _check_grid)


def matrix_to_json(M) -> list:
    """Any complex array as nested lists with each entry an [re, im] pair."""
    A = np.asarray(M, dtype=complex)
    return np.stack([A.real, A.imag], -1).tolist()


# Keys whose values are complex matrices (or a vector, or lists of matrices).
MATRIX_FIELDS = frozenset("phi omega B H G F c psi L K matrix".split())


def _holds_bool(v) -> bool:
    """True iff a rectangular nested list holds a boolean, which numpy would read as 1.0 or 0.0."""
    return any(isinstance(x, bool) for x in np.asarray(v, dtype=object).flat)


def _matrix_fields(obj: dict, exact: bool) -> dict:
    """Object hook: each list under a matrix key as the float array the readers build.

    A value the conversion rejects is left as decoded, so the schema reader
    reports it exactly as it reports plain ``json.load`` output. Booleans
    mixed with numbers are looked for only when ``exact``.
    """
    for key in MATRIX_FIELDS.intersection(obj):
        if isinstance(obj[key], list):
            try:
                A = np.array(obj[key])
            except ValueError:  # ragged
                continue
            if A.dtype.kind in "fi" and not (exact and _holds_bool(obj[key])):
                obj[key] = A.astype(float, copy=False)
    return obj


def load(path):
    """Decode a JSON input file, its matrix fields as float arrays (see ``_matrix_fields``).

    The decode runs with cyclic garbage collection paused. Its output is a
    tree, so reference counting frees every list the hook replaces, and the
    collector would only rescan them. The caller's state is restored on every
    exit, and a collector that was off stays off. The pause is process-wide:
    another thread's load that overlaps this one may run partly with the
    collector on, which changes its speed but not its result.

    Bytes that are not UTF-8, text that is not JSON and nesting deeper than
    the decoder's recursion limit are ``<path>: invalid JSON (...)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # a boolean is the literal true or false; the one-letter searches first
        # keep the slower literal search off a large text with neither letter
        exact = ("u" in text and "true" in text) or ("f" in text and "false" in text)
        collecting = gc.isenabled()
        gc.disable()
        try:
            return json.loads(text, object_hook=lambda obj: _matrix_fields(obj, exact))
        finally:
            if collecting:
                gc.enable()
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _complex_array(data, ndim: int, name: str) -> np.ndarray:
    """Nested [re, im] pairs as a complex array of ``ndim`` axes (``[]``: no pairs)."""
    try:
        # no copy of an array that ``load`` has built
        A = np.asarray(data)
    except ValueError as exc:  # ragged
        raise ValueError(f"{name}: entries must be [re, im] pairs") from exc
    # strings, booleans, null and integers beyond int64 give another dtype;
    # ``load``'s arrays have had their booleans looked for already
    if A.dtype.kind not in "fi" or (A is not data and _holds_bool(data)):
        raise ValueError(f"{name}: entries must be [re, im] pairs of numbers")
    A = A.astype(float, copy=False)
    if A.shape == (0,):
        A = A.reshape(0, 2)
    if A.ndim != ndim + 1 or A.shape[-1] != 2:
        raise ValueError(f"{name}: entries must be [re, im] pairs")
    # a view keeps every bit, the sign of -0.0 included
    return A.view(complex)[..., 0]


def matrix_from_json(data, shape=None, name: str = "matrix") -> np.ndarray:
    A = _complex_array(data, 2, name)
    if shape is not None and A.shape != tuple(shape):
        raise ValueError(f"{name}: expected shape {tuple(shape)}, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name}: entries must be finite")
    return A


def _require_keys(data: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")


def _field(data: dict, key: str, kind, what: str):
    """``kind(data[key])``; a value of the wrong type is a ValueError naming ``key``."""
    try:
        return kind(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {key} has the wrong type or value ({exc})") from exc


def _dimension(value) -> int:
    n = index(value)
    if isinstance(value, bool) or n < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return n


def _real(value) -> float:
    if isinstance(value, (bool, str)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _dims(data: dict, what: str) -> tuple:
    return _field(data, "d_e", _dimension, what), _field(data, "d_g", _dimension, what)


def _floats(v) -> np.ndarray:
    A = np.asarray(v)
    if A.dtype.kind not in "fi" or _holds_bool(v):
        raise ValueError("must be an array of numbers")
    return A.astype(float).reshape(-1)


def edmap_to_dict(m: EDMap) -> dict:
    return {
        "type": "edmap",
        "d_e": m.d_e,
        "d_g": m.d_g,
        "phi": matrix_to_json(m.phi.mat),
        "omega": matrix_to_json(m.omega.mat),
        "B": matrix_to_json(m.B),
        "gamma": float(m.gamma),
    }


def edmap_from_dict(data) -> EDMap:
    if not isinstance(data, dict):
        raise ValueError("excitation-damping map: expected a JSON object")
    _require_keys(data, ["d_e", "d_g", "phi", "omega", "B", "gamma"],
                  "excitation-damping map")
    d_e, d_g = _dims(data, "excitation-damping map")
    return EDMap(
        phi=LinearMap(matrix_from_json(data["phi"], (d_e * d_e, d_e * d_e), "phi")),
        omega=LinearMap(matrix_from_json(data["omega"], (d_g * d_g, d_e * d_e), "omega")),
        B=matrix_from_json(data["B"], (d_e, d_e), "B"),
        gamma=_field(data, "gamma", _real, "excitation-damping map"),
    )


def semigroup_spec_to_dict(spec: SemigroupSpec) -> dict:
    return {
        "type": "semigroup_spec",
        "d_e": spec.d_e,
        "d_g": spec.d_g,
        "H": matrix_to_json(spec.gen.H),
        "G": matrix_to_json(spec.gen.G),
        "F": [matrix_to_json(Fm) for Fm in spec.gen.F],
        "epsilon": float(spec.epsilon),
        "kappa": float(spec.kappa),
        "c": matrix_to_json(spec.c),
        "psi": matrix_to_json(spec.psi.mat),
    }


def semigroup_spec_from_dict(data) -> SemigroupSpec:
    if not isinstance(data, dict):
        raise ValueError("semigroup spec: expected a JSON object")
    _require_keys(data, ["d_e", "d_g", "H", "G", "F", "epsilon", "kappa", "c", "psi"],
                  "semigroup spec")
    what = "semigroup spec"
    d_e, d_g = _dims(data, what)
    gen = GKLSGenerator(
        H=matrix_from_json(data["H"], (d_e, d_e), "H"),
        G=matrix_from_json(data["G"], (d_e, d_e), "G"),
        F=tuple(matrix_from_json(Fm, (d_e, d_e), "F")
                for Fm in _field(data, "F", list, what)),
    )
    return SemigroupSpec(
        gen=gen,
        epsilon=_field(data, "epsilon", _real, what),
        kappa=_field(data, "kappa", _real, what),
        c=_complex_array(data["c"], 1, "c"),
        psi=LinearMap(matrix_from_json(data["psi"], (d_g * d_g, d_e * d_e), "psi")),
    )


def generator_table_from_dict(data) -> GeneratorTable:
    """A sampled generator table as a :class:`GeneratorTable`.

    The table must sample all three generators on a common strictly
    increasing time grid starting at 0.
    """
    if not isinstance(data, dict):
        raise ValueError("generator table: expected a JSON object")
    what = "generator table"
    _require_keys(data, ["d_e", "d_g", "times", "L", "K", "psi"], what)
    d_e, d_g = _dims(data, what)
    times = _field(data, "times", _floats, what)
    if times.size < 2:
        raise ValueError("generator table: times needs at least two samples")
    _check_grid(times, "generator table: times")
    shapes = {"L": (d_e * d_e, d_e * d_e), "K": (d_e, d_e), "psi": (d_g * d_g, d_e * d_e)}
    samples = {key: _field(data, key, list, what) for key in shapes}
    if any(len(v) != times.size for v in samples.values()):
        raise ValueError("generator table: need one L, K, psi sample per time")
    return GeneratorTable(times, *(np.stack([matrix_from_json(M, shapes[key], key) for M in v])
                                   for key, v in samples.items()))


def trajectory_to_dict(traj: ChannelTrajectory, spec: dict | None = None) -> dict:
    """Trajectory manifest; ``spec`` optionally records how it was generated.

    The maps are formed one at a time from ``traj._edmaps()``, each turned
    into its dict before the next is formed, so no tuple of maps is held.
    """
    out = {
        "type": "trajectory",
        "d_e": traj.d_e,
        "d_g": traj.d_g,
        "grid": [float(t) for t in traj.grid],
        "maps": [edmap_to_dict(m) for m in traj._edmaps()],
    }
    if spec is not None:
        out["spec"] = spec
    return out


def trajectory_from_dict(data) -> ChannelTrajectory:
    if not isinstance(data, dict):
        raise ValueError("trajectory: expected a JSON object")
    _require_keys(data, ["d_e", "d_g", "grid", "maps"], "trajectory")
    dims = _dims(data, "trajectory")
    grid = _field(data, "grid", _floats, "trajectory")
    maps = tuple(edmap_from_dict(m) for m in _field(data, "maps", list, "trajectory"))
    traj = ChannelTrajectory(grid, maps)
    if (traj.d_e, traj.d_g) != dims:
        raise ValueError(f"trajectory: maps have (d_e, d_g) = {(traj.d_e, traj.d_g)}, "
                         f"but it declares {dims}")
    return traj


def block_operator_from_dict(data) -> BlockOperator:
    if not isinstance(data, dict):
        raise ValueError("initial state: expected a JSON object")
    _require_keys(data, ["d_e", "d_g", "matrix"], "initial state")
    d_e, d_g = _dims(data, "initial state")
    d = d_e + d_g
    return BlockOperator.from_full(
        matrix_from_json(data["matrix"], (d, d), "initial state matrix"), d_e, d_g
    )


def block_operator_to_dict(X: BlockOperator) -> dict:
    return {
        "type": "block_operator",
        "d_e": X.d_e,
        "d_g": X.d_g,
        "matrix": matrix_to_json(X.full()),
    }


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return x


def _format_float(x: float) -> str:
    return f"{_finite(x):.17g}"


def _float_text(x: float) -> str:
    return float.__repr__(_finite(x))


def _float_list_text(items, nl: str):
    """A nonempty list of floats, or of [float, float] pairs, as JSON at line prefix ``nl``.

    Returns None for any other list, which the general walk writes.
    """
    inner = nl + "  "
    if isinstance(items[0], float):
        head, sep, tail = "[" + inner, "," + inner, nl + "]"
        reprs = map(float.__repr__, items)
    elif set(map(type, items)) <= {list, tuple} and set(map(len, items)) == {2}:
        pair = inner + "  "
        head, sep = "[" + inner + "[" + pair, inner + "]," + inner + "[" + pair
        tail = inner + "]" + nl + "]"
        floats = map(float.__repr__, chain.from_iterable(items))
        reprs = map(("," + pair).join, zip(floats, floats))
    else:
        return None
    try:
        text = head + sep.join(reprs) + tail
    except TypeError:  # an entry that is not a float
        return None
    # float reprs hold no letter n but those of inf and nan
    if "n" in text:
        raise ValueError("cannot serialize non-finite float")
    return text


def _write(obj, nl: str, out) -> None:
    """Append the JSON text of ``obj``, whose lines start with ``nl``, to ``out``."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        out(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        text = _float_list_text(obj, nl)
        if text is not None:
            out(text)
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """Byte-deterministic JSON, exact to the bit; NaN and infinities raise ValueError.

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)``, which runs the standard library's pure-Python encoder
    because of ``indent``. This walk writes each list of floats or of
    [float, float] pairs, every matrix row of ``matrix_to_json``, with one join.
    """
    chunks = []
    _write(obj, "\n", chunks.append)
    return "".join(chunks)


CSV_COLUMNS = ("t", "trace_ee", "trace_gg", "coherence_norm",
               "total_trace", "min_propagator_choi_eigenvalue")


def observables_to_csv(rows) -> str:
    """Render trajectory observable rows as CSV text, floats at 17 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_float(float(row[c])) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
