"""File formats: JSON schemas for maps, specs and trajectories, CSV export.

Complex numbers are encoded as two-element arrays [re, im]; a vector is a
list of such pairs and a matrix a list of rows of them. JSON reports are
emitted canonically: keys sorted, floats printed with 17 significant digits,
so repeated runs are byte-identical. See docs/formats.md for the full schemas.
"""

from __future__ import annotations

import json
from operator import index

import numpy as np

from .channel import BlockOperator, EDMap, LinearMap
from .dynamics import ChannelTrajectory, GKLSGenerator, SemigroupSpec, _check_grid


def matrix_to_json(M) -> list:
    """Any complex array as nested lists with each entry an [re, im] pair."""
    A = np.asarray(M, dtype=complex)
    return np.stack([A.real, A.imag], -1).tolist()


def _complex_array(data, ndim: int, name: str) -> np.ndarray:
    """Nested [re, im] pairs as a complex array of ``ndim`` axes (``[]``: no pairs)."""
    try:
        A = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: entries must be [re, im] pairs") from exc
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


def _dims(data: dict, what: str) -> tuple:
    return _field(data, "d_e", _dimension, what), _field(data, "d_g", _dimension, what)


def _floats(v) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(-1)


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
        gamma=_field(data, "gamma", float, "excitation-damping map"),
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
        epsilon=_field(data, "epsilon", float, what),
        kappa=_field(data, "kappa", float, what),
        c=_complex_array(data["c"], 1, "c"),
        psi=LinearMap(matrix_from_json(data["psi"], (d_g * d_g, d_e * d_e), "psi")),
    )


def generator_table_from_dict(data):
    """Piecewise-linear generator suppliers from a sampled table.

    Returns (L_fn, K_fn, psi_fn, d_e, d_g, t_max). The table must sample all
    three generators on a common strictly increasing time grid starting at 0.
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
    n = times.size
    L, K, psi = (_field(data, key, list, what) for key in ("L", "K", "psi"))
    if not (len(L) == len(K) == len(psi) == n):
        raise ValueError("generator table: need one L, K, psi sample per time")
    Ls = np.stack([matrix_from_json(M, (d_e * d_e, d_e * d_e), "L") for M in L])
    Ks = np.stack([matrix_from_json(M, (d_e, d_e), "K") for M in K])
    psis = np.stack([matrix_from_json(M, (d_g * d_g, d_e * d_e), "psi") for M in psi])

    def interpolate(stack):
        def fn(t):
            t = float(np.clip(t, times[0], times[-1]))
            i = int(np.searchsorted(times, t, side="right") - 1)
            i = min(i, n - 2)
            lam = (t - times[i]) / (times[i + 1] - times[i])
            return (1 - lam) * stack[i] + lam * stack[i + 1]
        return fn

    return (interpolate(Ls), interpolate(Ks), interpolate(psis),
            d_e, d_g, float(times[-1]))


def trajectory_to_dict(traj: ChannelTrajectory, spec: dict | None = None) -> dict:
    """Trajectory manifest; ``spec`` optionally records how it was generated."""
    out = {
        "type": "trajectory",
        "d_e": traj.d_e,
        "d_g": traj.d_g,
        "grid": [float(t) for t in traj.grid],
        "maps": [edmap_to_dict(m) for m in traj.maps],
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


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def canonical_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [canonical_dumps(x, indent + 1) for x in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            parts.append(f"{inner}{json.dumps(key)}: "
                         f"{canonical_dumps(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


CSV_COLUMNS = ("t", "trace_ee", "trace_gg", "coherence_norm",
               "total_trace", "min_propagator_choi_eigenvalue")


def observables_to_csv(rows) -> str:
    """Render trajectory observable rows as deterministic CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_float(float(row[c])) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
