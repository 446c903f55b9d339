"""Output checks, one per CLI command.

Each check reads what the program printed or wrote and compares it with the
labels in the manifest and with the full-space superoperators in the oracle
file. ``check`` returns a failure reason (None when the output is right) and,
for an input with a planted violation, whether the program certified it.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9  # the CLI's default tolerance
# A verify witness must make an output eigenvalue negative (docs/formats.md:
# "state vectors whose projectors map to non-PSD outputs"). The outputs are
# O(1) matrices of side <= 11, so 1e-12 is about a thousand times the
# eigensolver's roundoff.
WITNESS_MARGIN = 1e-12
KRAUS_ERROR_LIMIT = 1e-9
CSV_HEADER = "t,trace_ee,trace_gg,coherence_norm,total_trace,min_propagator_choi_eigenvalue"
DEMO_LINES = 5


def check(op: dict, code, text: str, oracle) -> tuple[str | None, bool | None]:
    if code is None:
        return text, None  # the op raised; text holds the exception
    if code == 2:
        return "exit code 2 (input or shape error)", None
    try:
        return CHECKS[op["command"]](op["expect"], code, text, oracle, op["input"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}", None


def min_output_eigenvalue(S: np.ndarray, chi: np.ndarray) -> float:
    """Smallest eigenvalue of S(|chi><chi|), S acting on column-stacked operators."""
    d = chi.size
    X = np.outer(chi, chi.conj())
    Y = (S @ X.reshape(-1, order="F")).reshape(d, d, order="F")
    return float(np.linalg.eigvalsh((Y + Y.conj().T) / 2)[0])


def check_verify(e, code, text, oracle, name):
    rep = json.loads(text)
    if rep["type"] != "verify_report":
        return f"report type {rep['type']!r}", None
    if rep["cp"] != e["cp"]:
        return f"cp {rep['cp']}, full-Choi oracle says {e['cp']}", None
    if rep["tp"] != e["tp"]:
        return f"tp {rep['tp']}, oracle says {e['tp']}", None
    want = 0 if e["cp"] and e["tp"] else 1
    if code != want:
        return f"exit code {code}, expected {want}", None
    witnesses = rep["witnesses"]
    if witnesses and e["cp"]:
        return "witness returned for a CP map", None
    for w in witnesses:
        chi = np.array([complex(re, im) for re, im in w])
        lam = min_output_eigenvalue(oracle[name], chi)
        if not lam < -WITNESS_MARGIN:
            return f"witness does not certify (output eigenvalue {lam:.3e})", None
    if e["d_g"] == 1 and rep["positive"] is not (not witnesses):
        return f"positive {rep['positive']} with {len(witnesses)} witnesses", None
    return None, bool(witnesses) if e["planted"] else None


def check_kraus(e, code, text, oracle, name):
    rep = json.loads(text)
    if rep["cp"] != e["cp"]:
        return f"cp {rep['cp']}, full-Choi oracle says {e['cp']}", None
    if code != (0 if e["cp"] else 1):
        return f"exit code {code}", None
    if not e["cp"]:
        return None, None
    if not rep["reconstruction_error"] <= KRAUS_ERROR_LIMIT:
        return f"reconstruction_error {rep['reconstruction_error']:.3e}", None
    ops = [np.array([[complex(re, im) for re, im in row] for row in A])
           for A in rep["operators"]]
    rebuilt = sum(np.kron(A.conj(), A) for A in ops)
    err = float(np.abs(rebuilt - oracle[name]).max())
    if not err <= KRAUS_ERROR_LIMIT:
        return f"operators rebuild the map with error {err:.3e}", None
    return None, None


def check_evolve(e, code, text, oracle, name):
    if code != 0:
        return f"exit code {code}", None
    lines = text.splitlines()
    if lines[0] != CSV_HEADER:
        return f"CSV header {lines[0]!r}", None
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.shape != (e["steps"], 6):
        return f"CSV shape {rows.shape}, expected ({e['steps']}, 6)", None
    if not np.all(np.isfinite(rows)):
        return "non-finite CSV value", None
    if e["tp"]:
        dev = float(np.abs(rows[:, 4] - 1.0).max())
        if not dev <= TOL:
            return f"total_trace deviates from 1 by {dev:.3e}", None
    return None, None


def check_divisibility(e, code, text, oracle, name):
    rep = json.loads(text)
    want = 0 if e["divisible"] else 1
    if code != want or rep["cp_divisible"] != e["divisible"]:
        return f"exit code {code}, cp_divisible {rep['cp_divisible']}, expected {want}", None
    if len(rep["grid"]) != e["steps"] or len(rep["step_min_eigenvalues"]) != e["steps"] - 1:
        return f"{len(rep['grid'])} grid points, expected {e['steps']}", None
    if not e["planted"]:
        return None, None
    return None, (not rep["cp_divisible"]) and rep["min_eigenvalue"] < -TOL


def check_demo(e, code, text, oracle, name):
    lines = text.splitlines()
    if code != 0 or len(lines) != DEMO_LINES or not all(l.endswith(": ok") for l in lines):
        return f"demo exit code {code}, output {lines!r}", None
    return None, None


CHECKS = {
    "verify": check_verify,
    "kraus": check_kraus,
    "evolve": check_evolve,
    "divisibility": check_divisibility,
    "demo": check_demo,
}
