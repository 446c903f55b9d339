"""Command-line front end.

Subcommands: verify, kraus, evolve, divisibility, demo. Structured verdicts
go to JSON, time series to CSV. Every command is deterministic given its
input (and, for verify, its seed). Exit codes: 0 for success or a positive
verdict, 1 for a legitimate negative verdict (map not CPTP, trajectory not
CP-divisible), 2 for input or shape errors and for running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import demos, jsonio
from .channel import BlockOperator, EDMap, is_trace_preserving
from .cpcheck import (
    NotCompletelyPositiveError,
    ball_decompose,
    choi,
    explicit_kraus_ed,
    is_trace_nonincreasing,
    kraus_from_choi,
    positivity_ed,
)
from .dynamics import (_check_grid, _midpoint_trajectory, is_cp_divisible,
                       semigroup_trajectory, trajectory_observables)
from .jsonio import canonical_dumps
from .matcore import DEFAULT_TOL

VERIFY_SAMPLES = 1000


def _resolve_tol(args) -> float:
    source, raw = "--tol", args.tol
    if raw is None:
        source, raw = "EDCHAN_TOL", os.environ.get("EDCHAN_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"{source} is not a number: {raw!r}") from exc
    # a NaN tolerance fails every comparison and would read as a negative verdict
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"{source} must be finite and non-negative, got {raw}")
    return tol


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_report(m: EDMap, tol: float, seed: int) -> dict:
    verdict = positivity_ed(m, tol, VERIFY_SAMPLES, seed)
    report = verdict.cp

    try:  # phi's canonical Kraus family, which exists only if phi is CP within tol
        phi_kraus = kraus_from_choi(choi(m.phi), tol)
    except ValueError:
        phi_kraus = None
    ball = None
    if phi_kraus is not None:
        bd = ball_decompose(m.B, phi_kraus, m.gamma, tol)
        if np.isfinite([bd.norm_sq, bd.residual]).all():  # JSON holds no inf
            ball = {"member": bd.member, "norm_sq": bd.norm_sq, "residual": bd.residual}

    return {
        "type": "verify_report",
        "d_e": m.d_e,
        "d_g": m.d_g,
        "gamma": float(m.gamma),
        "cp": report.cp,
        "omega_cp": report.omega_cp,
        "damped_phi_cp": report.damped_phi_cp,
        "branch": report.branch,
        "tp": is_trace_preserving(m, tol),
        "trace_nonincreasing_phi": is_trace_nonincreasing(m.phi, tol),
        "positive": verdict.positive,
        "min_choi_eigenvalue": report.min_full_choi_eigenvalue,
        "ball": ball,
        "witnesses": [] if verdict.witness is None else [jsonio.matrix_to_json(verdict.witness)],
    }


def _reconstruction_error(m: EDMap, operators) -> float:
    """Max-entry deviation of the Kraus family's superoperator from the map's.

    ``operators`` is the family as one (count, d, d) array. Compares, block by
    block, the family's action on the matrix units,
    ``T[a, b, i, j] = sum_mu A_mu[a, i] conj(A_mu[b, j])`` (the coefficient of
    ``X[i, j]`` in the image's entry ``[a, b]``), with the action the blocks
    give: phi on ee -> ee, omega on ee -> gg, ``B X`` on eg, ``X B†`` on ge,
    ``gamma X`` on gg, and zero between every other pair of blocks.
    """
    e = m.d_e
    T = np.einsum("mai,mbj->abij", operators, operators.conj(), optimize=True)
    # column-stacked superoperators: row a + n b, column i + n j
    T[:e, :e, :e, :e] -= m.phi.mat.reshape(e, e, e, e).transpose(1, 0, 3, 2)
    T[e:, e:, :e, :e] -= m.omega.mat.reshape(m.d_g, m.d_g, e, e).transpose(1, 0, 3, 2)
    I_g = np.eye(m.d_g)
    T[:e, e:, :e, e:] -= np.einsum("ai,bj->abij", m.B, I_g)
    T[e:, :e, e:, :e] -= np.einsum("ai,bj->abij", I_g, m.B.conj())
    T[e:, e:, e:, e:] -= m.gamma * np.einsum("ai,bj->abij", I_g, I_g)
    return float(np.abs(T).max(initial=0.0))


def cmd_verify(args) -> int:
    m = jsonio.edmap_from_dict(jsonio.load(args.input))
    report = _verify_report(m, args.tol, args.seed)
    _emit(canonical_dumps(report) + "\n", args.output)
    return 0 if (report["cp"] and report["tp"]) else 1


def cmd_kraus(args) -> int:
    m = jsonio.edmap_from_dict(jsonio.load(args.input))
    try:
        kraus = explicit_kraus_ed(m, args.tol)
    except NotCompletelyPositiveError as exc:
        payload = {
            "type": "kraus_report",
            "cp": False,
            "omega_cp": exc.report.omega_cp,
            "damped_phi_cp": exc.report.damped_phi_cp,
        }
        _emit(canonical_dumps(payload) + "\n", args.output)
        return 1
    payload = {
        "type": "kraus_report",
        "cp": True,
        "d_e": m.d_e,
        "d_g": m.d_g,
        "count": kraus.count,
        "operators": jsonio.matrix_to_json(kraus.operators),
        "reconstruction_error": _reconstruction_error(m, kraus.operators),
    }
    _emit(canonical_dumps(payload) + "\n", args.output)
    return 0


def _trajectory_from_input(args):
    if not (np.isfinite(args.t_max) and args.t_max > 0):
        raise ValueError("--t-max must be finite and positive")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    data = jsonio.load(args.input)
    kind = data.get("type") if isinstance(data, dict) else None
    if kind == "trajectory":
        return jsonio.trajectory_from_dict(data)
    if kind == "semigroup_spec":
        spec = jsonio.semigroup_spec_from_dict(data)
        grid = np.linspace(0.0, args.t_max, args.steps)
        return semigroup_trajectory(spec, grid)
    if kind == "generator_table":
        table = jsonio.generator_table_from_dict(data)
        grid = np.linspace(0.0, min(args.t_max, float(table.times[-1])), args.steps)
        _check_grid(grid)
        return _midpoint_trajectory(grid, table.at, table.d_e, table.d_g)
    raise ValueError(
        "input must declare type trajectory, semigroup_spec or generator_table"
    )


def _default_initial_state(d_e: int, d_g: int) -> BlockOperator:
    # equal superposition of the first excited and first ground level
    chi = np.zeros(d_e + d_g, dtype=complex)
    chi[0] = 1.0
    chi[d_e] = 1.0
    chi /= np.linalg.norm(chi)
    return BlockOperator.from_full(np.outer(chi, chi.conj()), d_e, d_g)


def cmd_evolve(args) -> int:
    # the state is read first, so a malformed one fails before the input is decoded;
    # trajectory_observables checks its sectors against the maps'
    X0 = None
    if args.initial_state:
        X0 = jsonio.block_operator_from_dict(jsonio.load(args.initial_state))
    traj = _trajectory_from_input(args)
    rows = trajectory_observables(traj, X0 or _default_initial_state(traj.d_e, traj.d_g))
    _emit(jsonio.observables_to_csv(rows), args.output)
    return 0


def cmd_divisibility(args) -> int:
    traj = _trajectory_from_input(args)
    report = is_cp_divisible(traj, args.tol)
    payload = {
        "type": "divisibility_report",
        "cp_divisible": report.cp_divisible,
        "worst_pair": report.worst_pair,
        "min_eigenvalue": report.min_eigenvalue,
        "grid": [float(t) for t in traj.grid],
        "step_min_eigenvalues": [float(x) for x in report.step_min_eigenvalues],
    }
    _emit(canonical_dumps(payload) + "\n", args.output)
    return 0 if report.cp_divisible else 1


def _demo_payloads() -> dict:
    return {
        "amplitude_damping": lambda: jsonio.edmap_to_dict(demos.amplitude_damping_qubit()),
        "phase_damping": lambda: jsonio.edmap_to_dict(demos.phase_damping_qubit()),
        "noncp_qubit": lambda: jsonio.edmap_to_dict(demos.noncp_qubit()),
        "semigroup": lambda: jsonio.semigroup_spec_to_dict(demos.demo_semigroup_spec()),
        "noncp_divisible": lambda: jsonio.trajectory_to_dict(
            demos.noncp_divisible_trajectory(),
            spec={"type": "windowed_sink", **demos.NONCP_WINDOW},
        ),
    }


def cmd_demo(args) -> int:
    payloads = _demo_payloads()
    if args.name is not None:
        if args.name not in payloads:
            raise ValueError(f"unknown demo {args.name!r}; pick one of {sorted(payloads)}")
        _emit(canonical_dumps(payloads[args.name]()) + "\n", args.output)
        return 0

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"demo {label}: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1

    ad = demos.amplitude_damping_qubit()
    rep = _verify_report(ad, args.tol, 0)
    check("amplitude_damping verify (cp and tp)", rep["cp"] and rep["tp"])

    bad = demos.noncp_qubit()
    rep = _verify_report(bad, args.tol, 0)
    check("noncp_qubit verify (tp but not cp)", rep["tp"] and not rep["cp"])

    kraus = explicit_kraus_ed(ad, args.tol)
    err = _reconstruction_error(ad, kraus.operators)
    check(f"amplitude_damping kraus (count {kraus.count}, error {err:.1e})", err < 1e-9)

    spec = demos.demo_semigroup_spec()
    traj = semigroup_trajectory(spec, np.linspace(0.0, 2.0, 21))
    check("semigroup divisibility", is_cp_divisible(traj, args.tol).cp_divisible)

    window = demos.noncp_divisible_trajectory()
    report = is_cp_divisible(window, args.tol)
    check(
        f"noncp_divisible rejected (min eigenvalue {report.min_eigenvalue:.2e})",
        not report.cp_divisible,
    )
    return 0 if failures == 0 else 1


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edchan",
        description="Verify, decompose and evolve excitation-damping quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, needs_input=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance (default 1e-9, or EDCHAN_TOL)")
        return p

    command("verify", cmd_verify, "CP / TP / positivity report for a map").add_argument(
        "--seed", type=int, default=0,
        help="positivity search seed (d_g = 1; a CP map is positive without a search)")
    command("kraus", cmd_kraus, "block Kraus operators of a CP map")
    evolve = command("evolve", cmd_evolve, "CSV observables along a trajectory")
    for p in (evolve, command("divisibility", cmd_divisibility,
                              "CP-divisibility report for a trajectory")):
        p.add_argument("--t-max", type=float, default=1.0, help="final time")
        p.add_argument("--steps", type=int, default=50, help="number of grid points")
    evolve.add_argument("--initial-state", help="initial block operator JSON")
    command("demo", cmd_demo, "run the embedded demos, or dump one with --name",
            needs_input=False).add_argument("--name", help="demo fixture to dump as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _resolve_tol(args)
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:  # running out of memory is not a verdict
        print(f"error: {exc}" if str(exc) else f"error: {type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
