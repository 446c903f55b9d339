"""Command-line front end.

Subcommands: verify, kraus, evolve, divisibility, demo. Structured verdicts
go to JSON, time series to CSV. Every command is deterministic given its
input and seed. Exit codes: 0 for success or a positive verdict, 1 for a
legitimate negative verdict (map not CPTP, trajectory not CP-divisible), 2
for input or shape errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import demos, jsonio
from .channel import BlockOperator, EDMap
from .cpcheck import (
    ball_decompose,
    choi,
    explicit_kraus_ed,
    is_cp,
    is_cp_ed,
    is_positive_ed_dg1,
    is_trace_nonincreasing,
    kraus_from_choi,
    min_full_choi_eigenvalue,
)
from .channel import is_trace_preserving
from .dynamics import (build_td_trajectory, is_cp_divisible, semigroup_trajectory,
                       trajectory_observables)
from .jsonio import canonical_dumps

DEFAULT_CLI_TOL = 1e-9
VERIFY_SAMPLES = 50000


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None
    output_path: str | None
    tol: float
    t_max: float
    steps: int
    seed: int

    def __post_init__(self):
        if self.command in ("evolve", "divisibility"):
            if self.t_max <= 0:
                raise ValueError("--t-max must be positive")
            if self.steps < 2:
                raise ValueError("--steps must be at least 2")


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return float(args.tol)
    env = os.environ.get("EDCHAN_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ValueError(f"EDCHAN_TOL is not a number: {env!r}") from exc
    return DEFAULT_CLI_TOL


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _verify_report(m: EDMap, tol: float, seed: int) -> dict:
    report = is_cp_ed(m, tol)
    tp = is_trace_preserving(m, tol)

    ball = None
    phi_cp = is_cp(m.phi, tol)
    if phi_cp.is_cp:
        kraus_phi = kraus_from_choi(choi(m.phi), tol)
        bd = ball_decompose(m.B, kraus_phi, m.gamma, tol)
        ball = {"member": bd.member, "norm_sq": bd.norm_sq, "residual": bd.residual}

    positive = None
    witnesses = []
    if m.d_g == 1:
        verdict = is_positive_ed_dg1(m, samples=VERIFY_SAMPLES, tol=tol, seed=seed)
        positive = not verdict.not_positive
        if verdict.not_positive:
            witnesses.append([jsonio.complex_to_pair(z) for z in verdict.witness])

    return {
        "type": "verify_report",
        "d_e": m.d_e,
        "d_g": m.d_g,
        "gamma": float(m.gamma),
        "cp": report.cp,
        "omega_cp": report.omega_cp,
        "damped_phi_cp": report.damped_phi_cp,
        "branch": report.branch,
        "tp": tp,
        "trace_nonincreasing_phi": is_trace_nonincreasing(m.phi, tol),
        "positive": positive,
        "min_choi_eigenvalue": min_full_choi_eigenvalue(m),
        "ball": ball,
        "witnesses": witnesses,
    }


def cmd_verify(config: RunConfig) -> int:
    m = jsonio.edmap_from_dict(_load_json(config.input_path))
    report = _verify_report(m, config.tol, config.seed)
    _emit(canonical_dumps(report) + "\n", config.output_path)
    return 0 if (report["cp"] and report["tp"]) else 1


def cmd_kraus(config: RunConfig) -> int:
    m = jsonio.edmap_from_dict(_load_json(config.input_path))
    report = is_cp_ed(m, config.tol)
    if not report.cp:
        payload = {
            "type": "kraus_report",
            "cp": False,
            "omega_cp": report.omega_cp,
            "damped_phi_cp": report.damped_phi_cp,
        }
        _emit(canonical_dumps(payload) + "\n", config.output_path)
        return 1
    kraus = explicit_kraus_ed(m, config.tol)
    rebuilt = kraus.to_linear_map(d_in=m.d_e + m.d_g, d_out=m.d_e + m.d_g)
    err = float(np.abs(rebuilt.mat - m.to_linear_map().mat).max(initial=0.0))
    payload = {
        "type": "kraus_report",
        "cp": True,
        "d_e": m.d_e,
        "d_g": m.d_g,
        "count": kraus.count,
        "operators": [jsonio.matrix_to_json(A) for A in kraus.operators],
        "reconstruction_error": err,
    }
    _emit(canonical_dumps(payload) + "\n", config.output_path)
    return 0


def _trajectory_from_input(data, config: RunConfig):
    kind = data.get("type") if isinstance(data, dict) else None
    if kind == "trajectory":
        return jsonio.trajectory_from_dict(data)
    if kind == "semigroup_spec":
        spec = jsonio.semigroup_spec_from_dict(data)
        grid = np.linspace(0.0, config.t_max, config.steps)
        return semigroup_trajectory(spec, grid)
    if kind == "generator_table":
        L_fn, K_fn, psi_fn, _, _, table_t_max = jsonio.generator_table_from_dict(data)
        t_max = min(config.t_max, table_t_max)
        grid = np.linspace(0.0, t_max, config.steps)
        return build_td_trajectory(L_fn, K_fn, psi_fn, grid)
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


def cmd_evolve(config: RunConfig, initial_state_path: str | None) -> int:
    traj = _trajectory_from_input(_load_json(config.input_path), config)
    if initial_state_path:
        X0 = jsonio.block_operator_from_dict(_load_json(initial_state_path))
        if (X0.d_e, X0.d_g) != (traj.d_e, traj.d_g):
            raise ValueError("initial state dimensions do not match the trajectory")
    else:
        X0 = _default_initial_state(traj.d_e, traj.d_g)
    rows = trajectory_observables(traj, X0)
    _emit(jsonio.observables_to_csv(rows), config.output_path)
    return 0


def cmd_divisibility(config: RunConfig) -> int:
    traj = _trajectory_from_input(_load_json(config.input_path), config)
    report = is_cp_divisible(traj, config.tol)
    payload = {
        "type": "divisibility_report",
        "cp_divisible": report.cp_divisible,
        "worst_pair": list(report.worst_pair),
        "min_eigenvalue": report.min_eigenvalue,
        "grid": [float(t) for t in traj.grid],
        "step_min_eigenvalues": [float(x) for x in report.step_min_eigenvalues],
    }
    _emit(canonical_dumps(payload) + "\n", config.output_path)
    return 0 if report.cp_divisible else 1


def _demo_payloads() -> dict:
    return {
        "amplitude_damping": lambda: jsonio.edmap_to_dict(demos.amplitude_damping_qubit()),
        "phase_damping": lambda: jsonio.edmap_to_dict(demos.phase_damping_qubit()),
        "noncp_qubit": lambda: jsonio.edmap_to_dict(demos.noncp_qubit()),
        "semigroup": lambda: jsonio.semigroup_spec_to_dict(demos.demo_semigroup_spec()),
        "noncp_divisible": lambda: jsonio.trajectory_to_dict(
            demos.noncp_divisible_trajectory(),
            spec={"type": "windowed_sink", **{k: list(v) if isinstance(v, tuple) else v
                                              for k, v in demos.NONCP_WINDOW.items()}},
        ),
    }


def cmd_demo(config: RunConfig, name: str | None) -> int:
    payloads = _demo_payloads()
    if name is not None:
        if name not in payloads:
            raise ValueError(f"unknown demo {name!r}; pick one of {sorted(payloads)}")
        _emit(canonical_dumps(payloads[name]()) + "\n", config.output_path)
        return 0

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"demo {label}: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1

    ad = demos.amplitude_damping_qubit()
    rep = _verify_report(ad, config.tol, config.seed)
    check("amplitude_damping verify (cp and tp)", rep["cp"] and rep["tp"])

    bad = demos.noncp_qubit()
    rep = _verify_report(bad, config.tol, config.seed)
    check("noncp_qubit verify (tp but not cp)", rep["tp"] and not rep["cp"])

    kraus = explicit_kraus_ed(ad, config.tol)
    rebuilt = kraus.to_linear_map(d_in=2, d_out=2)
    err = float(np.abs(rebuilt.mat - ad.to_linear_map().mat).max(initial=0.0))
    check(f"amplitude_damping kraus (count {kraus.count}, error {err:.1e})", err < 1e-9)

    spec = demos.demo_semigroup_spec()
    traj = semigroup_trajectory(spec, np.linspace(0.0, 2.0, 21))
    check("semigroup divisibility", is_cp_divisible(traj, config.tol).cp_divisible)

    window = demos.noncp_divisible_trajectory()
    report = is_cp_divisible(window, config.tol)
    check(
        f"noncp_divisible rejected (min eigenvalue {report.min_eigenvalue:.2e})",
        not report.cp_divisible,
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edchan",
        description="Verify, decompose and evolve excitation-damping quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance (default 1e-9, or EDCHAN_TOL)")
        p.add_argument("--seed", type=int, default=0, help="sampler seed")

    p = sub.add_parser("verify", help="CP / TP / positivity report for a map")
    common(p)
    p = sub.add_parser("kraus", help="block Kraus operators of a CP map")
    common(p)
    p = sub.add_parser("evolve", help="CSV observables along a trajectory")
    common(p)
    p.add_argument("--t-max", type=float, default=1.0, help="final time")
    p.add_argument("--steps", type=int, default=50, help="number of grid points")
    p.add_argument("--initial-state", help="initial block operator JSON")
    p = sub.add_parser("divisibility", help="CP-divisibility report for a trajectory")
    common(p)
    p.add_argument("--t-max", type=float, default=1.0, help="final time")
    p.add_argument("--steps", type=int, default=50, help="number of grid points")
    p = sub.add_parser("demo", help="run the embedded demos, or dump one with --name")
    common(p, needs_input=False)
    p.add_argument("--name", help="demo fixture to dump as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            input_path=getattr(args, "input", None),
            output_path=args.output,
            tol=_resolve_tol(args),
            t_max=getattr(args, "t_max", 1.0),
            steps=getattr(args, "steps", 50),
            seed=args.seed,
        )
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "kraus":
            return cmd_kraus(config)
        if args.command == "evolve":
            return cmd_evolve(config, getattr(args, "initial_state", None))
        if args.command == "divisibility":
            return cmd_divisibility(config)
        if args.command == "demo":
            return cmd_demo(config, args.name)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
