"""Seeded inputs and their expected labels for the benchmark workloads.

Run as a script, this writes every input file of one workload into a
directory, together with ``manifest.json`` (the op schedule and the label of
each op) and ``oracle.npz`` (full-space superoperators the output checks
need). It runs in a process of its own, so the workload process's peak
memory holds only the program's work, and it computes every label before the
timed loop starts.

Usage: python3 bench/fixtures.py WORKLOAD SEED OUTDIR

The generators are written here rather than imported from the test suite, so
an edit to the tests cannot shift the benchmark's inputs. Labels come from
independent routes: the full-space Choi matrix for CP, the full-space trace
functional for TP, and construction for planted violations and for
CP-divisibility.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from edchan import (
    EDMap,
    GKLSGenerator,
    LinearMap,
    SemigroupSpec,
    build_tp_omega,
    check_tp_condition,
    choi,
    gkls_superop,
    is_cp,
    is_cp_ed,
    K_from_spec,
    kraus_from_choi,
    psi_from_sink,
    semigroup_trajectory,
)
from edchan import cli, jsonio

TOL = 1e-9  # the CLI's default tolerance, which every op runs with
STEPS = 101  # grid points for semigroup_spec and generator_table inputs
T_MAX = 1.0

# verify_sweep. Every (d_e, d_g) slot gets each kind; d_g > 1 slots and the
# d_e = 8, d_g = 1 slot get two maps of each kind. d_g = 1 verifies run the
# Haar sampler and cost 10-100x a block-path op, and with kraus run on every
# map they are 30 of the 180 ops in a cycle (1/6), so op_s.p50 reads the
# block path and op_s.tail the sampler. The six d_e = 8 CP maps always spend
# the full sample budget, which keeps the tail inside that group whether or
# not the planted d_e = 8 maps are found early.
VERIFY_DE = (2, 4, 8)
KINDS_DG1 = ("cp_tp", "cp_not_tp", "gamma_zero")
KINDS_DGN = ("cp_tp", "cp_not_tp", "overfilled", "noncp_omega", "gamma_zero")
PLANTED_DEPTHS = (1e-3, 3e-4)
# Planted non-positive d_g = 1 maps per depth, by d_e. At d_e = 8 the sampler
# finds about half of them, so two of them would make witness_rate swing by a
# third between seeds; the d_e <= 6 maps are found within the sample budget
# (d_e = 6 needs 1e2-2e4 of the 5e4 samples), which keeps the rate steady and
# still drops it when a change samples less.
PLANTED_PER_DEPTH = {2: 2, 4: 2, 6: 4, 8: 1}


# --- random building blocks --------------------------------------------------

def rc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d, scale=1.0):
    A = rc(rng, d, d)
    return scale * (A + A.conj().T) / 2


def random_psd(rng, d, scale=1.0):
    A = rc(rng, d, d)
    return scale * (A @ A.conj().T) / d


def random_density(rng, d):
    W = random_psd(rng, d)
    return W / np.trace(W).real


def random_cp_map(rng, d_in, d_out, r=2, scale=1.0):
    ops = [scale * rc(rng, d_out, d_in) / np.sqrt(r * d_in) for _ in range(r)]
    return LinearMap.from_kraus(ops, d_in=d_in, d_out=d_out)


def random_noncp_map(rng, d_in, d_out, margin=0.05):
    m = random_cp_map(rng, d_in, d_out, 2, scale=0.8)
    probe = LinearMap.from_kraus([rc(rng, d_out, d_in) / np.sqrt(d_in)])
    while is_cp(m).min_choi_eigenvalue > -margin:
        m = m - 0.5 * probe
    return m


def random_tni_cp_map(rng, d, r=2, slack=0.9):
    ops = [rc(rng, d, d) for _ in range(r)]
    top = float(np.linalg.eigvalsh(sum(A.conj().T @ A for A in ops))[-1])
    return LinearMap.from_kraus([A * np.sqrt(slack / top) for A in ops])


def random_tp_ground_channel(rng, d_g, r=2):
    ops = [rc(rng, d_g, d_g) for _ in range(r)]
    w, V = np.linalg.eigh(sum(K.conj().T @ K for K in ops))
    T_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return LinearMap.from_kraus([K @ T_inv_half for K in ops])


def ball_B(rng, phi, fill, gamma):
    """B = sum beta_mu A_mu over phi's Kraus family with sum |beta|^2 = fill*gamma."""
    ks = kraus_from_choi(choi(phi))
    beta = rc(rng, ks.count)
    beta *= np.sqrt(fill * gamma) / np.linalg.norm(beta)
    return sum(b * A for b, A in zip(beta, ks.operators))


# --- verify_sweep maps -------------------------------------------------------

def draw_map(rng, kind, d_e, d_g):
    if kind == "cp_tp":
        phi = random_tni_cp_map(rng, d_e)
        omega = build_tp_omega(phi, random_density(rng, d_g))
        return EDMap(phi, omega, ball_B(rng, phi, rng.uniform(0.1, 0.85), 1.0), 1.0)
    if kind in ("cp_not_tp", "overfilled", "noncp_omega"):
        phi = random_cp_map(rng, d_e, d_e, int(rng.integers(1, d_e * d_e + 1)))
        omega = random_cp_map(rng, d_e, d_g, 2, scale=0.8)
        gamma = float(rng.uniform(0.3, 1.8))
        fill = rng.uniform(1.2, 3.0) if kind == "overfilled" else rng.uniform(0.1, 0.85)
        if kind == "noncp_omega":
            omega = random_noncp_map(rng, d_e, d_g)
        return EDMap(phi, omega, ball_B(rng, phi, fill, gamma), gamma)
    if kind == "gamma_zero":
        # CP iff B = 0 and phi CP; one fixed variant per d_g so every seed
        # has the same mix of verdicts.
        phi = random_noncp_map(rng, d_e, d_e) if d_g == 3 else random_cp_map(rng, d_e, d_e)
        B = rc(rng, d_e, d_e) if d_g == 2 else np.zeros((d_e, d_e), dtype=complex)
        return EDMap(phi, random_cp_map(rng, d_e, d_g), B, 0.0)
    if kind.startswith("planted_"):
        return planted_dg1(rng, d_e, float(kind.split("_")[1]))
    raise ValueError(f"unknown kind {kind!r}")


def planted_dg1(rng, d_e, depth):
    """d_g = 1 map that is not positive by construction.

    phi has full Kraus rank and B = sqrt(f gamma)|z><xi| with f chosen so the
    damped map sends |xi><xi| to an operator with <z|.|z> = -depth.
    """
    phi = random_cp_map(rng, d_e, d_e, r=d_e * d_e)
    omega = random_cp_map(rng, d_e, 1, 1)
    gamma = float(rng.uniform(0.5, 1.5))
    xi = rc(rng, d_e)
    xi /= np.linalg.norm(xi)
    z = rc(rng, d_e)
    z /= np.linalg.norm(z)
    q = float(np.real(z.conj() @ phi(np.outer(xi, xi.conj())) @ z))
    B = np.sqrt((q + depth) * gamma) * np.outer(z, xi.conj())
    return EDMap(phi, omega, B, gamma)


def margin_safe_map(rng, kind, d_e, d_g):
    """Redraw until no block Choi eigenvalue sits in the ambiguous band."""
    for _ in range(60):
        m = draw_map(rng, kind, d_e, d_g)
        rep = is_cp_ed(m, TOL)
        if not any(-1e-5 < e < -1e-11
                   for e in (rep.omega_min_eigenvalue, rep.damped_min_eigenvalue)):
            return m
    raise RuntimeError(f"no margin-safe {kind} map at d_e={d_e}, d_g={d_g}")


def full_tp(S: LinearMap) -> bool:
    """Trace preservation read from the full-space superoperator."""
    W = S.trace_functional()
    return float(np.abs(W - np.eye(S.d_in)).max()) <= TOL


def verify_plan():
    for d_e in VERIFY_DE:
        for kind in KINDS_DG1 * (2 if d_e == 8 else 1):
            yield kind, d_e, 1
        for d_g in (2, 3):
            for kind in KINDS_DGN * 2:
                yield kind, d_e, d_g
    for depth in PLANTED_DEPTHS:
        for d_e, count in PLANTED_PER_DEPTH.items():
            for _ in range(count):
                yield f"planted_{depth:g}", d_e, 1


def stored_tp(data) -> bool:
    """Every map of a stored trajectory is trace preserving."""
    return all(full_tp(jsonio.edmap_from_dict(m).to_linear_map()) for m in data["maps"])


def verify_fixtures(seed, outdir):
    rng = np.random.default_rng([seed, 1])
    ops, oracle = [], {}
    for idx, (kind, d_e, d_g) in enumerate(verify_plan()):
        m = margin_safe_map(rng, kind, d_e, d_g)
        S = m.to_linear_map()
        name = f"map{idx:03d}_{kind}_{d_e}_{d_g}"
        item = {"name": name, "path": write_json(outdir, name, jsonio.edmap_to_dict(m)),
                "d_e": d_e, "d_g": d_g, "cp": is_cp(S, TOL).is_cp, "tp": full_tp(S),
                "planted": kind.startswith("planted_")}
        if item["planted"] and item["cp"]:
            raise RuntimeError(f"{name}: planted map came out CP")
        oracle[name] = S.mat
        ops.append(op("verify", item, ["--seed", str(seed)]))
        ops.append(op("kraus", item))
    return ops, oracle


def op(command, item, args=()):
    """One scheduled CLI command with the labels its output is checked against."""
    return {"command": command, "argv": [command, "--input", item["path"], *args],
            "input": item["name"],
            "expect": {k: v for k, v in item.items() if k not in ("path", "name")}}


# --- trajectory_sweep inputs -------------------------------------------------

def random_gkls(rng, d, scale=0.6, norm_cap=1.5):
    gen = GKLSGenerator(random_hermitian(rng, d, scale), random_psd(rng, d, scale),
                        (scale * rc(rng, d, d) / np.sqrt(d),))
    s = float(np.linalg.norm(gkls_superop(gen).mat, 2))
    if s > norm_cap:
        c = norm_cap / s
        gen = GKLSGenerator(c * gen.H, c * gen.G, tuple(np.sqrt(c) * F for F in gen.F))
    return gen


def random_spec(rng, d_e, d_g, tp):
    gen = random_gkls(rng, d_e)
    c = rc(rng, 1)
    c *= np.sqrt(rng.uniform(0.0, 0.9)) / np.linalg.norm(c)
    if tp:
        psi = psi_from_sink(gen.G, random_tp_ground_channel(rng, d_g))
    else:
        psi = random_cp_map(rng, d_e, d_g, 2, scale=0.5)
    return SemigroupSpec(gen=gen, epsilon=float(rng.uniform(-0.5, 0.5)),
                         kappa=float(rng.uniform(0.0, 0.8)), c=c, psi=psi)


def generator_table(rng, d_e, d_g, samples=5):
    """Time-dependent generators sampled at a few times, all CP and TP.

    Each sample is a valid semigroup triple (L, K, psi) with one sink channel
    E; valid triples form a convex cone and the TP condition is linear, so the
    piecewise-linear interpolation the program applies stays CP-divisible and
    trace preserving.
    """
    E = random_tp_ground_channel(rng, d_g)
    eps, kappa = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 0.8))
    c = rc(rng, 1)
    c *= np.sqrt(rng.uniform(0.0, 0.9)) / np.linalg.norm(c)
    times = np.linspace(0.0, T_MAX, samples)
    L, K, psi = [], [], []
    for _ in times:
        gen = random_gkls(rng, d_e)
        spec = SemigroupSpec(gen=gen, epsilon=eps, kappa=kappa, c=c,
                             psi=psi_from_sink(gen.G, E))
        L.append(jsonio.matrix_to_json(gkls_superop(spec.gen).mat))
        K.append(jsonio.matrix_to_json(K_from_spec(spec)))
        psi.append(jsonio.matrix_to_json(spec.psi.mat))
    return {"type": "generator_table", "d_e": d_e, "d_g": d_g,
            "times": [float(t) for t in times], "L": L, "K": K, "psi": psi}


def trajectory_fixtures(seed, outdir):
    rng = np.random.default_rng([seed, 2])
    inputs = []

    def add(name, payload, d_e, d_g, divisible, tp, steps):
        path = write_json(outdir, name, payload)
        inputs.append({"name": name, "path": path, "d_e": d_e, "d_g": d_g,
                       "divisible": divisible, "tp": tp, "steps": steps,
                       "planted": False})

    # Semigroups are CP-divisible by construction. tp marks inputs whose maps
    # are trace preserving to TOL: semigroup members are exact exponentials,
    # while tables and the window go through the program's second-order
    # integrator, whose trace drifts by ~1e-5 at these step sizes.
    for d_e in (4, 6, 8):
        for d_g in (2, 3):
            spec = random_spec(rng, d_e, d_g, tp=d_g == 2)
            add(f"spec_{d_e}_{d_g}", jsonio.semigroup_spec_to_dict(spec),
                d_e, d_g, True, check_tp_condition(spec, TOL), STEPS)
    for d_e in (4, 8):
        add(f"table_{d_e}_2", generator_table(rng, d_e, 2), d_e, 2, True, False, STEPS)
    for d_e, n in ((4, 100), (8, 100)):
        # non-uniform grid, denser at early times
        grid = T_MAX * np.linspace(0.0, 1.0, n) ** 1.5
        traj = semigroup_trajectory(random_spec(rng, d_e, 3, tp=True), grid)
        add(f"stored_{d_e}_3", jsonio.trajectory_to_dict(traj), d_e, 3, True,
            all(full_tp(m.to_linear_map()) for m in traj.maps), n)
    window, data = dump_demo("noncp_divisible", outdir)
    inputs.append({"name": "window", "path": window, "d_e": 1, "d_g": 2,
                   "divisible": False, "tp": stored_tp(data), "steps": len(data["grid"]),
                   "planted": True})

    ops = []
    for item in inputs:
        args = ["--steps", str(STEPS), "--t-max", str(T_MAX)]
        ops.append(op("divisibility", item, args))
        ops.append(op("evolve", item, args))
    return ops, {}


# --- cli_cold inputs ---------------------------------------------------------

def cli_fixtures(seed, outdir):
    """The demo fixtures (d_e <= 2); the seed reaches the ops as --seed."""
    ops, oracle = [], {}
    for name in ("amplitude_damping", "phase_damping", "noncp_qubit"):
        path, data = dump_demo(name, outdir)
        S = jsonio.edmap_from_dict(data).to_linear_map()
        oracle[name] = S.mat
        item = {"name": name, "path": path, "d_e": data["d_e"], "d_g": data["d_g"],
                "cp": is_cp(S, TOL).is_cp, "tp": full_tp(S),
                # noncp_qubit: |b| > |a| makes the damped map negative
                "planted": name == "noncp_qubit"}
        ops.append(op("verify", item, ["--seed", str(seed)]))
        ops.append(op("kraus", item))
    for name, divisible in (("semigroup", True), ("noncp_divisible", False)):
        path, data = dump_demo(name, outdir)
        stored = data["type"] == "trajectory"
        tp = stored_tp(data) if stored else check_tp_condition(
            jsonio.semigroup_spec_from_dict(data), TOL)
        # evolve and divisibility sample a semigroup_spec on 50 points by default
        item = {"name": name, "path": path, "d_e": data["d_e"], "d_g": data["d_g"],
                "divisible": divisible, "tp": tp,
                "steps": len(data["grid"]) if stored else 50, "planted": not divisible}
        ops.append(op("evolve", item))
        ops.append(op("divisibility", item))
    ops.append({"command": "demo", "argv": ["demo"], "input": "demo", "expect": {}})
    return ops, oracle


def dump_demo(name, outdir):
    """Write a built-in demo fixture through the CLI; return its path and data."""
    path = os.path.join(outdir, f"{name}.json")
    if cli.main(["demo", "--name", name, "--output", path]) != 0:
        raise RuntimeError(f"demo --name {name} failed")
    with open(path, encoding="utf-8") as fh:
        return path, json.load(fh)


def write_json(outdir, name, payload):
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


BUILDERS = {
    "cli_cold": cli_fixtures,
    "verify_sweep": verify_fixtures,
    "trajectory_sweep": trajectory_fixtures,
}


def main(argv):
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    ops, oracle = BUILDERS[workload](seed, outdir)
    np.savez(os.path.join(outdir, "oracle.npz"), **oracle)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
