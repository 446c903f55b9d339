"""Built-in demo instances, embedded so the CLI demo command needs no files."""

from __future__ import annotations

import numpy as np

from .channel import EDMap, LinearMap, qubit_map
from .dynamics import (
    ChannelTrajectory,
    GKLSGenerator,
    SemigroupSpec,
    build_td_trajectory,
    psi_from_sink,
)
from .matcore import vectorize


def amplitude_damping_qubit() -> EDMap:
    """Amplitude-damping channel with survival amplitude 0.8 (CP and TP)."""
    return qubit_map(0.8, 0.8, np.sqrt(1.0 - 0.8 ** 2), 1.0)


def phase_damping_qubit() -> EDMap:
    """Phase-damping channel: populations frozen, coherence shrunk by 0.7."""
    return qubit_map(1.0, 0.7, 0.0, 1.0)


def noncp_qubit() -> EDMap:
    """Trace preserving but not completely positive: coherence 0.9 exceeds amplitude 0.8."""
    return qubit_map(0.8, 0.9, np.sqrt(1.0 - 0.8 ** 2), 1.0)


def demo_semigroup_spec() -> SemigroupSpec:
    """A qutrit-excited, qubit-ground trace-preserving semigroup.

    Two excited levels decay into a two-dimensional ground sector through a
    rank-two loss operator; one internal jump operator mixes the excited
    levels, and a nonzero kappa damps the coherence block.
    """
    H = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=complex)
    G = np.array([[0.5, 0.1], [0.1, 0.3]], dtype=complex)
    F = np.array([[0.0, 0.4], [0.0, 0.0]], dtype=complex)
    gen = GKLSGenerator(H=H, G=G, F=(F,))
    # ground-sector sink: relax everything onto the first ground level
    omega_state = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    E = LinearMap(np.outer(vectorize(omega_state), vectorize(np.eye(2))))  # tr(X) omega_state
    psi = psi_from_sink(G, E)
    return SemigroupSpec(gen=gen, epsilon=0.3, kappa=0.4,
                         c=np.array([0.5 + 0.2j]), psi=psi)


def windowed_sink_trajectory(decay_rate: float, delta: float,
                             window: tuple, t_max: float,
                             steps: int) -> ChannelTrajectory:
    """Decaying excited level with a briefly mis-steered ground sink.

    d_e = 1, d_g = 2. The excited block decays at ``decay_rate``; the ground
    feed is psi_t(x) = x * R(t) with R(t) interpolating smoothly between a
    PSD sink target and the trace-one but non-PSD target
    diag(-delta, 1 + delta) inside the given time window. The cumulative
    omega_t can stay CP across the whole grid while the window propagators
    are not CP.
    """
    g = float(decay_rate)
    t0, t1 = window
    good = np.diag([1.0, 0.0]).astype(complex)
    bad = np.diag([-delta, 1.0 + delta]).astype(complex)

    def bump(t: float) -> float:
        if t <= t0 or t >= t1:
            return 0.0
        return float(np.sin(np.pi * (t - t0) / (t1 - t0)) ** 2)

    def L_fn(t):
        return np.array([[-g]], dtype=complex)

    def K_fn(t):
        return np.array([[-g / 2]], dtype=complex)

    def psi_fn(t):
        u = bump(t)
        R = g * ((1.0 - u) * good + u * bad)
        return R.T.reshape(-1, 1)  # column-stacked R as a (d_g^2 x 1) superoperator

    grid = np.linspace(0.0, float(t_max), int(steps) + 1)
    return build_td_trajectory(L_fn, K_fn, psi_fn, grid)


# Frozen output of scripts/find_noncp_window.py (seed 7). Every map on the
# grid is completely positive, yet the propagators inside the window are not.
NONCP_WINDOW = {
    "decay_rate": 1.0,
    "delta": 0.68,
    "window": (0.8, 1.4),
    "t_max": 2.0,
    "steps": 40,
}


def noncp_divisible_trajectory() -> ChannelTrajectory:
    """The frozen non-CP-divisible trajectory (d_e = 1, d_g = 2)."""
    return windowed_sink_trajectory(**NONCP_WINDOW)
