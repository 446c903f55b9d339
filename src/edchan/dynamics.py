"""Time-dependent excitation-damping channels.

A family Phi_t (always with gamma_t = 1) is a completely positive semigroup
exactly when its blocks take the form

    phi_t   = exp(t L)            L a GKLS generator on the excited sector,
    B_t     = exp(t K)            K = -iH - (G + sum F†F)/2
                                      - (i eps + kappa/2) I
                                      - sqrt(kappa) sum c_mu F_mu,
    omega_t = psi ∘ integral_0^t exp(tau L) dtau,

with eps real, kappa >= 0, sum |c_mu|^2 <= 1 and psi completely positive; the
family is additionally trace preserving iff tr psi(X) = tr(G X). Higher kappa
means faster coherence decay.

Beyond semigroups, invertible trajectories carry time-local generators
L_t = dphi_t ∘ phi_t^-1, K_t = dB_t B_t^-1, psi_t = domega_t ∘ phi_t^-1
(recovered here by central finite differences on a grid), and the evolution
is CP-divisible exactly when every propagator Phi_t ∘ Phi_s^-1 is completely
positive. Since the class is closed under composition, checking consecutive
grid pairs suffices on a grid.

Generator suppliers passed to :func:`build_td_trajectory` must be pure
functions of time; trajectory construction is sequential but independent
trajectories may be built concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    BlockOperator,
    EDMap,
    LinearMap,
    NonInvertibleError,
    apply,
    compose,
    invert,
)
from .cpcheck import choi, is_cp, is_cp_ed, min_full_choi_eigenvalue
from .matcore import (
    DEFAULT_TOL,
    as_complex_matrix,
    default_psd_tol,
    freeze,
    hermiticity_deviation,
    hermitian_part,
    integral_of_exp,
    is_hermitian,
    is_psd,
    matexp,
)


def _validation_tol(A: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.abs(A).max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class GKLSGenerator:
    """Data (H, G, {F_mu}) of a trace non-increasing GKLS generator.

    H is hermitian, G is PSD (the operator responsible for trace loss; G = 0
    gives a trace-preserving generator), and the F_mu are jump operators. The
    derived Gamma = iH + (G + sum F†F)/2 automatically has PSD real part.
    """

    H: np.ndarray
    G: np.ndarray
    F: tuple = ()

    def __post_init__(self):
        H = as_complex_matrix(self.H, "H")
        G = as_complex_matrix(self.G, "G")
        F = tuple(as_complex_matrix(Fm, "jump operator") for Fm in self.F)
        d = H.shape[0]
        if H.shape != (d, d) or G.shape != (d, d):
            raise ValueError("H and G must be square with equal dimension")
        if any(Fm.shape != (d, d) for Fm in F):
            raise ValueError("jump operators must match the dimension of H")
        if not is_hermitian(H, _validation_tol(H)):
            raise ValueError("H must be hermitian")
        verdict = is_psd(G, max(_validation_tol(G), default_psd_tol(G)))
        if not verdict.is_psd:
            raise ValueError(
                f"G must be PSD, smallest eigenvalue {verdict.min_eigenvalue:.3e}"
            )
        freeze(self, "H", H)
        freeze(self, "G", G)
        freeze(self, "F", F)

    @property
    def d(self) -> int:
        return self.H.shape[0]


def gkls_superop(gen: GKLSGenerator) -> LinearMap:
    """Superoperator of L(X) = -i[H,X] - {G,X}/2 + sum(F X F† - {F†F,X}/2).

    Satisfies tr L(X) = -tr(G X) on all X.
    """
    d = gen.d
    I = np.eye(d, dtype=complex)
    H, G = gen.H, gen.G
    S = -1j * (np.kron(I, H) - np.kron(H.T, I))
    S -= 0.5 * (np.kron(I, G) + np.kron(G.T, I))
    for Fm in gen.F:
        FdF = Fm.conj().T @ Fm
        S += np.kron(Fm.conj(), Fm)
        S -= 0.5 * (np.kron(I, FdF) + np.kron(FdF.T, I))
    return LinearMap(S)


@dataclass(frozen=True, eq=False)
class SemigroupSpec:
    """Full data of an excitation-damping semigroup.

    Bundles a GKLS generator with the coherence parameters (eps, kappa, c)
    and the completely positive ground-feed map psi. ``c`` must have one
    entry per jump operator with sum |c|^2 <= 1.
    """

    gen: GKLSGenerator
    epsilon: float
    kappa: float
    c: np.ndarray
    psi: LinearMap

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        if len(c) != len(self.gen.F):
            raise ValueError(
                f"need one coefficient per jump operator: got {len(c)} for "
                f"{len(self.gen.F)} operators"
            )
        if float(np.sum(np.abs(c) ** 2)) > 1.0 + DEFAULT_TOL:
            raise ValueError("coefficients must satisfy sum |c|^2 <= 1")
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.psi.d_in != self.gen.d:
            raise ValueError("psi must act on the excited sector")
        verdict = is_cp(self.psi)
        if not verdict.is_cp:
            raise ValueError(
                f"psi must be completely positive, Choi eigenvalue "
                f"{verdict.min_choi_eigenvalue:.3e}"
            )
        freeze(self, "c", c)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def d_e(self) -> int:
        return self.gen.d

    @property
    def d_g(self) -> int:
        return self.psi.d_out


def K_from_spec(spec: SemigroupSpec) -> np.ndarray:
    """The coherence-block generator K."""
    gen = spec.gen
    d = gen.d
    acc = np.zeros((d, d), dtype=complex)
    for Fm in gen.F:
        acc += Fm.conj().T @ Fm
    K = -1j * gen.H - 0.5 * (gen.G + acc)
    K -= (1j * spec.epsilon + spec.kappa / 2) * np.eye(d)
    if len(gen.F):
        K -= np.sqrt(spec.kappa) * sum(
            cm * Fm for cm, Fm in zip(spec.c, gen.F)
        )
    return K


def _member(SL: np.ndarray, K: np.ndarray, psi: LinearMap, t: float) -> EDMap:
    """The map (exp(t L), psi ∘ integral_0^t exp(tau L) dtau, exp(t K), 1) at t >= 0.

    omega_t uses the exact augmented-block integral, valid also for singular L.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return EDMap(
        phi=LinearMap(matexp(t * SL)),
        omega=LinearMap(psi.mat @ integral_of_exp(SL, t)),
        B=matexp(t * K),
        gamma=1.0,
    )


def semigroup_at(spec: SemigroupSpec, t: float) -> EDMap:
    """The semigroup member at time t >= 0."""
    return _member(gkls_superop(spec.gen).mat, K_from_spec(spec), spec.psi, t)


def check_tp_condition(spec: SemigroupSpec, tol: float = DEFAULT_TOL) -> bool:
    """True iff tr psi(X) = tr(G X), checked on the matrix-unit basis."""
    W = spec.psi.trace_functional()
    return float(np.abs(W - spec.gen.G).max(initial=0.0)) <= tol


def psi_from_sink(G, E: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """Ground-feed map psi = E ∘ sum_m M_m(.)M_m† with G = sum_m M_m† M_m.

    The factor operators M_m (ground x excited) come from the
    eigendecomposition of G, stacked into ceil(rank/d_g) operators. When E is
    a channel on the ground sector the result satisfies tr psi(X) = tr(G X),
    so the semigroup built on it is trace preserving; a non-CP or
    non-trace-preserving E is accepted with a warning.
    """
    Gm = as_complex_matrix(G, "G")
    verdict = is_psd(Gm, max(tol, default_psd_tol(Gm)))
    if not verdict.is_psd:
        raise ValueError(f"G must be PSD, smallest eigenvalue {verdict.min_eigenvalue:.3e}")
    if E.d_in != E.d_out:
        raise ValueError("the sink map must act on the ground sector")
    d_e = Gm.shape[0]
    d_g = E.d_in
    w, V = np.linalg.eigh(hermitian_part(Gm))
    rows = [np.sqrt(wi) * V[:, i].conj() for i, wi in enumerate(w) if wi > tol]
    ops = []
    for start in range(0, len(rows), d_g):
        M = np.zeros((d_g, d_e), dtype=complex)
        for offset, row in enumerate(rows[start:start + d_g]):
            M[offset, :] = row
        ops.append(M)
    sink = LinearMap.from_kraus(ops, d_in=d_e, d_out=d_g)
    if not is_cp(E).is_cp:
        warnings.warn("sink map E is not completely positive; the resulting "
                      "psi need not be completely positive", stacklevel=2)
    if float(np.abs(E.trace_functional() - np.eye(d_g)).max(initial=0.0)) > max(tol, 1e-9):
        warnings.warn("sink map E is not trace preserving; the total trace "
                      "will not be conserved", stacklevel=2)
    return E @ sink


def wigner_weisskopf_at(H, G, eps: float, kappa: float,
                        psi: LinearMap, t: float) -> EDMap:
    """Purely effective-Hamiltonian decay at time t.

    The excited block is conjugation by A_t = exp(-i H_eff t) with
    H_eff = H - (i/2) G, the coherence block is
    B_t = exp(-i eps t) exp(-kappa t / 2) A_t, and omega_t integrates psi
    against the conjugation flow. This is the jumpless semigroup member, but
    psi need not be completely positive.
    """
    gen = GKLSGenerator(H, G)
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    # K of the semigroup with no jump operators: -i H_eff - (i eps + kappa/2) I
    K = -1j * gen.H - 0.5 * gen.G - (1j * eps + kappa / 2) * np.eye(gen.d)
    return _member(gkls_superop(gen).mat, K, psi, t)


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    """Maps sampled on a strictly increasing time grid starting at 0."""

    grid: np.ndarray
    maps: tuple

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).reshape(-1)
        maps = tuple(self.maps)
        if grid.size == 0 or grid.size != len(maps):
            raise ValueError("grid and maps must have equal nonzero length")
        if abs(grid[0]) > 1e-12:
            raise ValueError(f"grid must start at 0, got {grid[0]}")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not all(isinstance(m, EDMap) for m in maps):
            raise ValueError("maps must be EDMap instances")
        d_e, d_g = maps[0].d_e, maps[0].d_g
        if any((m.d_e, m.d_g) != (d_e, d_g) for m in maps):
            raise ValueError("all maps must share the sector dimensions")
        m0 = maps[0]
        dev = max(
            float(np.abs(m0.phi.mat - np.eye(d_e * d_e)).max(initial=0.0)),
            float(np.abs(m0.omega.mat).max(initial=0.0)),
            float(np.abs(m0.B - np.eye(d_e)).max(initial=0.0)),
            abs(m0.gamma - 1.0),
        )
        if dev > 1e-8:
            raise ValueError(f"maps[0] must be the identity channel (deviation {dev:.3e})")
        freeze(self, "grid", grid)
        object.__setattr__(self, "maps", maps)

    @property
    def d_e(self) -> int:
        return self.maps[0].d_e

    @property
    def d_g(self) -> int:
        return self.maps[0].d_g

    def __len__(self) -> int:
        return len(self.maps)


def semigroup_trajectory(spec: SemigroupSpec, grid) -> ChannelTrajectory:
    """Sample a semigroup on a grid."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    return ChannelTrajectory(grid, tuple(semigroup_at(spec, t) for t in grid))


@dataclass(frozen=True, eq=False)
class TimeLocalGenerators:
    """Extracted (L_t, K_t, psi_t) at one grid point."""

    L: LinearMap
    K: np.ndarray
    psi: LinearMap


def _invert_at(traj: ChannelTrajectory, j: int) -> EDMap:
    """The inverse of the map at grid index j; a failure names the grid point."""
    try:
        return invert(traj.maps[j])
    except NonInvertibleError as exc:
        raise NonInvertibleError(
            exc.reason, f"{exc} at grid index {j} (t = {traj.grid[j]:.6g})"
        ) from exc


def time_local_generators(traj: ChannelTrajectory, i: int,
                          scheme: str = "central") -> TimeLocalGenerators:
    """Recover the time-local generators at interior grid point i.

    Time derivatives are central finite differences over the adjacent grid
    points, so the result is second-order accurate in the grid spacing.
    """
    if scheme != "central":
        raise ValueError(f"unsupported finite-difference scheme {scheme!r}")
    if not 0 < i < len(traj) - 1:
        raise ValueError(f"index {i} is not an interior grid point")
    inv = _invert_at(traj, i)
    lo, hi = traj.maps[i - 1], traj.maps[i + 1]
    dt = traj.grid[i + 1] - traj.grid[i - 1]
    dphi = (hi.phi.mat - lo.phi.mat) / dt
    domega = (hi.omega.mat - lo.omega.mat) / dt
    dB = (hi.B - lo.B) / dt
    return TimeLocalGenerators(
        L=LinearMap(dphi @ inv.phi.mat),
        K=dB @ inv.B,
        psi=LinearMap(domega @ inv.phi.mat),
    )


def propagator(traj: ChannelTrajectory, i: int, j: int) -> EDMap:
    """The two-time map Phi_{t_i} ∘ Phi_{t_j}^-1 for j <= i."""
    if not 0 <= j <= i < len(traj):
        raise ValueError(f"need 0 <= j <= i < {len(traj)}, got (i, j) = ({i}, {j})")
    return compose(traj.maps[i], _invert_at(traj, j))


def _consecutive_steps(traj: ChannelTrajectory):
    """Yield each propagator Phi_{t_{i+1}} ∘ Phi_{t_i}^-1 with its full-space Choi minimum."""
    for i in range(len(traj) - 1):
        step = propagator(traj, i + 1, i)
        yield step, min_full_choi_eigenvalue(step)


@dataclass(frozen=True, eq=False)
class CPDivisibilityReport:
    cp_divisible: bool
    worst_pair: tuple
    min_eigenvalue: float
    step_min_eigenvalues: np.ndarray
    step_reports: tuple = field(repr=False, default=())

    def __post_init__(self):
        freeze(self, "step_min_eigenvalues", np.asarray(self.step_min_eigenvalues, dtype=float))


def is_cp_divisible(traj: ChannelTrajectory, tol: float | None = None) -> CPDivisibilityReport:
    """Check complete positivity of every consecutive propagator.

    Consecutive pairs suffice: closure under composition makes every
    Phi_{t_i} ∘ Phi_{t_j}^-1 a product of consecutive propagators. The
    reported eigenvalue is the smallest full-space Choi eigenvalue over all
    steps, computed from the blocks; the verdict itself comes from the
    block-level CP criterion.
    """
    reports, mins = [], []
    for step, lam in _consecutive_steps(traj):
        reports.append(is_cp_ed(step, tol))
        mins.append(lam)
    worst = int(np.argmin(mins)) if mins else None
    return CPDivisibilityReport(
        cp_divisible=all(r.cp for r in reports),
        worst_pair=(0, 0) if worst is None else (worst + 1, worst),
        min_eigenvalue=0.0 if worst is None else float(mins[worst]),
        step_min_eigenvalues=np.asarray(mins, dtype=float),
        step_reports=tuple(reports),
    )


@dataclass(frozen=True)
class GKLSValidityReport:
    """Conditional-complete-positivity verdict for a candidate generator.

    ``valid`` requires hermiticity preservation and (I - P) C_L (I - P) >=
    -tol with P the normalized projector onto the maximally entangled vector;
    ``trace_nonincreasing`` holds when the trace functional of L is <= 0.
    """

    valid: bool
    trace_nonincreasing: bool
    hermiticity_preserving: bool
    conditional_min_eigenvalue: float


def is_gkls_generator(L: LinearMap, tol: float | None = None) -> GKLSValidityReport:
    """Decide whether L generates a completely positive semigroup."""
    if L.d_in != L.d_out:
        raise ValueError("a generator must map an operator space to itself")
    d = L.d_in
    C = choi(L).mat
    t = default_psd_tol(C) if tol is None else float(tol)
    herm = hermiticity_deviation(C) <= t
    psi_vec = np.zeros(d * d, dtype=complex)
    psi_vec[np.arange(d) * d + np.arange(d)] = 1.0
    P = np.outer(psi_vec, psi_vec.conj()) / d
    Q = np.eye(d * d) - P
    lam = float(np.linalg.eigvalsh(Q @ hermitian_part(C) @ Q)[0])
    ccp = lam >= -t
    tni = herm and float(np.linalg.eigvalsh(hermitian_part(L.trace_functional()))[-1]) <= t
    return GKLSValidityReport(
        valid=herm and ccp,
        trace_nonincreasing=tni,
        hermiticity_preserving=herm,
        conditional_min_eigenvalue=lam,
    )


def build_td_trajectory(L_fn, K_fn, psi_fn, grid) -> ChannelTrajectory:
    """Integrate time-dependent generators into a trajectory.

    phi_t and B_t are stepwise time-ordered products of midpoint
    exponentials; omega_t accumulates psi_tau ∘ phi_tau with the trapezoidal
    rule. Both are second-order accurate in the step. The suppliers must
    return, for every t in [grid[0], grid[-1]]: the excited-sector generator
    superoperator, the coherence-block generator matrix and the ground-feed
    superoperator.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size < 1 or abs(grid[0]) > 1e-12:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    K0 = as_complex_matrix(K_fn(grid[0]), "K supplier output")
    d_e = K0.shape[0]
    psi0 = as_complex_matrix(psi_fn(grid[0]), "psi supplier output")
    d_g = int(round(np.sqrt(psi0.shape[0])))

    S_phi = np.eye(d_e * d_e, dtype=complex)
    B = np.eye(d_e, dtype=complex)
    S_omega = np.zeros((d_g * d_g, d_e * d_e), dtype=complex)
    maps = [EDMap(LinearMap(S_phi), LinearMap(S_omega), B, 1.0)]
    g_prev = psi0 @ S_phi
    for idx in range(grid.size - 1):
        t0, t1 = grid[idx], grid[idx + 1]
        dt = t1 - t0
        mid = 0.5 * (t0 + t1)
        S_phi = matexp(dt * as_complex_matrix(L_fn(mid), "L supplier output")) @ S_phi
        B = matexp(dt * as_complex_matrix(K_fn(mid), "K supplier output")) @ B
        g_next = as_complex_matrix(psi_fn(t1), "psi supplier output") @ S_phi
        S_omega = S_omega + 0.5 * dt * (g_prev + g_next)
        g_prev = g_next
        maps.append(EDMap(LinearMap(S_phi), LinearMap(S_omega), B, 1.0))
    return ChannelTrajectory(grid, tuple(maps))


def trajectory_observables(traj: ChannelTrajectory, X0: BlockOperator) -> list:
    """Per-time observables of an evolving block operator.

    Rows carry the time, the sector populations, the Frobenius norm of the
    coherence block, the total trace and the smallest full-space Choi
    eigenvalue of the propagator from the previous grid point (the identity
    propagator at t = 0), computed from the blocks.
    """
    lams = [min_full_choi_eigenvalue(propagator(traj, 0, 0))]
    lams += [lam for _, lam in _consecutive_steps(traj)]
    rows = []
    for t, m, lam in zip(traj.grid, traj.maps, lams):
        X = apply(m, X0)
        rows.append({
            "t": float(t),
            "trace_ee": float(np.trace(X.ee).real),
            "trace_gg": float(np.trace(X.gg).real),
            "coherence_norm": float(np.linalg.norm(X.eg)),
            "total_trace": float(X.trace().real),
            "min_propagator_choi_eigenvalue": float(lam),
        })
    return rows
