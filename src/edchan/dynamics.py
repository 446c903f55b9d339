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

:func:`build_td_trajectory` steps by the semigroup member of the generators
at each step's midpoint. Its suppliers must be pure functions of time;
construction is sequential but independent trajectories may be concurrent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    COND_LIMIT,
    BlockOperator,
    EDMap,
    LinearMap,
    NonInvertibleError,
    _cond,
    apply,
    compose,
    invert,
)
from .cpcheck import _coupled_min_eigenvalue, choi, is_cp, is_cp_ed, min_full_choi_eigenvalue
from .matcore import (
    DEFAULT_TOL,
    _expm,
    as_complex_matrix,
    check_time,
    default_psd_tol,
    freeze,
    hermiticity_deviation,
    hermitian_part,
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
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients c must be finite")
        if float(np.sum(np.abs(c) ** 2)) > 1.0 + DEFAULT_TOL:
            raise ValueError("coefficients must satisfy sum |c|^2 <= 1")
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and non-negative")
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

    exp(t L) and the integral, exact also for singular L, come from one
    exponential kernel call, the upper blocks of exp(t [[L, I], [0, 0]]).
    """
    t = check_time(t)
    E, F = _expm(as_complex_matrix(t * SL, "t * L"), t)
    return EDMap(LinearMap(E), LinearMap(psi.mat @ F), matexp(t * K), 1.0)


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
    keep = w > tol
    rows = np.sqrt(w[keep])[:, None] * V[:, keep].T.conj()
    # d_g rows per operator, the last one padded with zero rows
    ops = np.zeros((-(-len(rows) // d_g) * d_g, d_e), dtype=complex)
    ops[:len(rows)] = rows
    sink = LinearMap.from_kraus(ops.reshape(-1, d_g, d_e), d_in=d_e, d_out=d_g)
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
    # SemigroupSpec's checks run on a zero feed, since psi need not be CP
    spec = SemigroupSpec(GKLSGenerator(H, G), eps, kappa, (),
                         LinearMap.zero(psi.d_in, psi.d_out))
    return _member(gkls_superop(spec.gen).mat, K_from_spec(spec), psi, t)


def _check_grid(grid: np.ndarray, name: str = "grid") -> None:
    """Reject a time grid that is empty, not finite, does not start at 0 or does not strictly increase."""
    if grid.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} must be finite")
    if not abs(grid[0]) <= 1e-12:
        raise ValueError(f"{name} must start at 0, got {grid[0]}")
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    """Maps sampled on a strictly increasing time grid starting at 0."""

    grid: np.ndarray
    maps: tuple
    # set only by the builders: step k is the map with maps[k+1] = step ∘ maps[k],
    # one shared object per distinct step; None means propagators come by inversion
    _steps: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).reshape(-1)
        maps = tuple(self.maps)
        _check_grid(grid)
        if grid.size != len(maps):
            raise ValueError("grid and maps must have equal length")
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


def _from_steps(grid: np.ndarray, d_e: int, d_g: int, steps: list) -> ChannelTrajectory:
    """The trajectory with maps[0] the identity and maps[k+1] = steps[k] ∘ maps[k]."""
    maps = [EDMap.identity(d_e, d_g)]
    for step in steps:
        maps.append(compose(step, maps[-1]))
    traj = ChannelTrajectory(grid, tuple(maps))
    object.__setattr__(traj, "_steps", tuple(steps))
    return traj


def semigroup_trajectory(spec: SemigroupSpec, grid) -> ChannelTrajectory:
    """Sample a semigroup on a grid by the one-step recurrence.

    By the semigroup law each map is the member at dt composed with the map
    before it, from the identity at grid[0]. The member at dt is the one
    :func:`semigroup_at` returns, from the same constructor; it is built once
    per distinct step and kept as the trajectory's propagator over every step
    of that length.
    ``evolve`` and ``divisibility`` sample a spec on ``--steps`` points of
    ``linspace(0, t_max)``; on three seeded random specs at d_e = 8 and
    t_max = 1 the maps differ from :func:`semigroup_at` by at most 2.3e-14
    per entry at 101 points, 2.9e-13 at 1001 and 2.7e-12 at 10^4.

    Memory: a grid whose steps all differ keeps one step map, about one more
    phi, per point. On ``linspace(0, 1, 2000)**1.5`` at d_e = 6, d_g = 2 the
    tracemalloc peak is 97.6 MB, of which the returned trajectory holds 97.2 MB.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    _check_grid(grid)
    SL, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
    dts = np.diff(grid).tolist()
    members = {dt: _member(SL, K, spec.psi, dt) for dt in set(dts)}
    return _from_steps(grid, spec.d_e, spec.d_g, [members[dt] for dt in dts])


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


def time_local_generators(traj: ChannelTrajectory, i: int) -> TimeLocalGenerators:
    """Recover the time-local generators at interior grid point i.

    Time derivatives are central finite differences over the adjacent grid
    points, so the result is second-order accurate in the grid spacing.
    """
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


def _consecutive_steps(traj: ChannelTrajectory, *kernels):
    """Yield the kernels' values on each propagator Phi_{t_{i+1}} ∘ Phi_{t_i}^-1.

    A stored trajectory inverts every map. A built one uses its steps, each
    distinct one evaluated once; maps[:-1] must still pass invert's condition
    check, with the same error. The bound cond(maps[k+1]) <= cond(step_k)
    cond(maps[k]), for phi and B alike, certifies maps[k] up to COND_LIMIT *
    1e-4, a margin for roundoff; past that maps[k]'s own condition numbers
    are computed.
    """
    if traj._steps is None:
        for i in range(len(traj) - 1):
            step = propagator(traj, i + 1, i)
            yield tuple(kernel(step) for kernel in kernels)
        return
    seen, bound = {}, (1.0, 1.0)  # maps[0] is the identity
    for k, step in enumerate(traj._steps):
        if max(bound) > COND_LIMIT * 1e-4:
            bound = (_cond(traj.maps[k].phi.mat), _cond(traj.maps[k].B))
            if max(bound) > COND_LIMIT:
                _invert_at(traj, k)  # raises as propagator would
        if step not in seen:
            seen[step] = (tuple(kernel(step) for kernel in kernels),
                          (_cond(step.phi.mat), _cond(step.B)))
        values, conds = seen[step]
        bound = (conds[0] * bound[0], conds[1] * bound[1])
        yield values


@dataclass(frozen=True, eq=False)
class CPDivisibilityReport:
    cp_divisible: bool
    worst_pair: tuple | None
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
    block-level CP criterion. ``worst_pair`` names that step as (i + 1, i)
    only when its eigenvalue lies below -tol; a roundoff minimum names none.
    """
    t = DEFAULT_TOL if tol is None else float(tol)
    reports, mins = [], []
    for report, coupled in _consecutive_steps(traj, lambda step: is_cp_ed(step, tol),
                                              _coupled_min_eigenvalue):
        reports.append(report)
        mins.append(min(0.0, report.omega_min_eigenvalue, coupled))
    worst = int(np.argmin(mins)) if mins else None
    lo = 0.0 if worst is None else float(mins[worst])
    return CPDivisibilityReport(
        cp_divisible=all(r.cp for r in reports),
        worst_pair=(worst + 1, worst) if lo < -t else None,
        min_eigenvalue=lo,
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

    The suppliers must return, for every t in [grid[0], grid[-1]]: the
    excited-sector generator superoperator, the coherence-block generator
    matrix and the ground-feed superoperator. Step k is the semigroup member
    at dt of the generators frozen at the step's midpoint (the exponential
    midpoint rule, a second-order Magnus integrator), built by the
    constructor :func:`semigroup_at` uses, and maps[k+1] = step_k ∘ maps[k].
    So a step is exactly trace preserving when its midpoint triple is and
    completely positive when that triple is valid, and constant suppliers
    give exactly :func:`semigroup_trajectory`'s maps. The trajectory keeps
    the steps as its propagators, about one more phi per point in memory.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    _check_grid(grid)
    psi0 = LinearMap(as_complex_matrix(psi_fn(grid[0]), "psi supplier output"))
    steps = []
    for t0, t1 in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (t0 + t1)
        L, K, psi = (as_complex_matrix(fn(mid), f"{name} supplier output")
                     for fn, name in ((L_fn, "L"), (K_fn, "K"), (psi_fn, "psi")))
        steps.append(_member(L, K, LinearMap(psi), t1 - t0))
    return _from_steps(grid, psi0.d_in, psi0.d_out, steps)


def trajectory_observables(traj: ChannelTrajectory, X0: BlockOperator) -> list:
    """Per-time observables of an evolving block operator.

    Rows carry the time, the sector populations, the Frobenius norm of the
    coherence block, the total trace and the smallest full-space Choi
    eigenvalue of the propagator from the previous grid point (the identity
    propagator at t = 0), computed from the blocks.
    """
    lams = [min_full_choi_eigenvalue(EDMap.identity(traj.d_e, traj.d_g))]
    lams += [lam for (lam,) in _consecutive_steps(traj, min_full_choi_eigenvalue)]
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
