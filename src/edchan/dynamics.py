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

The grid step is the batch axis: members, propagators and their checks are
formed CHUNK steps at a time by stacked numpy and LAPACK calls, each step
getting exactly what a call on it alone would. A state evolves through a
built trajectory's steps, one matrix-vector product per block and step, and
two-time maps are composed from the steps, so no map of the grid is formed.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    BlockOperator,
    EDMap,
    EDStack,
    LinearMap,
    NonInvertibleError,
    _check_sectors,
    apply_stack,
    compose_stack,
    invert_stack,
)
from .cpcheck import (
    _coupled_min_eigenvalue_stack,
    choi,
    is_cp,
    is_cp_ed_stack,
    min_full_choi_eigenvalue,
    min_full_choi_eigenvalue_stack,
)
from .matcore import (
    DEFAULT_TOL,
    _expm,
    as_complex_matrix,
    check_time,
    freeze,
    hermiticity_deviation,
    hermitian_part,
    is_hermitian,
    is_psd,
    require_finite,
    vectorize,
)

# Steps per stacked kernel call: at d_e = 8 a stack of CHUNK phi blocks
# (64-square, complex) is 1 MB, and so is each temporary built from it.
CHUNK = 16


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
        if not is_hermitian(H):
            raise ValueError("H must be hermitian")
        verdict = is_psd(G)
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
    acc = sum((Fm.conj().T @ Fm for Fm in gen.F), np.zeros((d, d), dtype=complex))
    K = -1j * gen.H - 0.5 * (gen.G + acc)
    K -= (1j * spec.epsilon + spec.kappa / 2) * np.eye(d)
    if len(gen.F):
        K -= np.sqrt(spec.kappa) * sum(
            cm * Fm for cm, Fm in zip(spec.c, gen.F)
        )
    return K


def _members(generators, count: int, d_e: int, d_g: int) -> EDStack:
    """The maps (exp(t L), psi ∘ integral_0^t exp(tau L) dtau, exp(t K), 1), stacked.

    ``generators(a, b)`` returns (L, K, psi, t) for members a to b - 1: t has
    one time per member, and L, K and psi are one matrix for all of them or
    a stack of one per member. Members are formed CHUNK at a time. exp(t L)
    and the integral, exact also for singular L, come from one exponential
    kernel call, the upper blocks of exp(t [[L, I], [0, 0]]), and exp(t K)
    from a second. Each chunk is checked for non-finite entries as it is
    formed, in the order a single member is, before the next chunk's
    generators are asked for.
    """
    out = EDStack.empty(count, d_e, d_g)
    for a in range(0, count, CHUNK):
        b = min(a + CHUNK, count)
        L, K, psi, t = generators(a, b)
        tt = t[:, None, None]
        out.phi[a:b], F = _expm(require_finite(tt * L, "t * L"), t)
        out.omega[a:b] = psi @ F
        require_finite(out.phi[a:b], "superoperator matrix")
        require_finite(out.omega[a:b], "superoperator matrix")
        out.B[a:b] = require_finite(_expm(require_finite(tt * K))[0], "B")
    return out


def _member(SL: np.ndarray, K: np.ndarray, psi: LinearMap, t: float) -> EDMap:
    """The member of :func:`_members` at one time t >= 0."""
    t = np.array([check_time(t)])
    return _members(lambda a, b: (SL, K, psi.mat, t), 1, psi.d_in, psi.d_out).edmap(0)


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
    verdict = is_psd(Gm, tol)
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


@dataclass(frozen=True, eq=False, init=False)
class ChannelTrajectory:
    """Maps sampled on a strictly increasing time grid starting at 0.

    It holds the grid and one read-only :class:`EDStack`. With ``_index``
    None the stack is the maps themselves, as ``ChannelTrajectory(grid,
    maps)`` stacks them. A builder's trajectory stacks one step per step
    length instead, ``_index[k]`` naming the step between grid points k and
    k+1; maps[0] is the identity and maps[k+1] = step_k ∘ maps[k]. Either way
    each read of ``maps`` forms a new tuple of them, and the trajectory keeps
    none.
    """

    grid: np.ndarray
    _stack: EDStack
    _index: np.ndarray | None

    def __init__(self, grid, maps):
        grid = np.asarray(grid, dtype=float).reshape(-1)
        maps = tuple(maps)
        _check_grid(grid)
        if grid.size != len(maps):
            raise ValueError("grid and maps must have equal length")
        if not all(isinstance(m, EDMap) for m in maps):
            raise ValueError("maps must be EDMap instances")
        d_e, d_g = maps[0].d_e, maps[0].d_g
        if any((m.d_e, m.d_g) != (d_e, d_g) for m in maps):
            raise ValueError("all maps must share the sector dimensions")
        m0, ident = maps[0], EDMap.identity(d_e, d_g)
        pairs = zip((m0.phi.mat, m0.omega.mat, m0.B, m0.gamma),
                    (ident.phi.mat, ident.omega.mat, ident.B, ident.gamma))
        dev = max(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)
        if dev > 1e-8:
            raise ValueError(f"maps[0] must be the identity channel (deviation {dev:.3e})")
        self._hold(grid, EDStack.of(maps), None)

    @classmethod
    def _stepped(cls, grid: np.ndarray, steps: EDStack, index: np.ndarray) -> "ChannelTrajectory":
        """A builder's trajectory on a checked grid: step k is ``steps[index[k]]``."""
        traj = cls.__new__(cls)
        index.flags.writeable = False
        traj._hold(grid, steps, index)
        return traj

    def _hold(self, grid: np.ndarray, stack: EDStack, index) -> None:
        """Set the fields, making the stack's blocks read-only in place."""
        for block in (stack.phi, stack.omega, stack.B, stack.gamma):
            block.flags.writeable = False
        freeze(self, "grid", grid)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_index", index)

    @property
    def d_e(self) -> int:
        return self._stack.d_e

    @property
    def d_g(self) -> int:
        return self._stack.d_g

    def __len__(self) -> int:
        return self.grid.size

    def _products(self, steps: list):
        """Stacks of one: the identity, then each member named by ``steps`` composed onto the last.

        The composition is :func:`compose`'s, so on a builder's own
        ``_index`` these are its maps.
        """
        return itertools.accumulate(steps, lambda m, j: compose_stack(self._stack[j:j + 1], m),
                                    initial=EDStack.of([EDMap.identity(self.d_e, self.d_g)]))

    def _edmaps(self):
        """The maps as :class:`EDMap` objects, in grid order, formed one at a time.

        A stored trajectory's are read from its stack; a builder's are its
        steps composed in turn by :meth:`_products`.
        """
        if self._index is None:
            return (self._stack.edmap(k) for k in range(len(self)))
        return (m.edmap(0) for m in self._products(self._index.tolist()))

    @property
    def maps(self) -> tuple:
        """The maps as :class:`EDMap` objects, in a new tuple on every read."""
        return tuple(self._edmaps())


def _step_lengths(grid: np.ndarray) -> tuple:
    """One length per group of step lengths that differ by rounding, and each step's group.

    The sorted lengths form anchored groups: a group starts at its smallest
    length and takes every length within 4 spacings of grid[-1] of it, so
    groups never chain. A ``linspace`` grid's rounding spreads its lengths
    by at most 2 such spacings, so they form one group. A group's length is
    its mean, taken from its smallest length, so that a group of equal
    lengths, one alone included, keeps that length bit for bit. Groups come
    in increasing order of length.
    """
    dts = np.diff(grid)
    s = np.sort(dts)
    ends = np.searchsorted(s, s + 4 * np.spacing(grid[-1]), side="right").tolist()
    starts, k = [], 0
    while k < s.size:
        starts.append(k)
        k = ends[k]
    lo = s[starts]  # each group's smallest length
    group = np.searchsorted(lo, dts, side="right") - 1
    return lo + np.bincount(group, weights=dts - lo[group]) / np.bincount(group), group


def semigroup_trajectory(spec: SemigroupSpec, grid) -> ChannelTrajectory:
    """Sample a semigroup on a grid by the one-step recurrence.

    By the semigroup law each map is the member at dt composed with the map
    before it, from the identity at grid[0]. The member at dt is the one
    :func:`semigroup_at` returns, from the same constructor. Step lengths
    that differ only by the grid's rounding share one member, at their mean
    (see :func:`_step_lengths`); a length alone in its group keeps its own
    value bit for bit. Members are built CHUNK per stacked kernel call, and
    the trajectory's stack holds each as the propagator over every step of
    its group. The maps are composed on each read of ``maps``.
    ``evolve`` and ``divisibility`` sample a spec on ``--steps`` points of
    ``linspace(0, t_max)``, which builds one member; on three seeded random
    specs at d_e = 8 (d_g 1 to 3) and t_max = 1 the maps differ from
    :func:`semigroup_at` by at most 2.3e-14 per entry at 101 points, 2.7e-13
    at 1001 and 2.5e-12 at 10^4, as they do with one member per float length.

    Memory: a grid whose steps all differ keeps one step map, about one
    phi, per point; a read of ``maps`` returns one composed map per point,
    held by the caller alone, while :func:`trajectory_observables`,
    :func:`is_cp_divisible`, :func:`propagator` and
    :func:`time_local_generators` use the steps and form no map, so none
    refuses a map for its condition number. On ``linspace(0, 1, 2000)**1.5``
    at d_e = 6, d_g = 2 the tracemalloc peak is 51.9 MB, of which the
    returned trajectory holds 47.3 MB; the tuple a read of ``maps`` returns
    holds another 48.6 MB until it is dropped, and the trajectory still
    holds 47.3 MB after.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    _check_grid(grid)
    SL, K, psi = gkls_superop(spec.gen).mat, K_from_spec(spec), spec.psi.mat
    dts, index = _step_lengths(grid)
    members = _members(lambda a, b: (SL, K, psi, dts[a:b]), dts.size, spec.d_e, spec.d_g)
    return ChannelTrajectory._stepped(grid, members, index)


@dataclass(frozen=True, eq=False)
class TimeLocalGenerators:
    """Extracted (L_t, K_t, psi_t) at one grid point."""

    L: LinearMap
    K: np.ndarray
    psi: LinearMap


def _inverses(traj: ChannelTrajectory, a: int, maps: EDStack) -> EDStack:
    """The inverses of ``maps``, the trajectory's maps or steps from grid index a on.

    A map without an inverse raises :func:`invert_stack`'s error, naming its
    grid point; a built trajectory's step k is named by grid point k, where
    it starts.
    """
    try:
        return invert_stack(maps)
    except NonInvertibleError as exc:
        j = a + exc.index
        raise NonInvertibleError(
            exc.reason, f"{exc} at grid index {j} (t = {traj.grid[j]:.6g})") from exc


def _inverse(traj: ChannelTrajectory, j: int) -> EDStack:
    """The inverse of a stored trajectory's map at grid index j, as a stack of one.

    It fails as :func:`_inverses` does.
    """
    return _inverses(traj, j, traj._stack[j:j + 1])


def time_local_generators(traj: ChannelTrajectory, i: int) -> TimeLocalGenerators:
    """Recover the time-local generators at interior grid point i.

    They are (Phi_{t_{i+1}} - Phi_{t_{i-1}}) ∘ Phi_{t_i}^-1 / (t_{i+1} - t_{i-1})
    block by block: central finite differences over the adjacent grid points,
    second-order accurate in the grid spacing. A stored trajectory inverts
    maps[i]. A built one, whose gamma is 1 at every point, has maps[i+1] =
    step_i ∘ maps[i] and maps[i-1] = step_{i-1}^-1 ∘ maps[i], so the same
    quantity is (step_i - step_{i-1}^-1) / (t_{i+1} - t_{i-1}): only the short
    step before i is inverted, failing as :func:`_inverses` does, and no map
    is formed.
    """
    if not 0 < i < len(traj) - 1:
        raise ValueError(f"index {i} is not an interior grid point")
    if traj._index is None:
        hi, lo, inv = traj._stack[i + 1], traj._stack[i - 1], _inverse(traj, i)[0]
    else:
        back, step = traj._index[i - 1:i + 1].tolist()
        hi, lo, inv = traj._stack[step], _inverses(traj, i - 1, traj._stack[back:back + 1])[0], None
    dt = traj.grid[i + 1] - traj.grid[i - 1]
    L, K, psi = (hi.phi - lo.phi) / dt, (hi.B - lo.B) / dt, (hi.omega - lo.omega) / dt
    if inv is not None:
        L, K, psi = L @ inv.phi, K @ inv.B, psi @ inv.phi
    return TimeLocalGenerators(L=LinearMap(L), K=K, psi=LinearMap(psi))


def propagator(traj: ChannelTrajectory, i: int, j: int) -> EDMap:
    """The two-time map Phi_{t_i} ∘ Phi_{t_j}^-1 for j <= i.

    A stored trajectory composes maps[i] with the inverse of maps[j], failing
    as :func:`_inverses` does. A built one composes step_{i-1} ∘ ... ∘ step_j
    and inverts nothing, so it refuses no map.
    """
    if not 0 <= j <= i < len(traj):
        raise ValueError(f"need 0 <= j <= i < {len(traj)}, got (i, j) = ({i}, {j})")
    if traj._index is None:
        return compose_stack(traj._stack[i:i + 1], _inverse(traj, j)).edmap(0)
    *_, m = traj._products(traj._index[j:i].tolist())
    return m.edmap(0)


def _step_values(traj: ChannelTrajectory, kernel) -> list:
    """The kernel's values on the propagators Phi_{t_{i+1}} ∘ Phi_{t_i}^-1, in grid order.

    ``kernel`` takes an :class:`EDStack` and returns one value per map; it
    gets the propagators CHUNK at a time. A trajectory that holds its maps
    forms them from slices of its stack by stacked inversion and composition,
    each equal to :func:`propagator`'s, and fails as it would at the first map
    without an inverse. A built one's propagators are its steps, so each
    member of its stack is evaluated once and nothing is inverted or refused.
    """
    values = []
    if traj._index is None:
        for a in range(0, len(traj) - 1, CHUNK):
            maps = traj._stack[a:a + CHUNK + 1]
            values += kernel(compose_stack(maps[1:], _inverses(traj, a, maps[:-1])))
        return values
    for a in range(0, len(traj._stack), CHUNK):
        values += kernel(traj._stack[a:a + CHUNK])
    return [values[j] for j in traj._index.tolist()]


@dataclass(frozen=True, eq=False)
class CPDivisibilityReport:
    cp_divisible: bool
    worst_pair: tuple | None
    min_eigenvalue: float
    step_min_eigenvalues: np.ndarray
    step_reports: tuple = field(repr=False, default=())

    def __post_init__(self):
        freeze(self, "step_min_eigenvalues", np.asarray(self.step_min_eigenvalues, dtype=float))


def is_cp_divisible(traj: ChannelTrajectory, tol: float = DEFAULT_TOL) -> CPDivisibilityReport:
    """Check complete positivity of every consecutive propagator.

    Consecutive pairs suffice: closure under composition makes every
    Phi_{t_i} ∘ Phi_{t_j}^-1 a product of consecutive propagators. The
    reported eigenvalue is the smallest full-space Choi eigenvalue over all
    steps, computed from the blocks; the verdict itself comes from the
    block-level CP criterion. ``worst_pair`` names that step as (i + 1, i)
    only when its eigenvalue lies below -tol; a roundoff minimum names none.
    """
    steps = _step_values(traj, lambda s: list(zip(is_cp_ed_stack(s, tol),
                                                   _coupled_min_eigenvalue_stack(s).tolist())))
    reports = [report for report, _ in steps]
    mins = [min(0.0, report.omega_min_eigenvalue, coupled) for report, coupled in steps]
    worst = int(np.argmin(mins)) if mins else None
    lo = 0.0 if worst is None else float(mins[worst])
    return CPDivisibilityReport(
        cp_divisible=all(r.cp for r in reports),
        worst_pair=(worst + 1, worst) if lo < -tol else None,
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


def is_gkls_generator(L: LinearMap, tol: float = DEFAULT_TOL) -> GKLSValidityReport:
    """Decide whether L generates a completely positive semigroup."""
    if L.d_in != L.d_out:
        raise ValueError("a generator must map an operator space to itself")
    d = L.d_in
    C = choi(L).mat
    herm = hermiticity_deviation(C) <= tol
    psi_vec = np.eye(d, dtype=complex).reshape(-1)  # vec I, column-stacked
    P = np.outer(psi_vec, psi_vec.conj()) / d
    Q = np.eye(d * d) - P
    lam = float(np.linalg.eigvalsh(Q @ hermitian_part(C) @ Q)[0])
    ccp = lam >= -tol
    tni = herm and float(np.linalg.eigvalsh(hermitian_part(L.trace_functional()))[-1]) <= tol
    return GKLSValidityReport(
        valid=herm and ccp,
        trace_nonincreasing=tni,
        hermiticity_preserving=herm,
        conditional_min_eigenvalue=lam,
    )


@dataclass(frozen=True, eq=False)
class GeneratorTable:
    """Generators (L, K, psi) sampled at ``times``, linear in t between samples.

    ``times`` strictly increases from 0 and holds at least two samples;
    ``L``, ``K`` and ``psi`` stack one superoperator, coherence-block
    generator and ground-feed superoperator per time. The arrays are made
    read-only in place; ``jsonio.generator_table_from_dict`` builds and
    checks them.
    """

    times: np.ndarray
    L: np.ndarray
    K: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        for A in (self.times, self.L, self.K, self.psi):
            A.flags.writeable = False

    @property
    def d_e(self) -> int:
        return self.K.shape[-1]

    @property
    def d_g(self) -> int:
        return math.isqrt(self.psi.shape[1])

    def at(self, t: np.ndarray) -> tuple:
        """The stacked (L, K, psi) at each time of t, held at the end samples beyond the table."""
        times = self.times
        t = np.clip(t, times[0], times[-1])
        i = np.minimum(np.searchsorted(times, t, side="right") - 1, times.size - 2)
        lam = ((t - times[i]) / (times[i + 1] - times[i]))[:, None, None]
        return tuple((1 - lam) * S[i] + lam * S[i + 1] for S in (self.L, self.K, self.psi))


def _midpoint_trajectory(grid: np.ndarray, generators, d_e: int, d_g: int) -> ChannelTrajectory:
    """The exponential midpoint rule on a checked grid.

    ``generators(ts)`` returns the stacked (L, K, psi) at the midpoints ts of
    one chunk of steps; step k is the member of :func:`_members` at
    dt = grid[k+1] - grid[k] of the generators at its midpoint.
    """
    mids, dts = 0.5 * (grid[:-1] + grid[1:]), np.diff(grid)
    members = _members(lambda a, b: (*generators(mids[a:b]), dts[a:b]), dts.size, d_e, d_g)
    return ChannelTrajectory._stepped(grid, members, np.arange(dts.size))


def build_td_trajectory(L_fn, K_fn, psi_fn, grid) -> ChannelTrajectory:
    """Integrate time-dependent generators into a trajectory.

    The suppliers must return, for every t in [grid[0], grid[-1]]: the
    excited-sector generator superoperator, the coherence-block generator
    matrix and the ground-feed superoperator. Step k is the semigroup member
    at dt of the generators frozen at the step's midpoint (the exponential
    midpoint rule, a second-order Magnus integrator), built by the
    constructor :func:`semigroup_at` uses, and maps[k+1] = step_k ∘ maps[k].
    So a step is exactly trace preserving when its midpoint triple is and
    completely positive when that triple is valid. Constant suppliers give
    exactly :func:`semigroup_trajectory`'s maps when every step length is
    its own group of :func:`_step_lengths`, as on a grid whose lengths differ
    by more than rounding. On a ``linspace`` grid the spec steps by the mean
    length and this by each length: on three seeded specs (d_e 2 to 8) at
    21, 101 and 1001 points of ``linspace(0, 1)`` the maps differ by at most
    2.5e-15 per entry. Steps are formed in chunks of CHUNK: the suppliers
    are called for a chunk's midpoints, in grid order, and its members come
    from stacked kernel calls and are checked for non-finite entries before
    the next chunk's are asked for. The trajectory's stack holds the steps
    as its propagators, about one phi per point in memory. The maps are
    composed only on a read of ``maps``: a state evolves, divisibility is
    decided and two-time maps are formed from the steps, and none of these
    refuses a map for its condition number.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    _check_grid(grid)
    psi0 = LinearMap(as_complex_matrix(psi_fn(grid[0]), "psi supplier output"))
    d_e, d_g = psi0.d_in, psi0.d_out
    suppliers = ((L_fn, "L", (d_e * d_e, d_e * d_e)), (K_fn, "K", (d_e, d_e)),
                 (psi_fn, "psi", (d_g * d_g, d_e * d_e)))

    def supplied(t, fn, name, shape):
        M = as_complex_matrix(fn(t), f"{name} supplier output")
        if M.shape != shape:
            raise ValueError(f"{name} supplier output must have shape {shape}, got {M.shape}")
        return M

    def generators(ts):
        return tuple(map(np.stack, zip(*[[supplied(t, *s) for s in suppliers] for t in ts])))

    return _midpoint_trajectory(grid, generators, d_e, d_g)


def _propagate(traj: ChannelTrajectory, X0: BlockOperator) -> tuple:
    """tr X_ee, tr X_gg and |X_eg| at each grid point of a built trajectory, as stacks.

    The state is carried through the steps: vec X_ee <- phi vec X_ee,
    X_eg <- B X_eg and tr X_gg <- gamma tr X_gg + tr omega(X_ee), with
    tr omega(x) = w . x for w the sum of omega's rows onto the diagonal.
    """
    s, index, d_e, d_g = traj._stack, traj._index, X0.d_e, X0.d_g
    xs = np.empty((len(traj), d_e * d_e), dtype=complex)
    eg = np.empty((len(traj), d_e, d_g), dtype=complex)
    xs[0], eg[0] = vectorize(X0.ee), X0.eg
    for k, j in enumerate(index.tolist()):
        np.matmul(s.phi[j], xs[k], out=xs[k + 1])
        np.matmul(s.B[j], eg[k], out=eg[k + 1])
    w = s.omega[:, ::d_g + 1].sum(axis=1)
    fed = np.einsum("ki,ki->k", w[index], xs[:-1])
    trace_gg = itertools.accumulate(zip(s.gamma[index].tolist(), fed.tolist()),
                                    lambda tr, step: step[0] * tr + step[1],
                                    initial=complex(np.trace(X0.gg)))
    return (np.trace(xs.reshape(-1, d_e, d_e), axis1=1, axis2=2), np.array(list(trace_gg)),
            np.linalg.norm(eg, axis=(1, 2)))


def trajectory_observables(traj: ChannelTrajectory, X0: BlockOperator) -> list:
    """Per-time observables of an evolving block operator.

    Rows carry the time, the sector populations, the Frobenius norm of the
    coherence block, the total trace and the smallest full-space Choi
    eigenvalue of the propagator from the previous grid point (the identity
    propagator at t = 0), computed from the blocks. A built trajectory
    carries the state through its steps (:func:`_propagate`), O(d_e^4) per
    step, and forms no map; a stored one applies its maps to X0 as stacked
    matmuls.
    """
    _check_sectors(X0, traj)
    lams = [min_full_choi_eigenvalue(EDMap.identity(traj.d_e, traj.d_g))]
    lams += _step_values(traj, min_full_choi_eigenvalue_stack)
    if traj._index is None:
        ee, eg, _, gg = apply_stack(traj._stack, X0)
        trace_ee, trace_gg = np.trace(ee, axis1=1, axis2=2), np.trace(gg, axis1=1, axis2=2)
        norms = [np.linalg.norm(e) for e in eg]  # each alone: a stacked norm rounds otherwise
    else:
        trace_ee, trace_gg, norms = _propagate(traj, X0)
    return [{"t": t, "trace_ee": e.real, "trace_gg": g.real, "coherence_norm": float(norm),
             "total_trace": (e + g).real, "min_propagator_choi_eigenvalue": float(lam)}
            for t, e, g, norm, lam in zip(traj.grid.tolist(), trace_ee.tolist(),
                                          trace_gg.tolist(), norms, lams)]
