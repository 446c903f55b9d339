import json

import numpy as np
import pytest

from edchan import (
    BlockOperator,
    ChannelTrajectory,
    EDMap,
    GKLSGenerator,
    K_from_spec,
    LinearMap,
    NonInvertibleError,
    SemigroupSpec,
    apply,
    build_td_trajectory,
    check_tp_condition,
    compose,
    gkls_superop,
    is_cp_divisible,
    is_cp_ed,
    is_gkls_generator,
    matexp,
    propagator,
    psi_from_sink,
    semigroup_at,
    semigroup_trajectory,
    time_local_generators,
    trajectory_observables,
    wigner_weisskopf_at,
)
from edchan.channel import EDStack
from edchan.demos import noncp_divisible_trajectory
from edchan.dynamics import CHUNK, GeneratorTable, _midpoint_trajectory
from edchan.matcore import hermitian_part, vectorize
from conftest import (
    count_svds,
    rc,
    random_cp_map,
    random_density,
    random_gkls,
    random_hermitian,
    random_psd,
    random_semigroup_spec,
    random_tp_ground_channel,
)


def maxdiff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def edmap_maxdiff(m1: EDMap, m2: EDMap) -> float:
    return max(
        maxdiff(m1.phi.mat, m2.phi.mat),
        maxdiff(m1.omega.mat, m2.omega.mat),
        maxdiff(m1.B, m2.B),
        abs(m1.gamma - m2.gamma),
    )


def built_steps(traj) -> list:
    """A built trajectory's step k as an EDMap: the map of its stack at ``_index[k]``."""
    return [traj._stack.edmap(j) for j in traj._index.tolist()]


# ---------------------------------------------------------------------------
# gkls_superop
# ---------------------------------------------------------------------------

def test_gkls_superop_trivial_generator():
    gen = GKLSGenerator(np.zeros((2, 2)), np.zeros((2, 2)), ())
    assert np.abs(gkls_superop(gen).mat).max() == 0.0


def test_gkls_superop_scalar_decay():
    omega0, gamma0 = 1.3, 0.7
    gen = GKLSGenerator(np.array([[omega0]]), np.array([[gamma0]]), ())
    assert abs(gkls_superop(gen).mat[0, 0] + gamma0) < 1e-14


def test_gkls_superop_trace_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        gen = random_gkls(rng, 3, n_jumps=2)
        W = gkls_superop(gen).trace_functional()
        assert maxdiff(W, -gen.G) < 1e-12


def test_gkls_generator_validates_inputs():
    with pytest.raises(ValueError):
        GKLSGenerator(np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GKLSGenerator(np.zeros((2, 2)), np.diag([1.0, -0.4]))
    # the tolerance is DEFAULT_TOL as given, not scaled by the largest entry of H
    with pytest.raises(ValueError, match="H must be hermitian"):
        GKLSGenerator(np.array([[10, 5e-9j], [0, -10]]), np.zeros((2, 2)))


def test_gkls_generator_gamma_has_psd_real_part():
    rng = np.random.default_rng(1)
    gen = random_gkls(rng, 3, n_jumps=2)
    acc = sum((F.conj().T @ F for F in gen.F), np.zeros((3, 3), dtype=complex))
    Gamma = 1j * gen.H + 0.5 * (gen.G + acc)
    re = (Gamma + Gamma.conj().T) / 2
    assert np.linalg.eigvalsh(re)[0] > -1e-12


# ---------------------------------------------------------------------------
# K_from_spec
# ---------------------------------------------------------------------------

def test_K_reduces_to_minus_gamma_operator():
    rng = np.random.default_rng(2)
    gen = random_gkls(rng, 2, n_jumps=1)
    psi = random_cp_map(rng, 2, 2)
    spec = SemigroupSpec(gen, 0.0, 0.0, np.zeros(1), psi)
    acc = gen.F[0].conj().T @ gen.F[0]
    Gamma = 1j * gen.H + 0.5 * (gen.G + acc)
    assert maxdiff(K_from_spec(spec), -Gamma) < 1e-12


def test_K_wigner_weisskopf_form():
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 2)
    G = random_psd(rng, 2)
    psi = random_cp_map(rng, 2, 1)
    eps, kappa = 0.4, 0.9
    spec = SemigroupSpec(GKLSGenerator(H, G, ()), eps, kappa, np.zeros(0), psi)
    Heff = H - 0.5j * G
    expected = -1j * Heff - (1j * eps + kappa / 2) * np.eye(2)
    assert maxdiff(K_from_spec(spec), expected) < 1e-12


def test_K_scalar_hand_algebra():
    h, g, f = 0.5, 0.3, 0.4
    eps, kappa, c = 0.2, 0.6, 0.7
    gen = GKLSGenerator(np.array([[h]]), np.array([[g]]), (np.array([[f]]),))
    psi = LinearMap(np.array([[g]], dtype=complex))
    spec = SemigroupSpec(gen, eps, kappa, np.array([c]), psi)
    expected = (-1j * h - 0.5 * (g + f * f) - 1j * eps - kappa / 2
                - np.sqrt(kappa) * c * f)
    assert abs(K_from_spec(spec)[0, 0] - expected) < 1e-14


def test_semigroup_spec_validates():
    rng = np.random.default_rng(4)
    gen = random_gkls(rng, 2, n_jumps=1)
    psi = random_cp_map(rng, 2, 1)
    with pytest.raises(ValueError):
        SemigroupSpec(gen, 0.0, -0.1, np.zeros(1), psi)
    with pytest.raises(ValueError):
        SemigroupSpec(gen, 0.0, 0.0, np.array([1.2]), psi)
    with pytest.raises(ValueError):
        SemigroupSpec(gen, 0.0, 0.0, np.zeros(2), psi)
    for kappa in (np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be finite"):
            SemigroupSpec(gen, 0.0, kappa, np.zeros(1), psi)
    with pytest.raises(ValueError, match="c must be finite"):
        SemigroupSpec(gen, 0.0, 0.0, np.array([np.nan]), psi)
    with pytest.raises(ValueError):
        SemigroupSpec(gen, 0.0, 0.0, np.zeros(1),
                      LinearMap(-random_cp_map(rng, 2, 1).mat))


# ---------------------------------------------------------------------------
# semigroup_at
# ---------------------------------------------------------------------------

def test_semigroup_at_zero_is_identity():
    rng = np.random.default_rng(5)
    spec = random_semigroup_spec(rng, 2, 2)
    assert edmap_maxdiff(semigroup_at(spec, 0.0), EDMap.identity(2, 2)) < 1e-12


def test_semigroup_at_rejects_negative_time():
    rng = np.random.default_rng(6)
    spec = random_semigroup_spec(rng, 2, 1)
    with pytest.raises(ValueError):
        semigroup_at(spec, -0.5)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            semigroup_at(spec, t)


def test_semigroup_scalar_amplitude_damping_trajectory():
    g0 = 0.9
    gen = GKLSGenerator(np.zeros((1, 1)), np.array([[g0]]), ())
    psi = LinearMap(np.array([[g0]], dtype=complex))
    spec = SemigroupSpec(gen, 0.0, 0.0, np.zeros(0), psi)
    assert check_tp_condition(spec)
    for t in (0.3, 1.0, 2.5):
        m = semigroup_at(spec, t)
        assert abs(m.phi.mat[0, 0] - np.exp(-g0 * t)) < 1e-12
        assert abs(m.omega.mat[0, 0] - (1 - np.exp(-g0 * t))) < 1e-12
        assert abs(m.B[0, 0] - np.exp(-g0 * t / 2)) < 1e-12


def test_semigroup_law_random_specs():
    rng = np.random.default_rng(7)
    for tp in (True, False):
        spec = random_semigroup_spec(rng, 2, 2, tp=tp)
        for t, s in ((0.3, 0.5), (1.2, 0.7)):
            lhs = compose(semigroup_at(spec, t), semigroup_at(spec, s))
            rhs = semigroup_at(spec, t + s)
            assert edmap_maxdiff(lhs, rhs) < 1e-10


def test_semigroup_members_are_cp():
    rng = np.random.default_rng(8)
    spec = random_semigroup_spec(rng, 3, 2, n_jumps=2, tp=False)
    for t in np.linspace(0.0, 5.0, 11):
        assert is_cp_ed(semigroup_at(spec, t)).cp


# ---------------------------------------------------------------------------
# check_tp_condition / psi_from_sink
# ---------------------------------------------------------------------------

def test_tp_condition_fails_without_feed():
    rng = np.random.default_rng(9)
    gen = random_gkls(rng, 2, n_jumps=0)
    spec = SemigroupSpec(gen, 0.0, 0.0, np.zeros(0), LinearMap.zero(2, 2))
    assert not check_tp_condition(spec)


def test_tp_condition_state_dump_feed():
    # psi(X) = tr(G X) Omega satisfies the trace condition by construction
    rng = np.random.default_rng(10)
    G = random_psd(rng, 2)
    Omega = random_density(rng, 3)
    psi = LinearMap(np.outer(vectorize(Omega), vectorize(G.T)))  # tr(G X) Omega
    gen = GKLSGenerator(random_hermitian(rng, 2), G, ())
    spec = SemigroupSpec(gen, 0.0, 0.0, np.zeros(0), psi)
    assert check_tp_condition(spec)


def test_psi_from_sink_zero_loss():
    E = LinearMap.identity(2)
    psi = psi_from_sink(np.zeros((3, 3)), E)
    assert np.abs(psi.mat).max() == 0.0
    assert psi.d_in == 3 and psi.d_out == 2


def test_psi_from_sink_recovers_state_dump():
    rng = np.random.default_rng(11)
    G = random_psd(rng, 3)
    Omega = random_density(rng, 2)
    E = LinearMap(np.outer(vectorize(Omega), vectorize(np.eye(2))))  # tr(X) Omega
    psi = psi_from_sink(G, E)
    expected = LinearMap(np.outer(vectorize(Omega), vectorize(G.T)))  # tr(G X) Omega
    assert maxdiff(psi.mat, expected.mat) < 1e-10


def test_psi_from_sink_trace_identity_with_channel():
    rng = np.random.default_rng(12)
    G = random_psd(rng, 3, rank=2)
    psi = psi_from_sink(G, random_tp_ground_channel(rng, 2))
    assert maxdiff(psi.trace_functional(), G) < 1e-10


def test_psi_from_sink_matches_row_grouping_loop_exactly():
    # the factor operators stack d_g eigenvector rows each, zero-padded; the
    # reference is the explicit loop that groups them
    rng = np.random.default_rng(17)
    for d_e, d_g, rank in [(3, 2, 3), (4, 3, 4), (5, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 0)]:
        G = random_psd(rng, d_e, rank=rank) if rank else np.zeros((d_e, d_e))
        E = random_tp_ground_channel(rng, d_g)
        w, V = np.linalg.eigh(hermitian_part(G))
        rows = [np.sqrt(wi) * V[:, i].conj() for i, wi in enumerate(w) if wi > 1e-9]
        ops = []
        for start in range(0, len(rows), d_g):
            M = np.zeros((d_g, d_e), dtype=complex)
            for offset, row in enumerate(rows[start:start + d_g]):
                M[offset, :] = row
            ops.append(M)
        sink = LinearMap.from_kraus(ops, d_in=d_e, d_out=d_g)
        assert np.array_equal(psi_from_sink(G, E).mat, (E @ sink).mat)


def test_psi_from_sink_warns_on_bad_sink():
    rng = np.random.default_rng(13)
    G = random_psd(rng, 2)
    with pytest.warns(UserWarning):
        psi_from_sink(G, LinearMap(0.5 * random_cp_map(rng, 2, 2).mat))


# ---------------------------------------------------------------------------
# wigner_weisskopf_at
# ---------------------------------------------------------------------------

def test_ww_zero_time_is_identity():
    rng = np.random.default_rng(14)
    H = random_hermitian(rng, 2)
    G = random_psd(rng, 2)
    psi = random_cp_map(rng, 2, 2)
    m = wigner_weisskopf_at(H, G, 0.1, 0.2, psi, 0.0)
    assert edmap_maxdiff(m, EDMap.identity(2, 2)) < 1e-12


def test_ww_without_damping_is_unitary_conjugation():
    rng = np.random.default_rng(15)
    H = random_hermitian(rng, 3)
    psi = LinearMap.zero(3, 2)
    for t in (0.5, 2.0):
        m = wigner_weisskopf_at(H, np.zeros((3, 3)), 0.0, 0.0, psi, t)
        U = matexp(-1j * t * H)
        assert maxdiff(m.phi.mat, np.kron(U.conj(), U)) < 1e-10
        assert maxdiff(m.B, U) < 1e-10
        assert np.abs(m.omega.mat).max() < 1e-12


@pytest.mark.parametrize("eps, kappa, message", [
    (np.nan, 0.2, "epsilon must be finite"),
    (np.inf, 0.2, "epsilon must be finite"),
    (0.1, np.nan, "kappa must be finite and non-negative"),
    (0.1, np.inf, "kappa must be finite and non-negative"),
    (0.1, -0.5, "kappa must be finite and non-negative"),
], ids=["eps_nan", "eps_inf", "kappa_nan", "kappa_inf", "kappa_negative"])
def test_ww_rejects_bad_coherence_parameters(eps, kappa, message):
    psi = LinearMap.zero(2, 1)
    with pytest.raises(ValueError, match=message):
        wigner_weisskopf_at(np.zeros((2, 2)), np.zeros((2, 2)), eps, kappa, psi, 1.0)


def test_ww_rejects_psi_on_wrong_sector():
    with pytest.raises(ValueError, match="psi must act on the excited sector"):
        wigner_weisskopf_at(np.eye(2), np.zeros((2, 2)), 0.1, 0.2, LinearMap.zero(3, 1), 1.0)


def test_ww_agrees_with_jumpless_semigroup():
    rng = np.random.default_rng(16)
    H = random_hermitian(rng, 2)
    G = random_psd(rng, 2)
    psi = random_cp_map(rng, 2, 2)
    eps, kappa = 0.3, 0.7
    spec = SemigroupSpec(GKLSGenerator(H, G, ()), eps, kappa, np.zeros(0), psi)
    for t in (0.4, 1.6):
        ww = wigner_weisskopf_at(H, G, eps, kappa, psi, t)
        sg = semigroup_at(spec, t)
        assert edmap_maxdiff(ww, sg) < 1e-10


# ---------------------------------------------------------------------------
# trajectories, extraction, propagators
# ---------------------------------------------------------------------------

def identity_trajectory(d_e, d_g, n=5):
    grid = np.linspace(0.0, 1.0, n)
    return ChannelTrajectory(grid, tuple(EDMap.identity(d_e, d_g) for _ in grid))


def test_trajectory_validation():
    def ids(n):
        return tuple(EDMap.identity(1, 1) for _ in range(n))

    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        ChannelTrajectory(np.array([0.0, 0.0, 1.0]), ids(3))
    with pytest.raises(ValueError, match="^grid must start at 0, got 0.5$"):
        ChannelTrajectory(np.array([0.5, 1.0]), ids(2))
    with pytest.raises(ValueError, match="^grid and maps must have equal length$"):
        ChannelTrajectory(grid, ids(3))
    with pytest.raises(ValueError, match="^maps must be EDMap instances$"):
        ChannelTrajectory(grid, (EDMap.identity(1, 1), LinearMap.identity(1)))
    with pytest.raises(ValueError, match="^all maps must share the sector dimensions$"):
        ChannelTrajectory(grid, (EDMap.identity(1, 1), EDMap.identity(1, 2)))
    bad_first = EDMap(LinearMap(np.array([[0.5]])), LinearMap.zero(1, 1),
                      np.eye(1, dtype=complex), 1.0)
    with pytest.raises(ValueError, match=r"^maps\[0\] must be the identity channel "
                                         r"\(deviation 5\.000e-01\)$"):
        ChannelTrajectory(grid, (bad_first, bad_first))

    # the blocks a built and a hand-built trajectory hold are read-only
    spec = random_semigroup_spec(np.random.default_rng(19), 2, 2)
    built = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 5))
    for traj in (built, ChannelTrajectory(built.grid, built.maps), identity_trajectory(2, 1)):
        blocks = []
        for value in vars(traj).values():
            if isinstance(value, EDStack):
                blocks += [value.phi, value.omega, value.B, value.gamma]
            elif isinstance(value, tuple):
                blocks += [A for m in value for A in (m.phi.mat, m.omega.mat, m.B)]
        assert len(blocks) >= 4
        for A in blocks:
            with pytest.raises(ValueError, match="read-only"):
                A.flat[0] = 0


def test_extraction_recovers_constant_generators():
    rng = np.random.default_rng(17)
    spec = random_semigroup_spec(rng, 2, 2)
    grid = np.arange(11) * 1e-3
    traj = semigroup_trajectory(spec, grid)
    SL = gkls_superop(spec.gen).mat
    K = K_from_spec(spec)
    for i in (1, 5, 9):
        tl = time_local_generators(traj, i)
        assert maxdiff(tl.L.mat, SL) < 1e-5
        assert maxdiff(tl.K, K) < 1e-5
        assert maxdiff(tl.psi.mat, spec.psi.mat) < 1e-5


def test_extraction_identity_trajectory_gives_zero():
    traj = identity_trajectory(2, 2)
    tl = time_local_generators(traj, 2)
    assert np.abs(tl.L.mat).max() < 1e-12
    assert np.abs(tl.K).max() < 1e-12
    assert np.abs(tl.psi.mat).max() < 1e-12


def test_extraction_wigner_weisskopf_K():
    rng = np.random.default_rng(18)
    H = random_hermitian(rng, 2, 0.5)
    G = random_psd(rng, 2, 0.5)
    psi = random_cp_map(rng, 2, 1, scale=0.5)
    eps, kappa = 0.2, 0.4
    grid = np.arange(9) * 1e-3
    maps = tuple(wigner_weisskopf_at(H, G, eps, kappa, psi, t) for t in grid)
    traj = ChannelTrajectory(grid, maps)
    tl = time_local_generators(traj, 4)
    Heff = H - 0.5j * G
    expected = -1j * Heff - (1j * eps + kappa / 2) * np.eye(2)
    assert maxdiff(tl.K, expected) < 1e-5


def test_extraction_boundary_and_singular_errors():
    traj = identity_trajectory(1, 1)
    with pytest.raises(ValueError):
        time_local_generators(traj, 0)
    singular = EDMap(LinearMap(np.array([[0.0]])), LinearMap.zero(1, 1),
                     np.eye(1, dtype=complex), 1.0)
    grid = np.array([0.0, 0.5, 1.0])
    traj = ChannelTrajectory(grid, (EDMap.identity(1, 1), singular,
                                    EDMap.identity(1, 1)))
    with pytest.raises(NonInvertibleError) as err:
        time_local_generators(traj, 1)
    assert err.value.reason == "phi_singular"


def test_propagator_singular_map_names_reason_and_grid_point():
    singular = EDMap(EDMap.identity(2, 1).phi, LinearMap.zero(2, 1),
                     np.diag([1.0, 0.0]).astype(complex), 1.0)
    traj = ChannelTrajectory(np.array([0.0, 0.25, 0.5]),
                             (EDMap.identity(2, 1), singular, EDMap.identity(2, 1)))
    with pytest.raises(NonInvertibleError) as err:
        propagator(traj, 2, 1)
    assert err.value.reason == "B_singular"
    assert "grid index 1 (t = 0.25)" in str(err.value)


def test_propagator_at_equal_times_is_identity():
    rng = np.random.default_rng(19)
    spec = random_semigroup_spec(rng, 2, 1)
    traj = semigroup_trajectory(spec, np.linspace(0, 1, 5))
    assert edmap_maxdiff(propagator(traj, 3, 3), EDMap.identity(2, 1)) < 1e-9


def test_propagator_homogeneity():
    rng = np.random.default_rng(20)
    spec = random_semigroup_spec(rng, 2, 2)
    grid = np.linspace(0.0, 2.0, 9)
    traj = semigroup_trajectory(spec, grid)
    for i, j in ((4, 1), (8, 3)):
        prop = propagator(traj, i, j)
        direct = semigroup_at(spec, grid[i] - grid[j])
        assert edmap_maxdiff(prop, direct) < 1e-9


def test_propagator_cocycle():
    rng = np.random.default_rng(21)
    spec = random_semigroup_spec(rng, 2, 2, tp=False)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.5, 7))
    for t, s, u in ((6, 4, 2), (5, 3, 0)):
        lhs = propagator(traj, t, u)
        rhs = compose(propagator(traj, t, s), propagator(traj, s, u))
        assert edmap_maxdiff(lhs, rhs) < 1e-8


def test_propagator_index_validation():
    traj = identity_trajectory(1, 1)
    with pytest.raises(ValueError):
        propagator(traj, 1, 3)


def test_semigroup_trajectory_long_grid_drift():
    # 10^4 steps of the one-step recurrence against the per-point exponentials
    rng = np.random.default_rng(31)
    spec = random_semigroup_spec(rng, 3, 2)
    grid = np.linspace(0.0, 3.0, 10**4)
    maps = semigroup_trajectory(spec, grid).maps  # each read composes every map
    for i in (1, 997, 2500, 5001, 7777, len(grid) - 1):
        assert edmap_maxdiff(maps[i], semigroup_at(spec, grid[i])) <= 1e-11


def stacked(A) -> int:
    """The number of matrices in a stack: the product of its leading dimensions."""
    return int(np.prod(np.shape(A)[:-2]))


def test_semigroup_trajectory_one_exponential_pair_per_distinct_step(monkeypatch):
    from edchan import dynamics

    matrices = {4: 0, 2: 0}  # exponentiated matrices, by side
    expm = dynamics._expm

    def counted(A, *args):
        matrices[A.shape[-1]] += stacked(A)
        return expm(A, *args)

    monkeypatch.setattr(dynamics, "_expm", counted)
    spec = random_semigroup_spec(np.random.default_rng(34), 2, 2)
    # a linspace grid's 8 float step lengths differ only by rounding: one member
    grid = np.linspace(0.0, 1.0, 101)
    assert len(set(np.diff(grid))) == 8
    semigroup_trajectory(spec, grid)
    # e^{dt L} and its integral from one n-square kernel matrix, e^{dt K} from another
    assert matrices == {4: 1, 2: 1}
    # a non-uniform grid keeps one member per step length
    matrices.update({4: 0, 2: 0})
    grid = np.linspace(0.0, 1.0, 40) ** 1.5
    assert len(set(np.diff(grid))) == 39
    semigroup_trajectory(spec, grid)
    assert matrices == {4: 39, 2: 39}


def test_semigroup_at_is_the_trajectory_step_bit_for_bit():
    # one member constructor: the trajectory's step over dt is semigroup_at(spec, dt) exactly
    grid = np.array([0.0, 0.1, 0.25, 1.0, 1.0 + 1e-3, 31.0])
    for seed, (d_e, d_g) in ((41, (1, 1)), (42, (2, 1)), (43, (3, 2)), (44, (4, 3))):
        spec = random_semigroup_spec(np.random.default_rng(seed), d_e, d_g)
        traj = semigroup_trajectory(spec, grid)
        for dt, step in zip(np.diff(grid), built_steps(traj)):
            member = semigroup_at(spec, dt)
            assert np.array_equal(member.phi.mat, step.phi.mat), (seed, dt)
            assert np.array_equal(member.omega.mat, step.omega.mat), (seed, dt)
            assert np.array_equal(member.B, step.B), (seed, dt)


def builder_mean(dts):
    """The mean of one group of step lengths as the builder takes it: from the
    smallest, the offsets summed in grid order."""
    lo = dts.min()
    return lo + np.cumsum(dts - lo)[-1] / dts.size


def assert_member_is(spec, m: EDMap, dt: float):
    member = semigroup_at(spec, dt)
    assert np.array_equal(member.phi.mat, m.phi.mat), dt
    assert np.array_equal(member.omega.mat, m.omega.mat), dt
    assert np.array_equal(member.B, m.B), dt


@pytest.mark.parametrize("t_max, points",
                         [(1.0, 101), (1.0, 50), (2.0, 21), (1.0, 1001), (3.7, 101)])
def test_linspace_grid_builds_one_member_at_the_mean_step(t_max, points):
    spec = random_semigroup_spec(np.random.default_rng(45), 3, 2)
    grid = np.linspace(0.0, t_max, points)
    dts = np.diff(grid)
    assert len(set(dts)) > 1  # the grid's rounding makes several float lengths
    traj = semigroup_trajectory(spec, grid)
    assert len(traj._stack) == 1 and traj._index.tolist() == [0] * (points - 1)
    assert_member_is(spec, traj._stack.edmap(0), builder_mean(dts))


def test_linspace_step_lengths_spread_by_at_most_two_spacings():
    # the grids evolve and divisibility make, over twelve decades of t_max:
    # one group each, with a margin of 2x under the 4-spacing window
    from edchan.dynamics import _step_lengths

    for t_max in np.logspace(-6, 6, 37):
        for points in (2, 3, 7, 21, 50, 101, 333, 1001, 4097, 10**4):
            grid = np.linspace(0.0, t_max, points)
            dts = np.diff(grid)
            assert dts.max() - dts.min() <= 2 * np.spacing(grid[-1]), (t_max, points)
            lengths, index = _step_lengths(grid)
            assert lengths.size == 1 and not index.any(), (t_max, points)


def test_step_length_groups_are_anchored():
    spec = random_semigroup_spec(np.random.default_rng(46), 2, 1)
    u = np.spacing(2.0)  # the spacing of every grid end below

    def grouped(lengths):
        grid = np.concatenate(([0.0], np.cumsum(lengths)))
        assert np.array_equal(np.diff(grid), lengths) and np.spacing(grid[-1]) == u
        return grid, semigroup_trajectory(spec, grid)

    # 5 spacings apart: two members, each its own length bit for bit
    grid, traj = grouped([1.0, 1.0 + 5 * u])
    assert len(traj._stack) == 2 and traj._index.tolist() == [0, 1]
    for dt, step in zip(np.diff(grid), built_steps(traj)):
        assert_member_is(spec, step, dt)
    # 4 spacings apart: one member at the mean
    grid, traj = grouped([1.0, 1.0 + 4 * u])
    assert len(traj._stack) == 1
    assert_member_is(spec, traj._stack.edmap(0), builder_mean(np.diff(grid)))
    # 0, 3 and 6 spacings above the smallest: the group anchored at the smallest
    # takes the second length only, so groups never chain
    grid, traj = grouped([1.0 + 6 * u, 1.0, 1.0 + 3 * u])
    assert len(traj._stack) == 2 and traj._index.tolist() == [1, 0, 0]
    dts = np.diff(grid)
    assert_member_is(spec, traj._stack.edmap(0), builder_mean(dts[1:]))
    assert_member_is(spec, traj._stack.edmap(1), dts[0])
    # three equal lengths whose plain mean rounds away from them keep their value
    grid = np.array([0.0, 0.7, 1.4, 1.41, 2.11])
    dts = np.diff(grid)
    assert dts[[0, 1, 3]].tolist() == [0.7] * 3 and (0.7 + 0.7 + 0.7) / 3 != 0.7
    traj = semigroup_trajectory(spec, grid)
    assert traj._index.tolist() == [1, 1, 0, 1]
    assert_member_is(spec, traj._stack.edmap(1), 0.7)


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.5]], ids=["one_point", "two_points"])
def test_semigroup_trajectory_on_the_shortest_grids(grid):
    spec = random_semigroup_spec(np.random.default_rng(47), 2, 2)
    traj = semigroup_trajectory(spec, grid)
    assert len(traj._stack) == len(traj) - 1
    for t, m in zip(grid, traj.maps):
        assert edmap_maxdiff(m, semigroup_at(spec, t)) == 0.0
    report = is_cp_divisible(traj)
    assert report.cp_divisible and len(report.step_min_eigenvalues) == len(grid) - 1
    rows = trajectory_observables(traj, BlockOperator.identity(2, 2))
    assert [row["t"] for row in rows] == grid


def test_semigroup_trajectory_nonuniform_grid():
    rng = np.random.default_rng(32)
    spec = random_semigroup_spec(rng, 3, 2)
    grid = np.linspace(0.0, 1.0, 100) ** 1.5
    traj = semigroup_trajectory(spec, grid)
    for t, m in zip(grid, traj.maps):
        assert edmap_maxdiff(m, semigroup_at(spec, t)) <= 1e-12


@pytest.mark.parametrize("grid", [
    [],
    [0.5, 1.0],
    [-0.5, 0.0, 1.0],
    [0.0, 1.0, 1.0, 2.0],
    [0.0, 1.0, 0.5],
], ids=["empty", "starts_above_0", "starts_below_0", "repeated", "decreasing"])
def test_semigroup_trajectory_rejects_bad_grids(grid):
    spec = random_semigroup_spec(np.random.default_rng(33), 2, 1)
    with pytest.raises(ValueError):
        semigroup_trajectory(spec, grid)


# ---------------------------------------------------------------------------
# CP-divisibility
# ---------------------------------------------------------------------------

def test_semigroup_trajectory_is_cp_divisible():
    rng = np.random.default_rng(22)
    spec = random_semigroup_spec(rng, 2, 2)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 2.0, 21))
    report = is_cp_divisible(traj)
    assert report.cp_divisible
    assert report.min_eigenvalue > -1e-9
    # a trace-preserving trajectory has trace-preserving propagators
    from edchan import is_trace_preserving

    for i in (5, 12, 20):
        assert is_trace_preserving(propagator(traj, i, i - 1), 1e-9)


def test_identity_trajectory_is_cp_divisible():
    for n in (1, 5):
        report = is_cp_divisible(identity_trajectory(2, 2, n))
        assert report.cp_divisible
        assert report.worst_pair is None  # no step lies below -tol


def test_window_fixture_not_cp_divisible_but_cp_at_all_times():
    traj = noncp_divisible_trajectory()
    for m in traj.maps:
        assert is_cp_ed(m).cp
    report = is_cp_divisible(traj)
    assert not report.cp_divisible
    assert report.min_eigenvalue < -1e-4
    i, j = report.worst_pair
    assert j == i - 1


def _built_trajectory(kind):
    if kind == "table":
        base = random_semigroup_spec(np.random.default_rng(36), 2, 2)
        SL, K = gkls_superop(base.gen).mat, K_from_spec(base)
        return build_td_trajectory(lambda t: (1.0 + 0.3 * np.sin(3 * t)) * SL,
                                   lambda t: (1.0 + 0.2 * np.cos(t)) * K,
                                   lambda t: (1.0 + 0.5 * t) * base.psi.mat,
                                   np.linspace(0.0, 1.0, 41))
    if kind == "window":
        return noncp_divisible_trajectory()
    spec = random_semigroup_spec(np.random.default_rng(35), 3, 2)
    grid = np.linspace(0.0, 1.0, 101) if kind == "uniform" else np.linspace(0.0, 1.0, 100) ** 1.5
    return semigroup_trajectory(spec, grid)


@pytest.mark.parametrize("kind", ["uniform", "power_law", "table", "window"])
def test_built_maps_are_steps_composed(kind):
    traj = _built_trajectory(kind)
    maps = traj.maps
    assert edmap_maxdiff(maps[0], EDMap.identity(traj.d_e, traj.d_g)) == 0.0
    for k, step in enumerate(built_steps(traj)):
        assert edmap_maxdiff(maps[k + 1], compose(step, maps[k])) == 0.0


@pytest.mark.parametrize("kind", ["uniform", "power_law", "table", "window"])
def test_built_steps_match_inversion_oracle(kind):
    from edchan.jsonio import trajectory_from_dict, trajectory_to_dict

    traj = _built_trajectory(kind)
    plain = ChannelTrajectory(traj.grid, traj.maps)
    assert len(traj._index) == len(traj) - 1 and plain._index is None
    for k, step in enumerate(built_steps(traj)):
        assert edmap_maxdiff(step, propagator(plain, k + 1, k)) <= 1e-12

    stored = trajectory_from_dict(trajectory_to_dict(traj))
    built, oracle = is_cp_divisible(traj), is_cp_divisible(stored)
    assert built.cp_divisible == oracle.cp_divisible
    assert maxdiff(built.step_min_eigenvalues, oracle.step_min_eigenvalues) <= 1e-12
    X0 = BlockOperator.from_full(random_density(np.random.default_rng(37), traj.d_e + traj.d_g),
                                 traj.d_e, traj.d_g)
    for row, ref in zip(trajectory_observables(traj, X0), trajectory_observables(stored, X0)):
        assert row.keys() == ref.keys()
        assert max(abs(row[c] - ref[c]) for c in row) <= 1e-12


def test_is_cp_divisible_runs_block_test_once_per_distinct_step(monkeypatch):
    from edchan import channel, dynamics

    matrices = []
    block_test = dynamics.is_cp_ed_stack

    def counted(s, *args):
        matrices.append(len(s))
        return block_test(s, *args)

    def no_inverse(m):
        raise AssertionError("a built trajectory needs no inversion")

    monkeypatch.setattr(dynamics, "is_cp_ed_stack", counted)
    # dynamics inverts only through invert_stack
    monkeypatch.setattr(channel, "invert", no_inverse)
    for module in (channel, dynamics):
        monkeypatch.setattr(module, "invert_stack", no_inverse)
    spec = random_semigroup_spec(np.random.default_rng(38), 2, 2)
    # one step length on a linspace grid, one per step on a non-uniform one
    for grid, members in ((np.linspace(0.0, 1.0, 101), 1), (np.linspace(0.0, 1.0, 40) ** 1.5, 39)):
        matrices.clear()
        report = is_cp_divisible(semigroup_trajectory(spec, grid))
        assert report.cp_divisible and len(report.step_min_eigenvalues) == len(grid) - 1
        assert sum(matrices) == members


def test_is_cp_divisible_eigensolves_three_blocks_per_distinct_step(monkeypatch):
    # omega and the damped block (is_cp_ed) and the coupled phi-B matrix; C_omega's
    # minimum is is_cp_ed's, not a second eigensolve
    grid = np.linspace(0.0, 1.0, 101)
    traj = semigroup_trajectory(random_semigroup_spec(np.random.default_rng(39), 2, 2), grid)
    matrices = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, fn=fn, **kw: matrices.append(stacked(A)) or fn(A, *a, **kw))
    assert is_cp_divisible(traj).cp_divisible
    assert sum(matrices) == 3  # the grid's one step length


def decay_spec(rate, d_e=2):
    """d_g = 1: the last excited level decays at ``rate`` into the ground level,
    so phi_t has condition number exp(rate t)."""
    G = np.diag([0.0] * (d_e - 1) + [rate])
    psi = np.zeros((1, d_e * d_e))
    psi[0, -1] = rate  # X -> rate X[d_e - 1, d_e - 1]
    gen = GKLSGenerator(np.zeros((d_e, d_e)), G)
    return SemigroupSpec(gen, 0.0, 0.0, np.zeros(0), LinearMap(psi))


@pytest.mark.parametrize("steps, index", [(101, 62), (37, 23)])
def test_singular_edge_error_matches_inversion(steps, index):
    # a stored copy inverts its maps, and maps[index] is the first past cond 1e12
    traj = semigroup_trajectory(decay_spec(30.0), np.linspace(0.0, 1.5, steps))
    plain = ChannelTrajectory(traj.grid, traj.maps)
    X0 = BlockOperator.identity(2, 1)
    for check in (is_cp_divisible, lambda tr: trajectory_observables(tr, X0)):
        with pytest.raises(NonInvertibleError) as oracle:
            check(plain)
        assert oracle.value.reason == "phi_singular"
        assert f"grid index {index} " in str(oracle.value)


def test_built_checks_keep_no_maps():
    # divisibility evaluates the steps and evolve carries the state through
    # them, so neither holds a map (the maps of 2001 points are ~137 MB)
    import tracemalloc

    traj = semigroup_trajectory(decay_spec(20.0, d_e=8), np.linspace(0.0, 1.0, 2001))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_cp_divisible(traj).cp_divisible
        rows = trajectory_observables(traj, BlockOperator.identity(8, 1))
        assert len(rows) == 2001
        del rows
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 5e6


def test_maps_are_formed_anew_on_each_read():
    # a built and a stored trajectory keep their grid and stack, and each read
    # of maps returns new maps equal to the last read's
    spec = random_semigroup_spec(np.random.default_rng(90), 3, 2)
    built = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 2 * CHUNK + 5) ** 1.5)
    for traj in (built, ChannelTrajectory(built.grid, built.maps)):
        first, second = traj.maps, traj.maps
        assert set(vars(traj)) == {"grid", "_stack", "_index"}  # no "maps" among them
        assert first is not second and len(first) == len(second) == len(traj)
        for a, b in zip(first, second):
            assert a is not b
            for block in ("phi", "omega"):
                assert np.array_equal(getattr(a, block).mat, getattr(b, block).mat)
            assert np.array_equal(a.B, b.B) and a.gamma == b.gamma


def test_dropping_maps_frees_them():
    # the tuple a read returns is the caller's alone: dropping it frees the maps
    import gc
    import tracemalloc

    traj = semigroup_trajectory(random_semigroup_spec(np.random.default_rng(91), 6, 2),
                                np.linspace(0.0, 1.0, 1000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        maps = traj.maps
        held = tracemalloc.get_traced_memory()[0] - before
        del maps
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # phi and omega alone are (36^2 + 4 * 36) complex entries per map
    assert held >= 1000 * (36 * 36 + 4 * 36) * 16
    assert abs(after - before) <= 1e6


@pytest.mark.parametrize("make_spec, grid, refused_at", [
    pytest.param(lambda: decay_spec(30.0), np.linspace(0.0, 1.5, 101), 62, id="rate30-101"),
    pytest.param(lambda: decay_spec(30.0), np.linspace(0.0, 1.5, 37), 23, id="rate30-37"),
    pytest.param(lambda: decay_spec(30.0), np.linspace(0.0, 10.0, 101), 10, id="rate30-to-t10"),
    pytest.param(lambda: decay_spec(20.0, d_e=8), np.linspace(0.0, 1.0, 2001), None,
                 id="rate20-de8-2001"),
    pytest.param(lambda: decay_spec(40.0), np.array([0.0]), None, id="one-point"),
    pytest.param(lambda: decay_spec(40.0), np.array([0.0, 1.0]), None, id="two-point"),
    # a uniform grid below 1e12 and one refused at a chunk's first map, power-law
    # grids (a member per step) below and past 1e12, and a driven level whose maps
    # stay well conditioned while phi decays
    pytest.param(lambda: decay_spec(20.0), np.linspace(0.0, 1.0, 101), None, id="rate20-101"),
    pytest.param(lambda: decay_spec(0.585 * 60), np.linspace(0.0, 1.0, 61), 48,
                 id="rate35.1-61"),
    pytest.param(lambda: decay_spec(20.0), np.linspace(0.0, 1.0, 60) ** 1.5, None,
                 id="rate20-power-60"),
    pytest.param(lambda: decay_spec(30.0), 1.5 * np.linspace(0.0, 1.0, 60) ** 1.5, 43,
                 id="rate30-power-60"),
    pytest.param(lambda: driven_level(), np.linspace(0.0, 0.8, 101), None, id="driven-101"),
])
def test_built_trajectory_is_decided_from_its_steps(monkeypatch, make_spec, grid, refused_at):
    # cond(phi) of the decay spec's map at t is exp(rate t): a stored copy inverts
    # its maps and refuses the first past 1e12, at grid index refused_at; the
    # built trajectory's propagators are its steps, and nothing is refused
    from edchan.cpcheck import min_full_choi_eigenvalue
    from edchan.dynamics import _step_lengths

    spec = make_spec()
    traj = semigroup_trajectory(spec, grid)
    X0 = BlockOperator.from_full(random_density(np.random.default_rng(68), spec.d_e + 1),
                                 spec.d_e, 1)
    svds = count_svds(monkeypatch)
    report = is_cp_divisible(traj)
    rows = trajectory_observables(traj, X0)
    assert svds == [] and report.cp_divisible
    # each step is the semigroup member at its group's length
    dts, index = _step_lengths(grid)
    members = [semigroup_at(spec, dt) for dt in dts]
    assert [repr(r) for r in report.step_reports] == [repr(is_cp_ed(members[j])) for j in index]
    lams = [min_full_choi_eigenvalue(m) for m in members]
    lams = [min_full_choi_eigenvalue(EDMap.identity(spec.d_e, 1))] + [lams[j] for j in index]
    want = [observable_row(t, semigroup_at(spec, t), X0, lam) for t, lam in zip(grid, lams)]
    assert len(rows) == len(grid)
    assert max(abs(row[c] - ref[c]) for row, ref in zip(rows, want) for c in ref) <= 1e-13
    stored = ChannelTrajectory(traj.grid, traj.maps)
    if refused_at is None:
        assert is_cp_divisible(stored).cp_divisible == report.cp_divisible
        return
    for check in (is_cp_divisible, lambda tr: trajectory_observables(tr, X0)):
        with pytest.raises(NonInvertibleError) as err:
            check(stored)
        assert err.value.reason == "phi_singular"
        assert f"at grid index {refused_at} (t = {grid[refused_at]:.6g})" in str(err.value)


@pytest.mark.parametrize("kind", ["seeded", "decaying"])
def test_stored_trajectory_runs_svds_only_past_the_certificate(monkeypatch, tmp_path, kind):
    # the stored branch inverts every map but the last; a block is certified
    # when |M|_F |M^-1|_F <= 1e8, and only the rest get an SVD. The seeded maps
    # are all certified; the rate-20 decay's reach condition number 2.0e11 on
    # linspace(0, 1.3, 101), so the SVD decides its last maps and accepts them
    from edchan import cli
    from edchan.jsonio import load, trajectory_from_dict, trajectory_to_dict

    if kind == "seeded":
        spec = random_semigroup_spec(np.random.default_rng(74), 4, 2)
        traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 40) ** 1.5)
    else:
        traj = semigroup_trajectory(decay_spec(20.0), np.linspace(0.0, 1.3, 101))
    path = tmp_path / "stored.json"
    path.write_text(json.dumps(trajectory_to_dict(traj)))
    inverted = trajectory_from_dict(load(path)).maps[:-1]
    blocks = [np.stack([m.phi.mat for m in inverted]), np.stack([m.B for m in inverted])]
    bounds = [np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(M), axis=(1, 2))
              for M in blocks]
    opened = [M[bound > 1e8] for M, bound in zip(blocks, bounds)]
    assert [len(M) for M in opened] == ([0, 0] if kind == "seeded" else [29, 0])
    svds = count_svds(monkeypatch)
    for command in ("divisibility", "evolve"):
        svds.clear()
        assert cli.main([command, "--input", str(path), "--output", str(tmp_path / "out")]) == 0
        # one SVD per chunk that holds an open phi, on those matrices alone
        assert np.array_equal(np.concatenate(svds or [opened[0]]), opened[0])


# ---------------------------------------------------------------------------
# built trajectories: the state and two-time maps from the steps
# ---------------------------------------------------------------------------

def driven_level(rate=40.0):
    """d_e = 2, d_g = 1: H = rate sigma_x drives the level that G = diag(0, rate)
    empties into the ground level, psi X -> rate X[1, 1]. Its maps stay well
    conditioned while phi decays towards roundoff."""
    psi = np.zeros((1, 4))
    psi[0, -1] = rate
    gen = GKLSGenerator(rate * np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, rate]))
    return SemigroupSpec(gen, 0.0, 0.0, np.zeros(0), LinearMap(psi))


def count_compositions(monkeypatch) -> list:
    """Record the stacks every composition in dynamics and channel puts first."""
    from edchan import channel, dynamics

    composed, compose_stack = [], channel.compose_stack
    for module in (channel, dynamics):
        monkeypatch.setattr(module, "compose_stack",
                            lambda s2, s1: composed.append(s2) or compose_stack(s2, s1))
    return composed


@pytest.mark.parametrize("points", [101, 2001])
@pytest.mark.parametrize("d_e, d_g", [(2, 1), (4, 2), (8, 3)])
@pytest.mark.parametrize("kind", ["spec", "table"])
def test_propagated_rows_match_composed_maps(kind, d_e, d_g, points):
    rng = np.random.default_rng([63, d_e, points])
    spec = random_semigroup_spec(rng, d_e, d_g)
    grid = np.linspace(0.0, 1.0, points)
    if kind == "spec":
        traj = semigroup_trajectory(spec, grid)
    else:
        SL, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
        traj = build_td_trajectory(lambda t: (1.0 + 0.3 * np.sin(3 * t)) * SL,
                                   lambda t: (1.0 + 0.2 * np.cos(t)) * K,
                                   lambda t: (1.0 + 0.5 * t) * spec.psi.mat, grid)
    X0 = BlockOperator.from_full(random_density(rng, d_e + d_g), d_e, d_g)
    rows = trajectory_observables(traj, X0)
    oracle = trajectory_observables(ChannelTrajectory(traj.grid, traj.maps), X0)
    assert [list(row) for row in rows] == [list(row) for row in oracle]
    assert max(abs(row[c] - ref[c]) for row, ref in zip(rows, oracle) for c in row) <= 1e-13


@pytest.mark.parametrize("d_e, points", [(2, 101), (2, 2001), (8, 2001)])
def test_propagated_rows_match_composed_maps_on_a_decaying_spec(d_e, points):
    # cond(phi) reaches exp(20) as phi decays; the stored copy composes its maps
    traj = semigroup_trajectory(decay_spec(20.0, d_e), np.linspace(0.0, 1.0, points))
    X0 = BlockOperator.from_full(random_density(np.random.default_rng(64), d_e + 1), d_e, 1)
    rows = trajectory_observables(traj, X0)
    oracle = trajectory_observables(ChannelTrajectory(traj.grid, traj.maps), X0)
    assert max(abs(row[c] - ref[c]) for row, ref in zip(rows, oracle) for c in row) <= 1e-13


def test_built_observables_compose_nothing(monkeypatch):
    composed = count_compositions(monkeypatch)
    spec = random_semigroup_spec(np.random.default_rng(65), 4, 2)
    for grid in (np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 60) ** 1.5):
        traj = semigroup_trajectory(spec, grid)
        rows = trajectory_observables(traj, BlockOperator.identity(4, 2))
        assert len(rows) == len(grid) and composed == []
        assert "maps" not in vars(traj)


def test_built_propagator_is_the_exact_step_of_a_driven_level():
    # the stored copy's inverses lose phi once it nears roundoff (s_min ~ 1e-18 at
    # t = 2); the steps compose to the member at the grid's step length
    from edchan.dynamics import _step_lengths

    spec, grid = driven_level(), np.linspace(0.0, 2.0, 201)
    traj = semigroup_trajectory(spec, grid)
    (dt,), _ = _step_lengths(grid)
    exact = semigroup_at(spec, dt)
    assert max(edmap_maxdiff(propagator(traj, i + 1, i), exact) for i in range(200)) <= 1e-14
    assert "maps" not in vars(traj)


def test_built_propagator_composes_its_steps(monkeypatch):
    spec = random_semigroup_spec(np.random.default_rng(66), 2, 2, tp=False)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 40) ** 1.5)
    composed = count_compositions(monkeypatch)
    steps = built_steps(traj)
    for i, j in ((5, 5), (6, 5), (30, 2), (39, 0)):
        want = EDMap.identity(2, 2)
        for step in steps[j:i]:
            want = compose(step, want)
        composed.clear()
        assert edmap_maxdiff(propagator(traj, i, j), want) == 0.0
        assert len(composed) == i - j
    assert "maps" not in vars(traj)
    # from grid point 0 the composition is the map itself
    assert edmap_maxdiff(propagator(traj, 39, 0), traj.maps[39]) == 0.0


def test_built_propagator_past_cond_limit_is_not_refused():
    # maps[62] on has cond(phi) above COND_LIMIT; a stored copy refuses to invert
    # it, the steps need no inverse
    spec = decay_spec(30.0)
    grid = np.linspace(0.0, 1.5, 101)
    traj = semigroup_trajectory(spec, grid)
    with pytest.raises(NonInvertibleError, match="at grid index 65 "):
        propagator(ChannelTrajectory(traj.grid, traj.maps), 70, 65)
    assert edmap_maxdiff(propagator(traj, 70, 65), semigroup_at(spec, grid[70] - grid[65])) <= 1e-12


def test_built_time_local_generators_invert_one_step(monkeypatch):
    from edchan import channel, dynamics

    rng = np.random.default_rng(67)
    spec = random_semigroup_spec(rng, 2, 2)
    SL, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
    grid = np.linspace(0.0, 1.0, 21) ** 1.5

    def build():
        return build_td_trajectory(lambda t: (1.0 + 0.3 * np.sin(3 * t)) * SL,
                                   lambda t: (1.0 + 0.2 * np.cos(t)) * K,
                                   lambda t: (1.0 + 0.5 * t) * spec.psi.mat, grid)

    traj, stored = build(), ChannelTrajectory(grid, build().maps)
    inverted, invert_stack = [], channel.invert_stack
    monkeypatch.setattr(dynamics, "invert_stack", lambda s: inverted.append(s) or invert_stack(s))
    for i in (1, 10, 19):
        want = time_local_generators(stored, i)
        inverted.clear()
        got = time_local_generators(traj, i)
        assert len(inverted) == 1 and np.array_equal(inverted[0].phi[0], traj._stack.phi[i - 1])
        for a, b in ((got.L.mat, want.L.mat), (got.K, want.K), (got.psi.mat, want.psi.mat)):
            assert maxdiff(a, b) <= 1e-9
    assert "maps" not in vars(traj)


def test_built_time_local_generators_name_the_singular_step():
    # step_0 has cond(phi) exp(45): the step is named by the grid point it starts
    # from, the stored copy by the map it inverts
    traj = semigroup_trajectory(decay_spec(30.0), np.array([0.0, 1.5, 3.0]))
    for tr, where in ((traj, "at grid index 0 (t = 0)"),
                      (ChannelTrajectory(traj.grid, traj.maps), "at grid index 1 (t = 1.5)")):
        with pytest.raises(NonInvertibleError) as err:
            time_local_generators(tr, 1)
        assert err.value.reason == "phi_singular" and str(err.value).endswith(where)


def test_built_two_time_maps_hold_no_maps():
    # the maps of 2001 points at d_e = 8 are ~137 MB; the first steps suffice
    import tracemalloc

    traj = semigroup_trajectory(decay_spec(20.0, d_e=8), np.linspace(0.0, 1.0, 2001))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = propagator(traj, 2, 1)
        generators = time_local_generators(traj, 1)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held < 5e6 and peak < 5e6
    assert prop.d_e == generators.L.d_in == 8 and "maps" not in vars(traj)


# ---------------------------------------------------------------------------
# step-batched kernels against the per-step path
# ---------------------------------------------------------------------------

def per_step_propagators(traj):
    """One map per grid step, as the per-step path forms them: a built
    trajectory's own steps, a stored one's consecutive propagators."""
    if traj._index is not None:
        return built_steps(traj)
    return [propagator(traj, i + 1, i) for i in range(len(traj) - 1)]


def observable_row(t, m, X0, lam):
    X = apply(m, X0)
    return {"t": float(t), "trace_ee": float(np.trace(X.ee).real),
            "trace_gg": float(np.trace(X.gg).real),
            "coherence_norm": float(np.linalg.norm(X.eg)),
            "total_trace": float(X.trace().real),
            "min_propagator_choi_eigenvalue": float(lam)}


def assert_matches_per_step(traj, X0, tol=1e-9):
    """Every divisibility and observables value equals its single-map oracle bit for bit.

    A built trajectory's rows carry the state through its steps rather than
    apply each composed map, so they round otherwise: its populations, traces
    and norms are held to 1e-13 of the oracle, its times and eigenvalues to
    the bit."""
    from edchan.cpcheck import min_full_choi_eigenvalue

    report = is_cp_divisible(traj, tol)
    rows = trajectory_observables(traj, X0)
    steps = per_step_propagators(traj)
    assert len(steps) == len(report.step_reports) == len(traj) - 1 == len(rows) - 1
    lams = [min_full_choi_eigenvalue(EDMap.identity(traj.d_e, traj.d_g))]
    for i, step in enumerate(steps):
        # repr tells every float apart, -0.0 from 0.0 included
        assert repr(report.step_reports[i]) == repr(is_cp_ed(step, tol)), i
        lams.append(min_full_choi_eigenvalue(step))
        assert repr(report.step_min_eigenvalues[i]) == repr(np.float64(lams[-1])), i
    for k, (t, m) in enumerate(zip(traj.grid, traj.maps)):
        want = observable_row(t, m, X0, lams[k])
        if traj._index is None:
            assert repr(rows[k]) == repr(want), k
        else:
            exact = ("t", "min_propagator_choi_eigenvalue")
            assert repr([rows[k][c] for c in exact]) == repr([want[c] for c in exact]), k
            assert rows[k].keys() == want.keys()
            assert max(abs(rows[k][c] - want[c]) for c in want) <= 1e-13, k
    return report


def oracle_trajectories(rng, d_e, d_g, points):
    """A spec on a uniform and a power-law grid, a varying table, and the stored copy of each.

    Each stored copy reads the maps of a second build, so the built
    trajectories returned have not had their maps read."""
    spec = random_semigroup_spec(rng, d_e, d_g)
    SL, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
    grid = np.linspace(0.0, 1.0, points)
    builders = [
        lambda: semigroup_trajectory(spec, grid),
        lambda: semigroup_trajectory(spec, grid ** 1.5),
        lambda: build_td_trajectory(lambda t: (1.0 + 0.3 * np.sin(3 * t)) * SL,
                                    lambda t: (1.0 + 0.2 * np.cos(t)) * K,
                                    lambda t: (1.0 + 0.5 * t) * spec.psi.mat, grid),
    ]
    stored = [ChannelTrajectory(build().grid, build().maps) for build in builders]
    return [build() for build in builders] + stored


@pytest.mark.parametrize("d_e", [1, 2, 4])
@pytest.mark.parametrize("d_g", [1, 2, 3])
def test_step_batched_kernels_match_single_map_oracle(d_e, d_g):
    from edchan.dynamics import CHUNK

    rng = np.random.default_rng([61, d_e, d_g])
    X0 = BlockOperator.from_full(random_density(rng, d_e + d_g), d_e, d_g)
    for traj in oracle_trajectories(rng, d_e, d_g, 2 * CHUNK + 4):
        assert_matches_per_step(traj, X0)


@pytest.mark.parametrize("steps_from_chunk", [None, -1, 0, 1])
def test_chunk_edges_match_single_map_oracle(steps_from_chunk):
    # 1 and 2 grid points, then CHUNK - 1, CHUNK and CHUNK + 1 steps
    from edchan.dynamics import CHUNK

    rng = np.random.default_rng([62, 2 + (steps_from_chunk or 0)])
    X0 = BlockOperator.from_full(random_density(rng, 3), 2, 1)
    counts = (1, 2) if steps_from_chunk is None else (CHUNK + steps_from_chunk + 1,)
    for points in counts:
        for traj in oracle_trajectories(rng, 2, 1, points) + [identity_trajectory(2, 1, points)]:
            report = assert_matches_per_step(traj, X0)
            assert len(report.step_min_eigenvalues) == points - 1


@pytest.mark.parametrize("later", ["raises", "non_finite_output", "t_L_overflow"])
def test_overflow_in_first_chunk_fails_before_later_chunks_run(later):
    # step 3's exponential overflows; a failure of any later chunk must not
    # be reported first, and its supplier must not be called
    from edchan.dynamics import CHUNK

    grid = 2.0 * np.arange(2 * CHUNK + 1)
    asked = []

    def L_fn(t):
        asked.append(t)
        if t < 2 * CHUNK:
            return 1000.0 * np.eye(4) if t == 7.0 else np.zeros((4, 4))
        if later == "raises":
            raise RuntimeError("supplier failed")
        return np.full((4, 4), np.inf if later == "non_finite_output" else 1e308)

    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="^superoperator matrix contains non-finite entries$"):
        build_td_trajectory(L_fn, lambda t: np.zeros((2, 2)), lambda t: np.zeros((1, 4)), grid)
    assert max(asked) == 2 * CHUNK - 1


@pytest.mark.parametrize("reason", ["gamma_zero", "phi_singular", "B_singular"])
def test_singular_map_in_second_chunk_fails_as_per_step_path(reason):
    from edchan.dynamics import CHUNK

    d_e, d_g = 2, 1
    ident = EDMap.identity(d_e, d_g)
    bad = {
        "gamma_zero": EDMap(ident.phi, ident.omega, ident.B, 0.0),
        "phi_singular": EDMap(LinearMap(np.diag([1.0, 0, 0, 1])), ident.omega, ident.B, 1.0),
        "B_singular": EDMap(ident.phi, ident.omega, np.diag([1.0, 0.0]), 1.0),
    }[reason]
    where = CHUNK + 3
    maps = [ident] * (2 * CHUNK + 2)
    maps[where] = maps[where + 2] = bad
    traj = ChannelTrajectory(np.linspace(0.0, 1.0, len(maps)), tuple(maps))
    with pytest.raises(NonInvertibleError) as oracle:
        per_step_propagators(traj)
    X0 = BlockOperator.identity(d_e, d_g)
    for check in (is_cp_divisible, lambda tr: trajectory_observables(tr, X0)):
        with pytest.raises(NonInvertibleError) as err:
            check(traj)
        assert err.value.reason == oracle.value.reason == reason
        assert str(err.value) == str(oracle.value)
        assert f"at grid index {where} (t = " in str(err.value)


def test_observables_check_sectors_before_any_step_value():
    # the steps past maps[0] have no inverse; the mismatched operator is reported first
    ident = EDMap.identity(2, 1)
    singular = EDMap(LinearMap(np.diag([1.0, 0, 0, 1])), ident.omega, ident.B, 1.0)
    traj = ChannelTrajectory(np.linspace(0.0, 1.0, 3), (ident, singular, singular))
    with pytest.raises(ValueError, match=r"^operator sectors \(2, 2\) do not match "
                                         r"map sectors \(2, 1\)$"):
        trajectory_observables(traj, BlockOperator.identity(2, 2))


# ---------------------------------------------------------------------------
# is_gkls_generator
# ---------------------------------------------------------------------------

def test_gkls_validity_of_forward_construction():
    rng = np.random.default_rng(23)
    for _ in range(5):
        gen = random_gkls(rng, 2, n_jumps=2)
        report = is_gkls_generator(gkls_superop(gen))
        assert report.valid
        assert report.trace_nonincreasing


def test_gkls_validity_trace_preserving_when_lossless():
    rng = np.random.default_rng(24)
    gen = random_gkls(rng, 2, n_jumps=1, with_loss=False)
    report = is_gkls_generator(gkls_superop(gen))
    assert report.valid and report.trace_nonincreasing


def test_gkls_rejects_transpose_style_generator():
    d = 2
    S = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            S[i + d * j, j + d * i] = 1.0
    L = LinearMap(S) - LinearMap.identity(d)
    report = is_gkls_generator(0.5 * L)
    assert not report.valid
    assert report.conditional_min_eigenvalue < -0.1


def test_gkls_zero_generator_valid():
    report = is_gkls_generator(LinearMap.zero(2, 2))
    assert report.valid and report.trace_nonincreasing


def test_extracted_generators_pass_gkls_check():
    rng = np.random.default_rng(25)
    spec = random_semigroup_spec(rng, 2, 2)
    traj = semigroup_trajectory(spec, np.arange(9) * 1e-3)
    for i in (1, 4, 7):
        tl = time_local_generators(traj, i)
        assert is_gkls_generator(tl.L, 1e-5).valid


# ---------------------------------------------------------------------------
# build_td_trajectory
# ---------------------------------------------------------------------------

def test_td_trajectory_constant_suppliers_match_semigroup():
    rng = np.random.default_rng(26)
    spec = random_semigroup_spec(rng, 2, 2)
    SL = gkls_superop(spec.gen).mat
    K = K_from_spec(spec)
    grid = np.arange(0, 21) * 1e-3
    traj = build_td_trajectory(lambda t: SL, lambda t: K,
                               lambda t: spec.psi.mat, grid)
    worst = max(edmap_maxdiff(m, semigroup_at(spec, t)) for t, m in zip(grid, traj.maps))
    assert worst < 1e-6


def test_td_trajectory_constant_suppliers_equal_semigroup_trajectory_bit_for_bit():
    # one step constructor: on a grid whose step lengths all differ, constant
    # suppliers step exactly as the semigroup does
    grid = np.linspace(0.0, 1.0, 21) ** 1.5
    for seed, (d_e, d_g) in ((45, (2, 2)), (46, (3, 1)), (47, (8, 3))):
        spec = random_semigroup_spec(np.random.default_rng(seed), d_e, d_g)
        SL, K, S_psi = gkls_superop(spec.gen).mat, K_from_spec(spec), spec.psi.mat
        table = build_td_trajectory(lambda t: SL, lambda t: K, lambda t: S_psi, grid)
        for k, (got, want) in enumerate(zip(table.maps, semigroup_trajectory(spec, grid).maps)):
            assert np.array_equal(got.phi.mat, want.phi.mat), (seed, k)
            assert np.array_equal(got.omega.mat, want.omega.mat), (seed, k)
            assert np.array_equal(got.B, want.B), (seed, k)


@pytest.mark.parametrize("points", [21, 101, 1001])
def test_constant_generators_on_linspace_grids_match_semigroup_trajectory(points):
    # the spec steps by the mean of its grouped step lengths, a supplier or a
    # table by each float length; an equal-sample table's interpolant also
    # differs from its sample by rounding at some midpoints. Measured at most
    # 2.5e-15 per entry on these specs.
    grid = np.linspace(0.0, 1.0, points)
    for seed, (d_e, d_g) in ((45, (2, 2)), (46, (3, 1)), (47, (8, 3))):
        spec = random_semigroup_spec(np.random.default_rng(seed), d_e, d_g)
        SL, K, S_psi = gkls_superop(spec.gen).mat, K_from_spec(spec), spec.psi.mat
        table = GeneratorTable(np.array([0.0, 0.5, 1.0]),
                               *(np.stack([M] * 3) for M in (SL, K, S_psi)))
        want = semigroup_trajectory(spec, grid).maps
        for traj in (build_td_trajectory(lambda t: SL, lambda t: K, lambda t: S_psi, grid),
                     _midpoint_trajectory(grid, table.at, d_e, d_g)):
            worst = max(edmap_maxdiff(got, m) for got, m in zip(traj.maps, want))
            assert worst <= 1e-13, (seed, worst)


def reference_interpolant(times, stack):
    """The scalar supplier a generator table was once read into: clip, search, two scaled adds."""
    n = times.size

    def fn(t):
        t = float(np.clip(t, times[0], times[-1]))
        i = int(np.searchsorted(times, t, side="right") - 1)
        i = min(i, n - 2)
        lam = (t - times[i]) / (times[i + 1] - times[i])
        return (1 - lam) * stack[i] + lam * stack[i + 1]
    return fn


def seeded_table(rng, samples, d_e=2, d_g=2):
    """Random complex samples at non-uniform dyadic times, so t_s -+ 1/64 straddle t_s exactly.

    A third of the real and imaginary parts are 0.0 or -0.0, as in sparse
    generators, so that the sign of a zero tells interpolations apart.
    """
    times = np.concatenate([[0.0], np.cumsum(rng.integers(2, 9, samples - 1) / 8)])
    stacks = []
    for shape in ((d_e ** 2, d_e ** 2), (d_e, d_e), (d_g ** 2, d_e ** 2)):
        parts = 0.5 * rng.standard_normal((samples,) + shape + (2,))
        zero = rng.random(parts.shape) < 1 / 3
        parts[zero] = rng.choice([0.0, -0.0], zero.sum())
        stacks.append(parts.view(complex)[..., 0])
    return GeneratorTable(times, *stacks)


def table_grids(table):
    """A grid whose midpoints are the sample times, and grids of 16k -+ 1 steps past the table."""
    from edchan.dynamics import CHUNK

    h = 1 / 64
    on_samples = np.concatenate([[0.0], np.ravel([[t - h, t + h] for t in table.times[1:]])])
    past = [np.linspace(0.0, 1.25 * table.times[-1], steps + 1)
            for steps in (CHUNK - 1, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1)]
    return [on_samples] + past


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("samples", [2, 9])
def test_generator_table_interpolates_as_the_scalar_reference_bit_for_bit(samples):
    rng = np.random.default_rng([70, samples])
    table = seeded_table(rng, samples)
    times = table.times
    ts = [times, rng.uniform(-1.0, times[-1] + 1.0, 64), np.array([-0.0, 2 * times[-1]])]
    ts += [0.5 * (grid[:-1] + grid[1:]) for grid in table_grids(table)]
    assert np.isin(times[1:], ts[3]).all()  # midpoints on the sample times
    for t in ts:
        for got, stack in zip(table.at(t), (table.L, table.K, table.psi)):
            fn = reference_interpolant(times, stack)
            assert same_bits(got, np.stack([fn(x) for x in t]))


@pytest.mark.parametrize("samples", [2, 9])
def test_table_trajectory_equals_reference_supplier_trajectory_bit_for_bit(samples):
    table = seeded_table(np.random.default_rng([71, samples]), samples)
    suppliers = [reference_interpolant(table.times, S) for S in (table.L, table.K, table.psi)]
    for grid in table_grids(table):
        got = _midpoint_trajectory(grid, table.at, table.d_e, table.d_g)
        want = build_td_trajectory(*suppliers, grid)
        assert np.array_equal(got._index, want._index)
        for block in ("phi", "omega", "B", "gamma"):
            assert same_bits(getattr(got._stack, block), getattr(want._stack, block)), block


def test_table_path_converts_no_midpoint_output(monkeypatch):
    import edchan

    calls, convert = [], edchan.matcore.as_complex_matrix

    def counted(M, name="matrix"):
        calls.append(name)
        return convert(M, name)

    for module in (edchan.matcore, edchan.channel, edchan.cpcheck, edchan.dynamics):
        monkeypatch.setattr(module, "as_complex_matrix", counted)
    table = seeded_table(np.random.default_rng(72), 5)
    for grid in table_grids(table):
        _midpoint_trajectory(grid, table.at, table.d_e, table.d_g)
    assert calls == []
    # the callable path converts three outputs per midpoint, and psi at grid[0]
    grid = table_grids(table)[1]
    build_td_trajectory(*(reference_interpolant(table.times, S)
                          for S in (table.L, table.K, table.psi)), grid)
    assert sum(name.endswith("supplier output") for name in calls) == 3 * (grid.size - 1) + 1


def test_generator_table_holds_its_arrays_read_only_without_copies():
    rng = np.random.default_rng(73)
    arrays = (np.array([0.0, 1.0]), rc(rng, 2, 4, 4), rc(rng, 2, 2, 2), rc(rng, 2, 1, 4))
    table = GeneratorTable(*arrays)
    assert (table.d_e, table.d_g) == (2, 1)
    for got, given in zip((table.times, table.L, table.K, table.psi), arrays):
        assert got is given and not got.flags.writeable


def valid_table_trajectory(rng, d_e, d_g, samples=5):
    """A generator table of valid trace-preserving triples, stepped on 101 points.

    Every sample shares one sink channel and (eps, kappa, c), as the bench's
    tables do, so the piecewise-linear interpolation stays valid and TP.
    """
    from edchan.jsonio import generator_table_from_dict, matrix_to_json

    E = random_tp_ground_channel(rng, d_g)
    base = random_semigroup_spec(rng, d_e, d_g)
    times = np.linspace(0.0, 1.0, samples)
    table = {"type": "generator_table", "d_e": d_e, "d_g": d_g,
             "times": times.tolist(), "L": [], "K": [], "psi": []}
    for _ in times:
        gen = random_gkls(rng, d_e)
        spec = SemigroupSpec(gen, base.epsilon, base.kappa, base.c, psi_from_sink(gen.G, E))
        assert check_tp_condition(spec)
        table["L"].append(matrix_to_json(gkls_superop(gen).mat))
        table["K"].append(matrix_to_json(K_from_spec(spec)))
        table["psi"].append(matrix_to_json(spec.psi.mat))
    value = generator_table_from_dict(table)
    return _midpoint_trajectory(np.linspace(0.0, 1.0, 101), value.at, value.d_e, value.d_g)


@pytest.mark.parametrize("d_e, d_g", [(2, 1), (2, 3), (4, 2)])
def test_td_trajectory_of_tp_table_conserves_trace(d_e, d_g):
    rng = np.random.default_rng([48, d_e, d_g])
    traj = valid_table_trajectory(rng, d_e, d_g)
    X0 = BlockOperator.from_full(random_density(rng, d_e + d_g), d_e, d_g)
    for row in trajectory_observables(traj, X0):
        assert abs(row["total_trace"] - 1.0) <= 1e-12, row["t"]


@pytest.mark.parametrize("d_e, d_g", [(2, 1), (2, 3), (4, 2)])
def test_td_trajectory_of_valid_table_has_cptp_steps(d_e, d_g):
    # each step is the member of a valid TP triple: CP, and TP to roundoff
    from edchan import is_trace_preserving

    traj = valid_table_trajectory(np.random.default_rng([49, d_e, d_g]), d_e, d_g)
    for k, step in enumerate(built_steps(traj)):
        assert is_cp_ed(step).cp, k
        assert is_trace_preserving(step, 1e-12), k
    assert is_cp_divisible(traj).cp_divisible


def test_td_trajectory_zero_suppliers_identity():
    grid = np.linspace(0.0, 1.0, 6)
    traj = build_td_trajectory(
        lambda t: np.zeros((4, 4)), lambda t: np.zeros((2, 2)),
        lambda t: np.zeros((1, 4)), grid,
    )
    for m in traj.maps:
        assert edmap_maxdiff(m, EDMap.identity(2, 1)) < 1e-12


def test_td_trajectory_extraction_round_trip():
    # slowly varying generators are recovered at interior grid points
    rng = np.random.default_rng(27)
    base = random_semigroup_spec(rng, 2, 1)
    SL = gkls_superop(base.gen).mat
    K = K_from_spec(base)
    S_psi = base.psi.mat

    def L_fn(t):
        return (1.0 + 0.3 * np.sin(t)) * SL

    def K_fn(t):
        return (1.0 + 0.2 * np.cos(t)) * K

    def psi_fn(t):
        return (1.0 + 0.5 * t) * S_psi

    grid = np.linspace(0.0, 0.5, 501)
    traj = build_td_trajectory(L_fn, K_fn, psi_fn, grid)
    for i in (100, 250, 400):
        tl = time_local_generators(traj, i)
        t = grid[i]
        assert maxdiff(tl.L.mat, L_fn(t)) < 1e-4
        assert maxdiff(tl.K, K_fn(t)) < 1e-4
        assert maxdiff(tl.psi.mat, psi_fn(t)) < 1e-4


def test_semigroup_law_iff_constant_generators():
    # time-dependent generators break the semigroup law; the extracted
    # generators are visibly non-constant in exactly that case
    rng = np.random.default_rng(28)
    base = random_semigroup_spec(rng, 1, 1)
    SL = gkls_superop(base.gen).mat
    K = K_from_spec(base)

    grid = np.linspace(0.0, 1.0, 101)
    varying = build_td_trajectory(
        lambda t: (1.0 + 2.0 * t) * SL, lambda t: K, lambda t: base.psi.mat, grid,
    )
    tl_a = time_local_generators(varying, 20)
    tl_b = time_local_generators(varying, 80)
    assert maxdiff(tl_a.L.mat, tl_b.L.mat) > 1e-3
    i, j = 60, 30
    maps = varying.maps
    lhs = compose(maps[j], maps[j])  # Phi_s ∘ Phi_s
    rhs = maps[i]                    # Phi_{2s}
    assert edmap_maxdiff(lhs, rhs) > 1e-3

    const = build_td_trajectory(lambda t: SL, lambda t: K,
                                lambda t: base.psi.mat, grid)
    tl_a = time_local_generators(const, 20)
    tl_b = time_local_generators(const, 80)
    assert maxdiff(tl_a.L.mat, tl_b.L.mat) < 1e-9
    maps = const.maps
    lhs = compose(maps[j], maps[j])
    rhs = maps[i]
    assert edmap_maxdiff(lhs, rhs) < 1e-5


# ---------------------------------------------------------------------------
# coherence decay and observables
# ---------------------------------------------------------------------------

def test_higher_kappa_scales_coherence_block():
    rng = np.random.default_rng(29)
    gen = random_gkls(rng, 2, n_jumps=1)
    psi = random_cp_map(rng, 2, 2)
    k1, k2 = 0.3, 1.1
    spec1 = SemigroupSpec(gen, 0.2, k1, np.zeros(1), psi)
    spec2 = SemigroupSpec(gen, 0.2, k2, np.zeros(1), psi)
    for t in (0.5, 1.5):
        s1 = np.linalg.svd(semigroup_at(spec1, t).B, compute_uv=False)
        s2 = np.linalg.svd(semigroup_at(spec2, t).B, compute_uv=False)
        factor = np.exp(-(k2 - k1) * t / 2)
        assert np.abs(s2 - factor * s1).max() < 1e-10


def test_trajectory_observables_rows():
    rng = np.random.default_rng(30)
    spec = random_semigroup_spec(rng, 2, 2, tp=True)
    traj = semigroup_trajectory(spec, np.linspace(0.0, 1.0, 6))
    X0 = BlockOperator.from_full(random_density(rng, 4), 2, 2)
    rows = trajectory_observables(traj, X0)
    assert rows[0]["t"] == 0.0
    assert abs(rows[0]["trace_ee"] - np.trace(X0.ee).real) < 1e-12
    assert abs(rows[0]["total_trace"] - 1.0) < 1e-10
    for row in rows:  # TP semigroup conserves the total trace
        assert abs(row["total_trace"] - 1.0) < 1e-9
        assert row["min_propagator_choi_eigenvalue"] > -1e-9


def test_find_noncp_window_still_accepts_the_frozen_demo(capsys):
    """scripts/find_noncp_window.py, seed 7, reproduces demos.NONCP_WINDOW."""
    import ast
    import importlib.util
    from pathlib import Path

    from edchan.demos import NONCP_WINDOW

    path = Path(__file__).resolve().parents[1] / "scripts" / "find_noncp_window.py"
    spec = importlib.util.spec_from_file_location("find_noncp_window", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(7) == 0
    out = capsys.readouterr().out
    accepted = out.split("NONCP_WINDOW = ", 1)[1]
    assert ast.literal_eval(accepted[:accepted.index("}") + 1]) == NONCP_WINDOW
