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
from edchan.demos import noncp_divisible_trajectory
from conftest import (
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
    psi = LinearMap.from_function(lambda X: np.trace(G @ X) * Omega, 2, 3)
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
    E = LinearMap.from_function(lambda X: np.trace(X) * Omega, 2, 2)
    psi = psi_from_sink(G, E)
    expected = LinearMap.from_function(lambda X: np.trace(G @ X) * Omega, 3, 2)
    assert maxdiff(psi.mat, expected.mat) < 1e-10


def test_psi_from_sink_trace_identity_with_channel():
    rng = np.random.default_rng(12)
    G = random_psd(rng, 3, rank=2)
    psi = psi_from_sink(G, random_tp_ground_channel(rng, 2))
    assert maxdiff(psi.trace_functional(), G) < 1e-10


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
    with pytest.raises(ValueError):
        ChannelTrajectory(np.array([0.0, 0.0, 1.0]),
                          tuple(EDMap.identity(1, 1) for _ in range(3)))
    with pytest.raises(ValueError):
        ChannelTrajectory(np.array([0.5, 1.0]),
                          tuple(EDMap.identity(1, 1) for _ in range(2)))
    bad_first = EDMap(LinearMap(np.array([[0.5]])), LinearMap.zero(1, 1),
                      np.eye(1, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        ChannelTrajectory(np.array([0.0, 1.0]), (bad_first, bad_first))


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
    assert is_cp_divisible(identity_trajectory(2, 2)).cp_divisible


def test_window_fixture_not_cp_divisible_but_cp_at_all_times():
    traj = noncp_divisible_trajectory()
    for m in traj.maps:
        assert is_cp_ed(m).cp
    report = is_cp_divisible(traj)
    assert not report.cp_divisible
    assert report.min_eigenvalue < -1e-4
    i, j = report.worst_pair
    assert j == i - 1


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
    worst = max(edmap_maxdiff(traj.maps[i], semigroup_at(spec, grid[i]))
                for i in range(len(grid)))
    assert worst < 1e-6


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
    lhs = compose(varying.maps[j], varying.maps[j])  # Phi_s ∘ Phi_s
    rhs = varying.maps[i]                            # Phi_{2s}
    assert edmap_maxdiff(lhs, rhs) > 1e-3

    const = build_td_trajectory(lambda t: SL, lambda t: K,
                                lambda t: base.psi.mat, grid)
    tl_a = time_local_generators(const, 20)
    tl_b = time_local_generators(const, 80)
    assert maxdiff(tl_a.L.mat, tl_b.L.mat) < 1e-9
    lhs = compose(const.maps[j], const.maps[j])
    rhs = const.maps[i]
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
