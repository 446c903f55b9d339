import numpy as np
import pytest

from edchan import (
    BlockOperator,
    EDMap,
    KrausSet,
    LinearMap,
    NotCompletelyPositiveError,
    ball_decompose,
    build_tp_omega,
    choi,
    damped_excited_map,
    explicit_kraus_ed,
    is_cp,
    is_cp_ed,
    is_hermiticity_preserving,
    is_positive_ed_dg1,
    is_positive_sampled,
    is_trace_nonincreasing,
    kraus_from_choi,
    qubit_map,
)
from conftest import (
    cp_edmap,
    dg1_planted_noncp,
    dg1_span_edmap,
    edmap_instance,
    random_cp_map,
    random_density,
    random_noncp_map,
    random_tni_cp_map,
    rc,
    tp_edmap,
    truncated_kraus_edmap,
)


def maxdiff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def transpose_map(d):
    S = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            S[i + d * j, j + d * i] = 1.0
    return LinearMap(S)


# ---------------------------------------------------------------------------
# choi
# ---------------------------------------------------------------------------

def choi_reference(m):
    """C[k::d_in, l::d_in] = map(E_kl), one matrix unit at a time."""
    d_in, d_out = m.d_in, m.d_out
    C = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for k in range(d_in):
        for l in range(d_in):
            col = m.mat[:, k + d_in * l]  # superoperator column at E_kl
            C[k::d_in, l::d_in] = col.reshape(d_out, d_out).T
    return C


def test_choi_equals_matrix_unit_reference_exactly():
    rng = np.random.default_rng(20)
    for d_in, d_out in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 4)):
        m = LinearMap(rc(rng, d_out * d_out, d_in * d_in))
        assert np.array_equal(choi(m).mat, choi_reference(m))


def test_choi_identity_is_entangled_projector():
    C = choi(LinearMap.identity(2))
    psi = np.array([1, 0, 0, 1], dtype=complex)
    assert maxdiff(C.mat, np.outer(psi, psi)) < 1e-14
    assert abs(np.trace(C.mat) - 2.0) < 1e-14
    assert np.linalg.matrix_rank(C.mat) == 1


def test_choi_depolarizing():
    d = 3
    m = LinearMap.from_function(lambda X: np.trace(X) * np.eye(d) / d, d, d)
    C = choi(m)
    assert maxdiff(C.mat, np.kron(np.eye(d) / d, np.eye(d))) < 1e-12
    assert is_cp(m).is_cp


def test_choi_trace_is_frobenius_mass_of_kraus():
    rng = np.random.default_rng(0)
    ops = [rc(rng, 3, 2) for _ in range(3)]
    C = choi(LinearMap.from_kraus(ops))
    mass = sum(np.linalg.norm(A) ** 2 for A in ops)
    assert is_cp(LinearMap.from_kraus(ops)).is_cp
    assert abs(np.trace(C.mat).real - mass) < 1e-10


def test_choi_trace_equals_input_dimension_for_tp_maps():
    from conftest import random_tp_ground_channel

    rng = np.random.default_rng(22)
    for d in (2, 3):
        C = choi(random_tp_ground_channel(rng, d))
        assert abs(np.trace(C.mat).real - d) < 1e-10


# ---------------------------------------------------------------------------
# kraus_from_choi
# ---------------------------------------------------------------------------

def test_kraus_of_identity_map():
    ks = kraus_from_choi(choi(LinearMap.identity(3)))
    assert ks.count == 1
    assert maxdiff(ks.operators[0], np.eye(3)) < 1e-12


def test_kraus_of_scalar_amplitude_damping():
    a = 0.8
    ks = kraus_from_choi(choi(LinearMap(np.array([[a ** 2]], dtype=complex))))
    assert ks.count == 1
    assert abs(ks.operators[0][0, 0] - a) < 1e-12


def test_kraus_round_trip_random_cp():
    rng = np.random.default_rng(1)
    for d_in, d_out in ((2, 2), (3, 2), (2, 3)):
        m = random_cp_map(rng, d_in, d_out, 3)
        back = kraus_from_choi(choi(m)).to_linear_map(d_in=d_in, d_out=d_out)
        assert maxdiff(back.mat, m.mat) < 1e-10


def test_kraus_from_choi_rejects_non_psd():
    with pytest.raises(NotCompletelyPositiveError):
        kraus_from_choi(choi(transpose_map(2)))


def test_kraus_from_choi_is_deterministic():
    rng = np.random.default_rng(2)
    m = random_cp_map(rng, 3, 3, 4)
    k1 = kraus_from_choi(choi(m))
    k2 = kraus_from_choi(choi(m))
    assert k1.count == k2.count
    for A, B in zip(k1.operators, k2.operators):
        assert maxdiff(A, B) == 0.0


def test_kraus_freedom_reordered_eigenbasis_same_map():
    # rebuilding from any eigen-ordering of the Choi matrix gives the same map
    rng = np.random.default_rng(3)
    m = random_cp_map(rng, 2, 2, 3)
    C = choi(m)
    w, V = np.linalg.eigh((C.mat + C.mat.conj().T) / 2)
    for order in (range(len(w)), range(len(w) - 1, -1, -1)):
        ops = [np.sqrt(w[i]) * V[:, i].reshape(2, 2) for i in order if w[i] > 1e-10]
        back = KrausSet(tuple(ops)).to_linear_map(d_in=2, d_out=2)
        assert maxdiff(back.mat, m.mat) < 1e-10


# ---------------------------------------------------------------------------
# is_cp
# ---------------------------------------------------------------------------

def test_is_cp_transpose_map_fails():
    verdict = is_cp(transpose_map(2))
    assert not verdict.is_cp
    assert abs(verdict.min_choi_eigenvalue + 1.0) < 1e-12


def test_is_cp_identity():
    assert is_cp(LinearMap.identity(3)).is_cp


def test_is_cp_kraus_built():
    rng = np.random.default_rng(4)
    assert is_cp(random_cp_map(rng, 3, 2, 4)).is_cp


def test_is_hermiticity_preserving():
    rng = np.random.default_rng(5)
    assert is_hermiticity_preserving(random_cp_map(rng, 2, 3))
    assert is_hermiticity_preserving(transpose_map(2))
    assert not is_hermiticity_preserving(LinearMap(rc(rng, 4, 4)))


# ---------------------------------------------------------------------------
# is_cp_ed
# ---------------------------------------------------------------------------

def test_is_cp_ed_qubit_coherence_overshoot():
    m = qubit_map(0.8, 0.9, 0.6, 1.0)
    report = is_cp_ed(m)
    assert not report.cp
    assert report.omega_cp
    assert not report.damped_phi_cp
    assert report.branch == "gamma_positive"


def test_is_cp_ed_identity():
    report = is_cp_ed(EDMap.identity(2, 2))
    assert report.cp and report.omega_cp and report.damped_phi_cp


def test_is_cp_ed_matches_full_choi_oracle():
    rng = np.random.default_rng(6)
    for k in range(40):
        d_e = int(rng.integers(1, 4))
        d_g = int(rng.integers(1, 4))
        m = edmap_instance(rng, d_e, d_g)
        block = is_cp_ed(m, 1e-8).cp
        full = is_cp(m.to_linear_map(), 1e-8).is_cp
        assert block == full


def test_is_cp_ed_gamma_zero_branch():
    rng = np.random.default_rng(7)
    phi_cp = random_cp_map(rng, 2, 2)
    omega_cp = random_cp_map(rng, 2, 2)
    zero_B = np.zeros((2, 2), dtype=complex)
    good = EDMap(phi_cp, omega_cp, zero_B, 0.0)
    assert is_cp_ed(good).branch == "gamma_zero"
    assert is_cp_ed(good).cp
    # nonzero B breaks complete positivity at gamma = 0
    bad_B = EDMap(phi_cp, omega_cp, np.eye(2, dtype=complex), 0.0)
    assert not is_cp_ed(bad_B).cp
    # phi must itself be CP in this branch
    bad_phi = EDMap(random_noncp_map(rng, 2, 2), omega_cp, zero_B, 0.0)
    assert not is_cp_ed(bad_phi).cp
    assert is_cp(bad_phi.to_linear_map()).is_cp == is_cp_ed(bad_phi).cp


# ---------------------------------------------------------------------------
# ball_decompose
# ---------------------------------------------------------------------------

def _canonical_kraus_rank2(rng, d):
    m = random_cp_map(rng, d, d, 2)
    return kraus_from_choi(choi(m))


def test_ball_decompose_single_operator_member():
    rng = np.random.default_rng(8)
    ks = _canonical_kraus_rank2(rng, 2)
    bd = ball_decompose(ks.operators[0], ks, gamma=1.0)
    assert bd.member
    assert abs(bd.beta[0] - 1.0) < 1e-10
    assert abs(bd.beta[1]) < 1e-10
    assert bd.residual < 1e-10


def test_ball_decompose_boundary_scaling():
    rng = np.random.default_rng(9)
    ks = _canonical_kraus_rank2(rng, 2)
    bd = ball_decompose(np.sqrt(2) * ks.operators[0], ks, gamma=1.0)
    assert not bd.member
    assert abs(bd.norm_sq - 2.0) < 1e-9


def test_ball_decompose_recovers_coefficients_and_flips():
    rng = np.random.default_rng(10)
    for _ in range(10):
        gamma = float(rng.uniform(0.5, 2.0))
        ks = _canonical_kraus_rank2(rng, 3)
        for fill, expect in ((0.99, True), (1.01, False)):
            beta = rc(rng, ks.count)
            beta *= np.sqrt(fill * gamma) / np.linalg.norm(beta)
            B = sum(b * A for b, A in zip(beta, ks.operators))
            bd = ball_decompose(B, ks, gamma)
            assert maxdiff(bd.beta, beta) < 1e-9
            assert bd.member == expect


def test_ball_decompose_empty_family():
    ks = KrausSet(())
    bd = ball_decompose(np.zeros((2, 2)), ks, gamma=1.0)
    assert bd.member and bd.norm_sq == 0.0
    bd = ball_decompose(np.eye(2), ks, gamma=1.0)
    assert not bd.member


# ---------------------------------------------------------------------------
# explicit_kraus_ed
# ---------------------------------------------------------------------------

def test_explicit_kraus_identity_channel():
    ks = explicit_kraus_ed(EDMap.identity(2, 2))
    assert ks.count == 1
    assert maxdiff(ks.operators[0], np.eye(4)) < 1e-10


def test_explicit_kraus_amplitude_damping():
    a = 0.8
    m = qubit_map(a, a, np.sqrt(1 - a ** 2), 1.0)
    ks = explicit_kraus_ed(m)
    assert ks.count == 2
    ops = sorted(ks.operators, key=lambda A: abs(A[1, 0]))
    assert maxdiff(ops[0], np.diag([a, 1.0])) < 1e-10
    expected = np.zeros((2, 2))
    expected[1, 0] = np.sqrt(1 - a ** 2)
    assert maxdiff(ops[1], expected) < 1e-10


def test_explicit_kraus_reconstructs_random_cp_maps():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = cp_edmap(rng, 2, 2, fill=float(rng.uniform(0.2, 0.9)))
        ks = explicit_kraus_ed(m)
        d = m.d_e + m.d_g
        rebuilt = ks.to_linear_map(d_in=d, d_out=d)
        assert maxdiff(rebuilt.mat, m.to_linear_map().mat) < 1e-9


def _gamma_zero_map():
    rng = np.random.default_rng(13)
    return EDMap(random_cp_map(rng, 2, 2), random_cp_map(rng, 2, 2),
                 np.zeros((2, 2)), 0.0)


@pytest.mark.parametrize("make", [truncated_kraus_edmap, _gamma_zero_map],
                         ids=["b_below_kraus_truncation", "gamma_zero_dg2"])
def test_explicit_kraus_reconstructs_block_cp_maps(make):
    m = make()
    assert is_cp_ed(m).cp
    ks = explicit_kraus_ed(m)
    d = m.d_e + m.d_g
    rebuilt = ks.to_linear_map(d_in=d, d_out=d)
    assert maxdiff(rebuilt.mat, m.to_linear_map().mat) < 1e-9
    # the damped block's family, omega's, and one operator for B only when gamma > 0
    r = kraus_from_choi(choi(damped_excited_map(m) if m.gamma else m.phi)).count
    s = kraus_from_choi(choi(m.omega)).count
    assert ks.count == r + s + (m.gamma > 0)


def test_explicit_kraus_block_structure():
    rng = np.random.default_rng(12)
    m = cp_edmap(rng, 2, 3, fill=0.5)
    for op in explicit_kraus_ed(m).operators:
        blocks = BlockOperator.from_full(op, 2, 3)
        assert np.abs(blocks.eg).max() < 1e-12  # upper-right block always vanishes


def test_explicit_kraus_rejects_non_cp():
    m = qubit_map(0.5, 0.9, 0.5, 1.0)
    with pytest.raises(NotCompletelyPositiveError) as info:
        explicit_kraus_ed(m)
    # the block verdict travels with the error, so callers need not rerun it
    assert info.value.report == is_cp_ed(m)


@pytest.mark.parametrize("d_g", [1, 2])
@pytest.mark.parametrize("d_e", [2, 4, 8])
def test_explicit_kraus_error_report_matches_block_test(d_e, d_g):
    """The report a non-CP map's error carries is is_cp_ed's: verdicts exactly, eigenvalues to roundoff."""
    rng = np.random.default_rng(500 + 10 * d_e + d_g)
    for _ in range(3):
        overfilled = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(1.2, 3.0)))
        base = cp_edmap(rng, d_e, d_g)
        bad_omega = EDMap(base.phi, random_noncp_map(rng, d_e, d_g), base.B, base.gamma)
        for m in (overfilled, bad_omega):
            expected = is_cp_ed(m)
            assert not expected.cp
            with pytest.raises(NotCompletelyPositiveError) as info:
                explicit_kraus_ed(m)
            got = info.value.report
            assert ((got.cp, got.omega_cp, got.damped_phi_cp, got.branch)
                    == (expected.cp, expected.omega_cp, expected.damped_phi_cp, expected.branch))
            for lam, ref in ((got.omega_min_eigenvalue, expected.omega_min_eigenvalue),
                             (got.damped_min_eigenvalue, expected.damped_min_eigenvalue)):
                assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# is_trace_nonincreasing
# ---------------------------------------------------------------------------

def test_tni_identity():
    assert is_trace_nonincreasing(LinearMap.identity(3))


def test_tni_doubled_identity_fails():
    assert not is_trace_nonincreasing(2.0 * LinearMap.identity(3))


def test_tni_matches_kraus_operator_inequality():
    rng = np.random.default_rng(13)
    for slack in (0.5, 0.95):
        m = random_tni_cp_map(rng, 3, slack=slack)
        ks = kraus_from_choi(choi(m))
        T = np.eye(3) - sum(A.conj().T @ A for A in ks.operators)
        assert float(np.linalg.eigvalsh((T + T.conj().T) / 2)[0]) > -1e-10
        assert is_trace_nonincreasing(m)
    # scale up until the operator inequality breaks
    m = 1.5 * random_tni_cp_map(rng, 3, slack=0.95)
    assert not is_trace_nonincreasing(m)


# ---------------------------------------------------------------------------
# positivity sampling
# ---------------------------------------------------------------------------

def test_sampler_identity_finds_nothing():
    verdict = is_positive_sampled(LinearMap.identity(2), samples=1000, seed=0)
    assert not verdict.not_positive
    assert verdict.samples_used == 1000


def test_sampler_negation_finds_witness_immediately():
    verdict = is_positive_sampled(-1.0 * LinearMap.identity(2), samples=1000, seed=0)
    assert verdict.not_positive
    assert verdict.samples_used == 1
    assert verdict.min_eigenvalue < -0.1


def test_sampler_finds_witness_on_screened_noncp_instances():
    rng = np.random.default_rng(14)
    for k in range(5):
        m = dg1_planted_noncp(rng, 2, depth=0.5)
        assert not is_cp_ed(m).cp  # screened by the exact criterion
        verdict = is_positive_sampled(damped_excited_map(m), samples=20000, seed=k)
        assert verdict.not_positive


def test_sampler_requires_hermiticity_preserving():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        is_positive_sampled(LinearMap(rc(rng, 4, 4)), samples=10)


# ---------------------------------------------------------------------------
# is_positive_ed_dg1
# ---------------------------------------------------------------------------

def test_dg1_identity_positive():
    verdict = is_positive_ed_dg1(EDMap.identity(2, 1), samples=2000, seed=0)
    assert not verdict.not_positive


def test_dg1_qubit_overshoot_not_positive():
    m = qubit_map(0.8, 0.9, 0.6, 1.0)
    verdict = is_positive_ed_dg1(m, samples=5000, seed=0)
    assert verdict.not_positive


def test_dg1_witness_is_certificate():
    rng = np.random.default_rng(16)
    m = dg1_planted_noncp(rng, 2, depth=0.6)
    verdict = is_positive_ed_dg1(m, samples=20000, seed=0)
    assert verdict.not_positive
    chi = verdict.witness
    out = m.to_linear_map()(np.outer(chi, chi.conj()))
    lam = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
    assert lam < -1e-9
    assert abs(verdict.min_eigenvalue - lam) <= 1e-12


def test_dg1_negative_omega_detected_exactly():
    rng = np.random.default_rng(17)
    phi = random_cp_map(rng, 2, 2)
    omega = LinearMap(-0.5 * random_cp_map(rng, 2, 1).mat)
    m = EDMap(phi, omega, np.zeros((2, 2)), 1.0)
    verdict = is_positive_ed_dg1(m, samples=10, seed=0)
    assert verdict.not_positive
    assert verdict.samples_used == 0  # decided by the exact criterion


def test_dg1_gamma_zero_with_coherence_not_positive():
    rng = np.random.default_rng(18)
    phi = random_cp_map(rng, 2, 2)
    omega = random_cp_map(rng, 2, 1)
    m = EDMap(phi, omega, np.eye(2, dtype=complex), 0.0)
    verdict = is_positive_ed_dg1(m, samples=10, seed=0)
    assert verdict.not_positive


def test_dg1_rejects_wide_ground_sector():
    with pytest.raises(ValueError):
        is_positive_ed_dg1(EDMap.identity(2, 2), samples=10)


def test_dg1_agrees_with_cp_for_span_instances():
    # CP instances never produce a witness; the non-CP instances used here
    # carry a planted positivity violation, so the verdicts line up
    rng = np.random.default_rng(19)
    for k in range(8):
        if k % 2 == 0:
            m = dg1_span_edmap(rng, int(rng.integers(2, 4)), fill=0.7)
        else:
            m = dg1_planted_noncp(rng, int(rng.integers(2, 4)), depth=0.5)
        cp = is_cp_ed(m).cp
        verdict = is_positive_ed_dg1(m, samples=30000, seed=k)
        assert verdict.not_positive == (not cp)


def test_dg1_sampler_is_one_sided_on_positive_noncp_map():
    # a map can fail complete positivity with B inside the Kraus span and
    # still be positive: this Pauli instance has damped-block output
    # (1.5 I + 1.1 r_x X + 1.1 r_y Y + 0.3 r_z Z)/2, PSD on every state,
    # while its damped Choi matrix has eigenvalue -0.2. No witness exists,
    # and absence of a witness is correctly not reported as positivity proof.
    I2 = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    weights = (1.0, 0.3, 0.3, 0.1)
    phi = LinearMap.from_kraus([np.sqrt(w) * P
                                for w, P in zip(weights, (I2, X, Y, Z))])
    omega = LinearMap.from_function(lambda M: np.array([[np.trace(M)]]), 2, 1)
    m = EDMap(phi, omega, np.sqrt(0.2) * Z, 1.0)

    ks = kraus_from_choi(choi(m.phi))
    bd = ball_decompose(m.B, ks, m.gamma)
    assert bd.residual < 1e-12 and bd.norm_sq > 1.9  # in the span, far outside
    report = is_cp_ed(m)
    assert not report.cp
    assert report.damped_min_eigenvalue < -0.19
    verdict = is_positive_ed_dg1(m, samples=50000, seed=0)
    assert not verdict.not_positive
    assert verdict.min_eigenvalue > 0.19  # strictly positive on all samples


# ---------------------------------------------------------------------------
# corollaries
# ---------------------------------------------------------------------------

def test_tp_promotion_cp_iff_damped_cp_and_tni():
    # for maps built with the trace-restoring omega, CP of the whole map is
    # equivalent to (phi - B(.)B† CP) together with phi trace non-increasing
    rng = np.random.default_rng(20)
    for k in range(10):
        if k % 2 == 0:
            m = tp_edmap(rng, 2, 2, fill=float(rng.uniform(0.2, 0.9)))
        else:
            m = tp_edmap(rng, 2, 2, fill=float(rng.uniform(1.3, 2.5)))
        lhs = is_cp_ed(m).cp
        rhs = (is_cp(damped_excited_map(m)).is_cp
               and is_trace_nonincreasing(m.phi))
        assert lhs == rhs


def test_tp_promotion_fails_when_phi_trace_increasing():
    rng = np.random.default_rng(21)
    phi = 1.4 * random_tni_cp_map(rng, 2, slack=0.95)
    assert not is_trace_nonincreasing(phi)
    omega = build_tp_omega(phi, random_density(rng, 2))
    m = EDMap(phi, omega, np.zeros((2, 2)), 1.0)
    assert not is_cp_ed(m).cp  # omega is no longer CP


def test_qubit_cp_law_small_grid():
    for a in np.linspace(0, 1.2, 7):
        for b in np.linspace(0, 1.2, 7):
            for gamma in (0.0, 0.5, 1.0):
                if abs(b - np.sqrt(gamma) * a) <= 1e-9:
                    continue
                m = qubit_map(a, b, 0.3, gamma)
                assert is_cp_ed(m).cp == (b <= np.sqrt(gamma) * a)
