import numpy as np
import pytest

from edchan import (
    BlockOperator,
    EDMap,
    LinearMap,
    NonInvertibleError,
    apply,
    build_tp_omega,
    compose,
    invert,
    is_trace_preserving,
    qubit_map,
)
from conftest import (
    cp_edmap,
    random_cp_map,
    random_density,
    random_hermitian,
    random_tni_cp_map,
    rc,
)


def maxdiff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# ---------------------------------------------------------------------------
# LinearMap
# ---------------------------------------------------------------------------

def test_linear_map_identity_action():
    rng = np.random.default_rng(0)
    X = rc(rng, 3, 3)
    assert maxdiff(LinearMap.identity(3)(X), X) < 1e-14


def test_linear_map_from_kraus_matches_conjugation():
    rng = np.random.default_rng(1)
    A = rc(rng, 3, 2)
    X = rc(rng, 2, 2)
    m = LinearMap.from_kraus([A])
    assert maxdiff(m(X), A @ X @ A.conj().T) < 1e-12


def test_linear_map_action_is_linear():
    rng = np.random.default_rng(3)
    m = LinearMap(rc(rng, 9, 4))
    X, Y = rc(rng, 2, 2), rc(rng, 2, 2)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    assert maxdiff(m(a * X + b * Y), a * m(X) + b * m(Y)) < 1e-12


def test_linear_map_composition_is_matrix_product():
    rng = np.random.default_rng(4)
    m1 = random_cp_map(rng, 2, 3)
    m2 = random_cp_map(rng, 3, 2)
    X = rc(rng, 2, 2)
    assert maxdiff((m2 @ m1)(X), m2(m1(X))) < 1e-12


def test_linear_map_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        LinearMap.identity(2) @ LinearMap.identity(3)
    with pytest.raises(ValueError):
        LinearMap.identity(2)(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        LinearMap(np.zeros((3, 4)))


def test_trace_functional_reconstruction():
    rng = np.random.default_rng(5)
    m = random_cp_map(rng, 3, 2)
    W = m.trace_functional()
    for _ in range(5):
        X = rc(rng, 3, 3)
        assert abs(np.trace(m(X)) - np.trace(W @ X)) < 1e-11


# ---------------------------------------------------------------------------
# BlockOperator
# ---------------------------------------------------------------------------

def test_block_operator_full_round_trip():
    rng = np.random.default_rng(6)
    X = rc(rng, 5, 5)
    blocks = BlockOperator.from_full(X, 3, 2)
    assert maxdiff(blocks.full(), X) < 1e-15
    assert blocks.d_e == 3 and blocks.d_g == 2


def test_block_operator_hermiticity_matches_blocks():
    rng = np.random.default_rng(7)
    ee = random_hermitian(rng, 2)
    gg = random_hermitian(rng, 3)
    eg = rc(rng, 2, 3)
    assert BlockOperator(ee, eg, eg.conj().T, gg).is_hermitian(1e-12)
    assert not BlockOperator(ee, eg, 2 * eg.conj().T, gg).is_hermitian(1e-12)


def test_block_operator_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        BlockOperator(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(3))


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_identity_channel():
    rng = np.random.default_rng(8)
    X = BlockOperator.from_full(rc(rng, 4, 4), 2, 2)
    Y = apply(EDMap.identity(2, 2), X)
    assert maxdiff(Y.full(), X.full()) < 1e-14


def test_apply_qubit_blocks():
    a, b = 0.6 + 0.3j, 0.4 - 0.1j
    q = np.sqrt(1 - abs(a) ** 2)
    m = qubit_map(a, b, q, 1.0)
    X = BlockOperator.from_full(
        np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex), 1, 1
    )
    Y = apply(m, X)
    assert abs(Y.ee[0, 0] - abs(a) ** 2 * 0.7) < 1e-14
    assert abs(Y.eg[0, 0] - b * (0.2 - 0.1j)) < 1e-14
    assert abs(Y.ge[0, 0] - np.conj(b) * (0.2 + 0.1j)) < 1e-14
    assert abs(Y.gg[0, 0] - (0.3 + (1 - abs(a) ** 2) * 0.7)) < 1e-14


def test_apply_matches_full_superoperator():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = EDMap(
            LinearMap(rc(rng, 4, 4)),
            LinearMap(rc(rng, 4, 4)),
            rc(rng, 2, 2),
            float(rng.uniform(0, 2)),
        )
        X = BlockOperator.from_full(rc(rng, 4, 4), 2, 2)
        assert maxdiff(apply(m, X).full(), m.to_linear_map()(X.full())) < 1e-12


def test_apply_rejects_dimension_mismatch():
    X = BlockOperator.from_full(np.eye(4, dtype=complex), 2, 2)
    with pytest.raises(ValueError):
        apply(EDMap.identity(3, 1), X)


def test_apply_preserves_hermiticity():
    rng = np.random.default_rng(10)
    m = cp_edmap(rng, 2, 2)
    H = BlockOperator.from_full(random_hermitian(rng, 4), 2, 2)
    assert apply(m, H).is_hermitian(1e-10)


# ---------------------------------------------------------------------------
# is_trace_preserving
# ---------------------------------------------------------------------------

def test_tp_identity():
    assert is_trace_preserving(EDMap.identity(2, 3))


def test_tp_example_construction_any_phi_and_b():
    rng = np.random.default_rng(11)
    for _ in range(5):
        phi = LinearMap(rc(rng, 4, 4))
        omega = build_tp_omega(phi, random_density(rng, 3))
        m = EDMap(phi, omega, rc(rng, 2, 2), 1.0)
        assert is_trace_preserving(m, 1e-10)
        X = BlockOperator.from_full(random_hermitian(rng, 5), 2, 3)
        assert abs(apply(m, X).trace() - X.trace()) < 1e-10


def test_tp_fails_for_scaled_ground_block():
    m = EDMap(LinearMap.identity(2), LinearMap.zero(2, 2),
              np.eye(2, dtype=complex), 0.5)
    assert not is_trace_preserving(m)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_identity():
    m = invert(EDMap.identity(2, 2))
    assert maxdiff(m.phi.mat, np.eye(4)) < 1e-12
    assert maxdiff(m.B, np.eye(2)) < 1e-12
    assert np.abs(m.omega.mat).max() < 1e-12
    assert abs(m.gamma - 1.0) < 1e-15


def test_invert_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(5):
        m = EDMap(
            LinearMap(rc(rng, 4, 4) + 2 * np.eye(4)),
            LinearMap(rc(rng, 1, 4)),
            rc(rng, 2, 2) + 2 * np.eye(2),
            0.7,
        )
        X = BlockOperator.from_full(rc(rng, 3, 3), 2, 1)
        back = apply(invert(m), apply(m, X))
        assert maxdiff(back.full(), X.full()) < 1e-10


def test_invert_compose_gives_identity_map():
    rng = np.random.default_rng(13)
    m = EDMap(
        LinearMap(rc(rng, 4, 4) + 2 * np.eye(4)),
        LinearMap(rc(rng, 4, 4)),
        rc(rng, 2, 2) + 2 * np.eye(2),
        1.4,
    )
    ident = compose(invert(m), m)
    assert maxdiff(ident.phi.mat, np.eye(4)) < 1e-9
    assert np.abs(ident.omega.mat).max() < 1e-9
    assert maxdiff(ident.B, np.eye(2)) < 1e-9
    assert abs(ident.gamma - 1.0) < 1e-12


def test_invert_reports_singular_phi():
    m = EDMap(LinearMap.zero(2, 2), LinearMap.zero(2, 1),
              np.eye(2, dtype=complex), 1.0)
    with pytest.raises(NonInvertibleError) as err:
        invert(m)
    assert err.value.reason == "phi_singular"


def test_invert_reports_gamma_zero():
    m = EDMap(LinearMap.identity(2), LinearMap.zero(2, 1),
              np.eye(2, dtype=complex), 0.0)
    with pytest.raises(NonInvertibleError) as err:
        invert(m)
    assert err.value.reason == "gamma_zero"


def test_invert_reports_singular_B():
    m = EDMap(LinearMap.identity(2), LinearMap.zero(2, 1),
              np.array([[1, 0], [0, 0]], dtype=complex), 1.0)
    with pytest.raises(NonInvertibleError) as err:
        invert(m)
    assert err.value.reason == "B_singular"


# ---------------------------------------------------------------------------
# build_tp_omega
# ---------------------------------------------------------------------------

def test_build_tp_omega_identity_phi_gives_zero():
    rng = np.random.default_rng(14)
    omega = build_tp_omega(LinearMap.identity(3), random_density(rng, 2))
    assert np.abs(omega.mat).max() < 1e-12


def test_build_tp_omega_total_damping():
    d_e, d_g = 2, 3
    omega = build_tp_omega(LinearMap.zero(d_e, d_e), np.eye(d_g) / d_g)
    rng = np.random.default_rng(15)
    X = rc(rng, d_e, d_e)
    assert np.abs(omega(X) - np.trace(X) * np.eye(d_g) / d_g).max() < 1e-12


def test_build_tp_omega_amplitude_damping_qubit():
    a = 0.8
    phi = LinearMap(np.array([[a ** 2]], dtype=complex))
    omega = build_tp_omega(phi, np.array([[1.0]]))
    x = np.array([[0.9]], dtype=complex)
    assert abs(omega(x)[0, 0] - (1 - a ** 2) * 0.9) < 1e-14


def test_build_tp_omega_rejects_non_state():
    with pytest.raises(ValueError):
        build_tp_omega(LinearMap.identity(2), np.diag([0.5, 0.6]))
    with pytest.raises(ValueError):
        build_tp_omega(LinearMap.identity(2), np.diag([1.5, -0.5]))


# ---------------------------------------------------------------------------
# qubit_map
# ---------------------------------------------------------------------------

def test_qubit_map_identity_parameters():
    m = qubit_map(1.0, 1.0, 0.0, 1.0)
    rng = np.random.default_rng(16)
    X = BlockOperator.from_full(rc(rng, 2, 2), 1, 1)
    assert maxdiff(apply(m, X).full(), X.full()) < 1e-14


def test_qubit_map_amplitude_damping_is_tp():
    a = 0.8
    m = qubit_map(a, a, np.sqrt(1 - a ** 2), 1.0)
    assert is_trace_preserving(m, 1e-12)


def test_qubit_map_phase_damping():
    # |a| = 1 forces a vanishing ground feed; only the coherence is damped
    m = qubit_map(1.0, 0.6, 0.0, 1.0)
    assert is_trace_preserving(m, 1e-12)
    X = BlockOperator.from_full(
        np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex), 1, 1
    )
    Y = apply(m, X)
    assert abs(Y.ee[0, 0] - 0.5) < 1e-14
    assert abs(Y.gg[0, 0] - 0.5) < 1e-14
    assert abs(Y.eg[0, 0] - 0.24) < 1e-14


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    rng = np.random.default_rng(17)
    m = cp_edmap(rng, 2, 2)
    out = compose(EDMap.identity(2, 2), m)
    assert maxdiff(out.to_linear_map().mat, m.to_linear_map().mat) < 1e-12


def test_compose_amplitude_damping_multiplies_amplitudes():
    a1, a2 = 0.9, 0.7
    m1 = qubit_map(a1, a1, np.sqrt(1 - a1 ** 2), 1.0)
    m2 = qubit_map(a2, a2, np.sqrt(1 - a2 ** 2), 1.0)
    out = compose(m2, m1)
    a = a2 * a1
    assert abs(out.phi.mat[0, 0] - a ** 2) < 1e-14
    assert abs(out.B[0, 0] - a) < 1e-14
    assert abs(out.omega.mat[0, 0] - (1 - a ** 2)) < 1e-14
    assert abs(out.gamma - 1.0) < 1e-15


def test_compose_matches_full_superoperator_product():
    rng = np.random.default_rng(18)
    for _ in range(5):
        m1 = EDMap(LinearMap(rc(rng, 4, 4)), LinearMap(rc(rng, 9, 4)),
                   rc(rng, 2, 2), float(rng.uniform(0, 2)))
        m2 = EDMap(LinearMap(rc(rng, 4, 4)), LinearMap(rc(rng, 9, 4)),
                   rc(rng, 2, 2), float(rng.uniform(0, 2)))
        direct = compose(m2, m1).to_linear_map().mat
        product = m2.to_linear_map().mat @ m1.to_linear_map().mat
        assert maxdiff(direct, product) < 1e-12


def test_compose_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(EDMap.identity(2, 2), EDMap.identity(2, 3))


def test_edmap_validates_gamma():
    with pytest.raises(ValueError):
        EDMap(LinearMap.identity(2), LinearMap.zero(2, 1),
              np.eye(2, dtype=complex), -0.3)


def test_tni_phi_keeps_tp_examples_physical():
    # trace non-increasing phi promoted to a TP map stays trace preserving
    rng = np.random.default_rng(19)
    phi = random_tni_cp_map(rng, 2)
    omega = build_tp_omega(phi, random_density(rng, 2))
    m = EDMap(phi, omega, np.zeros((2, 2), dtype=complex), 1.0)
    assert is_trace_preserving(m, 1e-10)
