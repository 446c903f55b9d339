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
from edchan.channel import COND_LIMIT, EDStack, _cond, invert_stack
from conftest import (
    count_svds,
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


def _ulp_below(x):
    return float(np.nextafter(x, 0.0))


@pytest.mark.parametrize("ulp_below, tp", [(False, True), (True, False)],
                         ids=["at_tol", "ulp_below"])
def test_tp_gamma_boundary(ulp_below, tp):
    """TP when |gamma - 1| is exactly tol, the trace functional being exact; not one ulp
    below."""
    gamma = 1.0 + 2.0 ** -30
    m = EDMap(LinearMap.identity(2), LinearMap.zero(2, 1), np.zeros((2, 2)), gamma)
    tol = abs(m.gamma - 1.0)
    assert is_trace_preserving(m, _ulp_below(tol) if ulp_below else tol) is tp


@pytest.mark.parametrize("ulp_below, tp", [(False, True), (True, False)],
                         ids=["at_tol", "ulp_below"])
def test_tp_trace_functional_boundary(ulp_below, tp):
    """TP when the trace functional deviates from the identity by exactly tol, at
    gamma = 1; not one ulp below."""
    phi = LinearMap.identity(2) * (1.0 - 2.0 ** -30)
    m = EDMap(phi, LinearMap.zero(2, 1), np.zeros((2, 2)), 1.0)
    tol = float(np.abs(phi.trace_functional() - np.eye(2)).max())
    assert tol > 0
    assert is_trace_preserving(m, _ulp_below(tol) if ulp_below else tol) is tp


@pytest.mark.parametrize("ulp_below", [False, True], ids=["at_tol", "ulp_below"])
def test_build_tp_omega_trace_boundary(ulp_below):
    """Omega is a state when its trace is exactly tol away from 1; not one ulp below."""
    Omega = np.diag([0.5, 0.5 + 2.0 ** -30])
    tol = abs(complex(np.trace(Omega)) - 1.0)
    if ulp_below:
        with pytest.raises(ValueError, match="trace"):
            build_tp_omega(LinearMap.identity(2), Omega, _ulp_below(tol))
    else:
        build_tp_omega(LinearMap.identity(2), Omega, tol)


@pytest.mark.parametrize("ulp_below, hermitian", [(False, True), (True, False)],
                         ids=["at_tol", "ulp_below"])
def test_block_operator_hermiticity_boundary(ulp_below, hermitian):
    """A block operator is hermitian within a tol equal to its max-entry deviation from
    its adjoint; not within one ulp less."""
    X = BlockOperator([[1.0, 0.25 + 2.0 ** -30], [0.25, 1.0]], np.zeros((2, 1)),
                      np.zeros((1, 2)), [[1.0]])
    tol = float(np.abs(X.full() - X.full().conj().T).max())
    assert tol > 0
    assert X.is_hermitian(_ulp_below(tol) if ulp_below else tol) is hermitian


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


REASONS = {
    "gamma_zero": "gamma is zero; the ground block is lost",
    "phi_singular": "phi is singular (superoperator condition number above 1e12)",
    "B_singular": "B is singular (condition number above 1e12)",
}


def svd_only_inverse(s: EDStack):
    """invert_stack decided by the SVD of every block: the inverse, or (reason, message, index)."""
    failed = np.array([s.gamma <= 0.0, _cond(s.phi) > COND_LIMIT, _cond(s.B) > COND_LIMIT])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        reason = list(REASONS)[int(failed[:, k].argmax())]
        return reason, REASONS[reason], k
    phi_inv = np.linalg.inv(s.phi)
    return EDStack(phi_inv, -(1.0 / s.gamma)[:, None, None] * (s.omega @ phi_inv),
                   np.linalg.inv(s.B), 1.0 / s.gamma)


def inverse_or_refusal(s: EDStack):
    try:
        return invert_stack(s)
    except NonInvertibleError as err:
        return err.reason, str(err), err.index


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, EDStack)
        for block in ("phi", "omega", "B", "gamma"):
            assert np.array_equal(getattr(got, block), getattr(want, block))


def planted(rng, n, cond):
    """An n x n matrix U diag(s) V† of condition number cond (1 when n = 1), at a random scale."""
    U, V = (np.linalg.qr(rc(rng, n, n))[0] for _ in range(2))
    s = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-3, 3)
    return (U * s) @ V.conj().T


# planted condition numbers: the certificate's 1e8, the band 1e8-1e12 that the
# SVD decides, and just below and above COND_LIMIT
CONDS = [1.0, 1e2, 1e6, 1e8, 3e8, 1e9, 1e10, 1e11, 5e11, 0.999e12, 1.001e12, 2e12, 1e13, 1e16]


@pytest.mark.parametrize("d_e", [1, 2, 8])
def test_invert_stack_matches_the_svd_decision(monkeypatch, d_e):
    # phi is d_e^2 x d_e^2 and B d_e x d_e: matrix sizes 1, 2, 4, 8 and 64
    rng = np.random.default_rng([71, d_e])
    d_g = 2
    pairs = [(c, 1.0) for c in CONDS] + [(1.0, c) for c in CONDS] + [(c, c) for c in CONDS]
    blocks = [(planted(rng, d_e * d_e, a), rc(rng, d_g * d_g, d_e * d_e), planted(rng, d_e, b),
               rng.uniform(0.3, 1.8)) for a, b in pairs]
    stack = EDStack(*map(np.stack, zip(*blocks)))
    maps = [stack[k:k + 1] for k in range(len(stack))]
    svds, refused = count_svds(monkeypatch), []
    for (a, b), m in zip(pairs, maps):
        svds.clear()
        got = inverse_or_refusal(m)
        assert_same_outcome(got, svd_only_inverse(m))
        refused.append(isinstance(got, tuple))
        # a block of planted condition number up to 1e6 is certified from its
        # inverse; one from 1e10 on gets the SVD (|M|_F |M^-1|_F >= cond)
        opened = {M.shape[-1] for M in svds[:-2]}  # svd_only_inverse's two calls come last
        for size, cond in ((d_e * d_e, a), (d_e, b)):
            if cond <= 1e6 or d_e == 1:  # a 1 x 1 matrix has condition number 1
                assert size not in opened
            elif cond >= 1e10:
                assert size in opened
    # both sides of COND_LIMIT are reached (a 1 x 1 block is never refused)
    assert any(refused) != (d_e == 1) and not all(refused)
    # the whole stack at once: the first refused map, or every inverse
    for lo in range(0, len(maps), 5):
        s = stack[lo:]
        assert_same_outcome(inverse_or_refusal(s), svd_only_inverse(s))


def test_invert_stack_keeps_the_reason_priority_and_index():
    # an exactly singular member makes np.linalg.inv raise, so the whole stack
    # gets the SVD; gamma = 0 outranks a singular phi, which outranks B
    rng = np.random.default_rng(72)

    def one(gamma=1.0, phi_rank=4, B_rank=2):
        phi, B = planted(rng, 4, 10.0), planted(rng, 2, 10.0)
        phi[:, phi_rank:], B[:, B_rank:] = 0.0, 0.0
        return phi, rc(rng, 1, 4), B, gamma

    cases = [
        ([one(), one(gamma=0.0), one(phi_rank=3)], ("gamma_zero", 1)),
        ([one(), one(phi_rank=3), one(gamma=0.0)], ("phi_singular", 1)),
        ([one(gamma=0.0, phi_rank=3, B_rank=1), one()], ("gamma_zero", 0)),
        ([one(), one(), one(phi_rank=0, B_rank=1)], ("phi_singular", 2)),
        ([one(), one(B_rank=1), one(phi_rank=3)], ("B_singular", 1)),
        ([one(B_rank=0)], ("B_singular", 0)),
    ]
    for members, (reason, index) in cases:
        s = EDStack(*map(np.stack, zip(*members)))
        got = inverse_or_refusal(s)
        assert got == (reason, REASONS[reason], index)
        assert_same_outcome(got, svd_only_inverse(s))
    # d_e = 0: an empty phi has |M|_F |M^-1|_F = 0, which certifies nothing
    empty = EDMap(LinearMap(np.zeros((0, 0))), LinearMap(np.zeros((1, 0))), np.zeros((0, 0)), 1.0)
    s = EDStack.of([empty])
    want = ("phi_singular", REASONS["phi_singular"], 0)
    assert inverse_or_refusal(s) == svd_only_inverse(s) == want


def test_invert_runs_no_svd_on_a_seeded_map(monkeypatch):
    rng = np.random.default_rng(73)
    maps = [cp_edmap(rng, d_e, d_g) for d_e, d_g in [(1, 1), (2, 1), (4, 2), (8, 3)]]
    svds = count_svds(monkeypatch)
    inverses = [invert(m) for m in maps]
    assert svds == []
    for m, inv in zip(maps, inverses):
        ident = compose(inv, m)
        assert maxdiff(ident.phi.mat, np.eye(m.d_e ** 2)) < 1e-9
        assert maxdiff(ident.B, np.eye(m.d_e)) < 1e-9


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
