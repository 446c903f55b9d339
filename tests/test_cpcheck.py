import numpy as np
import pytest

from edchan import cpcheck
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
from edchan.matcore import hermiticity_deviation, hermitian_part
from conftest import (
    cp_edmap,
    dg1_planted_noncp,
    dg1_span_edmap,
    edmap_instance,
    map_from_choi,
    nonhermitian_edmap,
    oracle_boundary_maps,
    random_cp_map,
    random_density,
    random_noncp_map,
    random_tni_cp_map,
    rc,
    tp_edmap,
    trace_times_identity,
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
    I = np.eye(d).reshape(-1)
    m = LinearMap(np.outer(I, I) / d)  # X -> tr(X) I / d
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


def test_is_cp_default_tol_is_not_scaled_by_trace():
    # omega(X) = tr(W X) with W = diag(5, -3e-9): its Choi matrix is W
    verdict = is_cp(LinearMap(np.array([[5.0, 0.0, 0.0, -3e-9]])))
    assert not verdict.is_cp
    assert verdict.min_choi_eigenvalue == -3e-9


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


TOL = 1e-9


def split_grid():
    """CP phi and omega with gamma and max|B| on both sides of the tolerance, seeded."""
    rng = np.random.default_rng(2911)
    for d_e in (1, 2, 4):
        for d_g in (1, 2):
            for gamma in (0.0, TOL / 2, TOL, 2 * TOL, 1.0):
                for b in (0.0, TOL / 2, TOL, 2 * TOL, 0.3):
                    # max|B| is b exactly: one entry b, the others below it
                    R = rc(rng, d_e, d_e)
                    B = 0.9 * b * R / np.abs(R).max()
                    B.flat[rng.integers(B.size)] = b
                    yield EDMap(random_cp_map(rng, d_e, d_e), random_cp_map(rng, d_e, d_g),
                                B, gamma)


def family_bound(m):
    """tol, plus the roundoff of reading C_phi and C_omega through their hermitian parts."""
    deviation = max(hermiticity_deviation(choi(b).mat) for b in (m.phi, m.omega))
    return TOL + deviation / 2 + 1e-12


def rebuild_error(m, operators):
    """The full-space oracle: max-entry deviation of the family's superoperator from m's."""
    d = m.d_e + m.d_g
    return maxdiff(LinearMap.from_kraus(operators, d_in=d, d_out=d).mat, m.to_linear_map().mat)


def test_gamma_split_on_both_sides_of_the_tolerance():
    """The gamma > 0 / gamma = 0 split and every reading of it, at gamma and |B| near tol."""
    for m in split_grid():
        d_e, positive, b_max = m.d_e, m.gamma > TOL, float(np.abs(m.B).max())
        report = is_cp_ed(m, TOL)
        assert report.branch == ("gamma_positive" if positive else "gamma_zero")
        assert report.omega_cp
        assert report.damped_phi_cp == is_cp(m.to_linear_map(), TOL).is_cp  # the full-Choi oracle
        assert report.cp == report.damped_phi_cp
        if m.gamma > 0:
            assert damped_excited_map(m).mat.shape == m.phi.mat.shape
        else:
            with pytest.raises(ValueError, match="damped map requires gamma > 0"):
                damped_excited_map(m)
        if not report.cp:
            with pytest.raises(NotCompletelyPositiveError) as info:
                explicit_kraus_ed(m, TOL)
            got = info.value.report
            assert (got.cp, got.omega_cp, got.damped_phi_cp, got.branch) == (
                report.cp, report.omega_cp, report.damped_phi_cp, report.branch)
        else:
            ops = explicit_kraus_ed(m, TOL).operators
            # M1's operators, block diagonal with a multiple of I_g on gg, then omega's,
            # lower-left; the family rebuilds m itself on both sides of the split, exactly
            # away from tol, and near it up to the M1 eigenvalues in (0, tol] it drops
            diagonal = [not A[:d_e, d_e:].any() and not A[d_e:, :d_e].any() for A in ops]
            k = sum(diagonal)
            assert diagonal == [True] * k + [False] * (len(ops) - k)
            assert all(np.array_equal(A[d_e:, d_e:], A[d_e, d_e] * np.eye(m.d_g))
                       for A in ops[:k])
            assert all(not A[:d_e].any() and not A[:, d_e:].any() for A in ops[k:])
            near = 0.0 < m.gamma < 1.0 or 0.0 < b_max < 0.3
            assert rebuild_error(m, ops) <= (family_bound(m) if near else 1e-12)
        if m.d_g == 1:
            verdict = is_positive_ed_dg1(m, samples=200, tol=TOL, seed=0)
            stray = not positive and b_max > TOL and not report.damped_phi_cp
            assert (verdict.rule == "stray_B") == stray
            if stray:
                assert verdict.not_positive and verdict.samples_used == 0


def planted_choi(rng, n, lowest):
    """A random n-square hermitian matrix with smallest eigenvalue ``lowest`` (to
    roundoff), the others in [0.2, 1]; returned with the eigenvector of ``lowest``."""
    V = np.linalg.qr(rc(rng, n, n))[0]
    w = np.concatenate([[lowest], rng.uniform(0.2, 1.0, n - 1)])
    return (V * w) @ V.conj().T, V[:, 0]


ORACLE_GAMMAS = (0.0, TOL / 2, TOL, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
ORACLE_DEPTHS = (-5.0, -2.0, -1.1, -0.9, -0.5, 0.0, 0.5, 5.0)  # in units of TOL


def oracle_grid(count=1200):
    """Seeded maps whose damped Choi block and C_omega have a planted minimum within
    ±5 tol, at d_e <= 4, d_g <= 3 and gamma from 0 up through 1e-4 to 1.

    For gamma > tol, phi's Choi matrix is the damped block's plus beta beta† / gamma,
    with |beta|^2 / gamma in [0.2, 2]; then M1 = diag(C_damped, 0) + u u†. A beta
    orthogonal to the planted eigenvector keeps M1's minimum at the planted depth; a
    component along it raises M1's minimum above the damped block's. For gamma <= tol
    phi's Choi matrix is planted itself, and |beta| runs from 0 to 1e-5.
    """
    rng = np.random.default_rng(3315)
    for k in range(count):
        d_e, d_g = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        gamma, n = ORACLE_GAMMAS[k % len(ORACLE_GAMMAS)], d_e * d_e
        C, x = planted_choi(rng, n, TOL * rng.choice(ORACLE_DEPTHS))
        beta = rc(rng, n)
        if rng.integers(2) and n > 1:
            beta -= x * (x.conj() @ beta)
        if gamma > TOL:
            beta *= np.sqrt(gamma * rng.uniform(0.2, 2.0)) / np.linalg.norm(beta)
            C = C + np.outer(beta, beta.conj()) / gamma
        else:
            beta *= rng.choice([0.0, TOL, 1e-6, 1e-5]) / np.linalg.norm(beta)
        C_omega = planted_choi(rng, d_e * d_g, TOL * rng.choice(ORACLE_DEPTHS))[0]
        yield EDMap(map_from_choi(C, d_e, d_e), map_from_choi(C_omega, d_e, d_g),
                    beta.reshape(d_e, d_e), gamma)


def test_is_cp_ed_is_the_full_choi_oracle_near_the_boundary():
    """cp is the full-space Choi test's verdict on 1200 maps planted within ±5 tol."""
    seen, damped_would_differ = set(), 0
    for m in oracle_grid():
        report, oracle = is_cp_ed(m, TOL), is_cp(m.to_linear_map(), TOL)
        assert report.cp == oracle.is_cp, m
        seen.add((report.branch, report.cp))
        if report.cp and m.gamma > TOL:
            damped_would_differ += is_cp(damped_excited_map(m), TOL).min_choi_eigenvalue < -TOL
    assert seen == {(branch, cp) for branch in ("gamma_zero", "gamma_positive")
                    for cp in (True, False)}
    # the grid reaches CP maps whose damped block alone reads below -tol
    assert damped_would_differ > 0


@pytest.mark.parametrize("name", ["a_id_gamma_1.0", "a_id_gamma_0.01", "a_id_gamma_0.0001",
                                  "stray_B", "gamma_zero_phi_zero"])
def test_boundary_maps_read_the_full_choi_oracle(name):
    """The verdict, its eigenvalue and the Kraus family agree with the full-Choi oracle."""
    m = oracle_boundary_maps(TOL)[name]
    report, oracle = is_cp_ed(m, TOL), is_cp(m.to_linear_map(), TOL)
    assert report.cp == oracle.is_cp
    assert report.min_full_choi_eigenvalue == pytest.approx(min(0.0, oracle.min_choi_eigenvalue),
                                                            abs=1e-15)
    if not oracle.is_cp:
        with pytest.raises(NotCompletelyPositiveError) as info:
            explicit_kraus_ed(m, TOL)
        assert info.value.report == report
    else:
        assert explicit_kraus_ed(m, TOL).count


def test_kraus_family_rebuilds_every_accepted_map_near_the_boundary():
    """Every map of the oracle grid and the boundary maps that is_cp_ed accepts is
    rebuilt by its family to within tol, with at most d_e^2 + 1 + d_e d_g operators."""
    accepted = set()
    for m in [*oracle_grid(), *oracle_boundary_maps(TOL).values()]:
        report = is_cp_ed(m, TOL)
        if report.cp:
            ops = explicit_kraus_ed(m, TOL).operators
            assert len(ops) <= m.d_e ** 2 + 1 + m.d_e * m.d_g
            assert rebuild_error(m, ops) <= family_bound(m), m
            accepted.add(report.branch)
    assert accepted == {"gamma_zero", "gamma_positive"}


@pytest.mark.parametrize("b, rule", [(2 * TOL, None), (2e-4, "stray_B")],
                         ids=["cp_map", "m1_rejects"])
def test_stray_B_rule_only_where_m1_rejects(b, rule):
    """d_e = d_g = 1, phi = 1, gamma = tol/2: B = 2 tol is CP (M1 minimum +5e-10), so
    the probe searches and finds no witness; B = 2e-4 makes M1 reject, and the stray-B
    rule decides with no search."""
    stray = oracle_boundary_maps(TOL)["stray_B"]
    m = EDMap(stray.phi, stray.omega, [[b]], stray.gamma)
    assert is_cp(m.to_linear_map(), TOL).is_cp == (rule is None)
    verdict = is_positive_ed_dg1(m, samples=200, tol=TOL, seed=0)
    assert verdict.rule == rule
    assert verdict.not_positive == (rule is not None)
    if rule:
        assert verdict.samples_used == 0 and verdict.min_eigenvalue < -TOL


def diagonal_choi_map(phi_lowest=1.0, omega_lowest=1.0, phi_dev=0.0, gamma=1.0):
    """d_e = 2, d_g = 1, B = 0: M1 = diag(C_phi, gamma), so its eigenvalues are exact.

    C_phi = diag(phi_lowest, 1, 1, 1) plus ``phi_dev`` at entry (0, 1) alone, a
    hermiticity deviation of exactly ``phi_dev``; C_omega = diag(omega_lowest, 1).
    """
    C_phi = np.diag([phi_lowest, 1.0, 1.0, 1.0]).astype(complex)
    C_phi[0, 1] = phi_dev
    return EDMap(map_from_choi(C_phi, 2, 2), map_from_choi(np.diag([omega_lowest, 1.0]), 2, 1),
                 np.zeros((2, 2)), gamma)


BELOW = float(np.nextafter(-TOL, -1.0))
ABOVE = float(np.nextafter(TOL, 1.0))


@pytest.mark.parametrize("changes, cp, omega_cp, damped_phi_cp", [
    ({"phi_lowest": -TOL}, True, True, True),
    ({"phi_lowest": BELOW}, False, True, False),
    ({"omega_lowest": -TOL}, True, True, True),
    ({"omega_lowest": BELOW}, False, False, True),
    ({"phi_dev": TOL}, True, True, True),
    ({"phi_dev": ABOVE}, False, True, False),
], ids=["m1_at_tol", "m1_ulp_below", "omega_at_tol", "omega_ulp_below",
        "phi_hermiticity_at_tol", "phi_hermiticity_ulp_above"])
def test_block_verdict_boundaries(changes, cp, omega_cp, damped_phi_cp):
    """PSD at exactly -tol and hermitian at exactly tol; one ulp past either is not."""
    report = is_cp_ed(diagonal_choi_map(**changes), TOL)
    assert (report.cp, report.omega_cp, report.damped_phi_cp) == (cp, omega_cp, damped_phi_cp)
    if "phi_dev" not in changes:
        lowest = changes.get("phi_lowest", changes.get("omega_lowest"))
        assert min(report.omega_min_eigenvalue, report.damped_min_eigenvalue) == lowest


@pytest.mark.parametrize("gamma, branch", [(TOL, "gamma_zero"), (ABOVE, "gamma_positive")],
                         ids=["at_tol", "ulp_above"])
def test_branch_boundary(gamma, branch):
    """The reported branch splits at gamma > tol, and leaves the verdict alone."""
    report = is_cp_ed(diagonal_choi_map(gamma=gamma), TOL)
    assert (report.branch, report.cp) == (branch, True)


@pytest.mark.parametrize("lowest, cp", [(-TOL, True), (float(np.nextafter(-TOL, 0.0)), True),
                                        (BELOW, False)], ids=["at_tol", "ulp_above", "ulp_below"])
def test_kraus_from_choi_boundary(lowest, cp):
    """A Choi matrix whose smallest eigenvalue is exactly -tol has a Kraus family; one ulp
    below, it is not CP."""
    C = cpcheck.ChoiMatrix(np.diag([lowest, 1.0, 1.0, 1.0]), d_in=2, d_out=2)
    if cp:
        assert kraus_from_choi(C, TOL).count == 3
    else:
        with pytest.raises(NotCompletelyPositiveError):
            kraus_from_choi(C, TOL)


@pytest.mark.parametrize("gamma, witness", [(TOL, False), (ABOVE, True)],
                         ids=["at_tol", "ulp_above"])
def test_probe_gamma_split_boundary(gamma, witness):
    """The d_g = 1 probe reads phi alone at gamma = tol and M1's Schur complement above it.

    phi = 0, omega = 0 and B = tol J at d_e = 2, every entry exactly tol, so the stray-B
    rule (an entry above tol) stays out. Above the split the damped block sends xi xi†
    to -B xi xi† B† / gamma, whose lowest eigenvalue reaches -4 tol² / gamma, and the
    start is a witness; at the split phi = 0 gives none.
    """
    m = EDMap(LinearMap.zero(2, 2), LinearMap.zero(2, 1), np.full((2, 2), TOL), gamma)
    verdict = is_positive_ed_dg1(m, samples=200, tol=TOL, seed=0)
    assert verdict.not_positive is witness
    if witness:
        assert (verdict.rule, verdict.samples_used) == ("witness", 0)
        assert verdict.min_eigenvalue < 0
    else:
        assert (verdict.rule, verdict.min_eigenvalue) == (None, 0.0)


def test_probe_scales_the_damped_block_before_any_product():
    """B = 1e305 at gamma = 2e-9: |B|^2 / gamma and |B| / sqrt(gamma) pass the float
    range, yet the start is a witness, certified on the blocks, and nothing overflows."""
    ad = qubit_map(0.8, 0.8, 0.6, 1.0)
    m = EDMap(ad.phi, ad.omega, [[1e305]], 2e-9)
    verdict = is_positive_ed_dg1(m, samples=10, tol=TOL, seed=0)
    assert (verdict.rule, verdict.samples_used) == ("witness", 0)
    X = BlockOperator.from_full(np.outer(verdict.witness, verdict.witness.conj()), 1, 1)
    lowest = np.linalg.eigvalsh(hermitian_part(cpcheck.apply(m, X).full()))[0]
    assert lowest == verdict.min_eigenvalue < -1e304


@pytest.mark.parametrize("d_e, d_g", [(2, 1), (3, 2), (4, 3)])
def test_damped_choi_is_the_schur_complement_of_m1(d_e, d_g):
    """S r², read off M1, is the hermitian part of the damped map's Choi matrix, relative
    to the larger of its two terms, also where the entries of B make r exceed 1."""
    rng = np.random.default_rng(60 + d_e)
    for k in range(6):
        m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.5, 2.0)))
        if k % 2:
            m = EDMap(m.phi, m.omega, 1e3 * m.B, m.gamma)
        S, r = cpcheck._damped_choi(m, TOL)
        oracle = hermitian_part(choi(damped_excited_map(m)).mat)
        assert r > 1.0 if k % 2 else r >= 1.0
        scale = max(np.abs(choi(m.phi).mat).max(), np.abs(m.B).max() ** 2 / m.gamma)
        assert maxdiff(S * r * r, oracle) <= 1e-14 * scale, k


# ---------------------------------------------------------------------------
# ball_decompose
# ---------------------------------------------------------------------------

def _canonical_kraus_rank2(rng, d):
    m = random_cp_map(rng, d, d, 2)
    return kraus_from_choi(choi(m))


def _canonical_kraus_loop(w, V, d_out, d_in, t):
    """The reference for ``cpcheck._canonical_vectors``: a sorted key and one eigenvector at a time."""
    order = sorted(range(len(w)), key=lambda i: (-w[i], tuple(V[:, i].real)))
    ops = []
    for i in order:
        if w[i] <= t:
            continue
        v = V[:, i].copy()
        k = int(np.argmax(np.abs(v) > 1e-12))
        phase = v[k] / abs(v[k])
        v *= phase.conjugate()
        ops.append(np.sqrt(w[i]) * v.reshape(d_out, d_in))
    return tuple(ops)


def test_canonical_kraus_matches_the_loop_bit_for_bit():
    from edchan.demos import amplitude_damping_qubit, phase_damping_qubit

    rng = np.random.default_rng(29)
    pd, ad = phase_damping_qubit(), amplitude_damping_qubit()
    # X -> tr(X) I has Choi matrix I: every eigenvalue tied
    trace_times_identity = LinearMap(np.outer(np.eye(3).reshape(-1), np.eye(3).reshape(-1)))
    # degenerate Choi spectra (tied eigenvalues, zero eigenvalues) and random ones
    maps = [pd.phi, pd.omega, ad.phi, ad.omega, LinearMap.identity(1), LinearMap.identity(3),
            LinearMap.zero(2, 3), damped_excited_map(ad), trace_times_identity]
    for _ in range(40):
        d_in, d_out = (int(x) for x in rng.integers(1, 5, 2))
        maps.append(random_cp_map(rng, d_in, d_out, int(rng.integers(1, 4))))
    for m in maps:
        w, V = np.linalg.eigh(choi(m).mat)
        for t in (1e-9, 0.0, 0.5):
            got = cpcheck._canonical_vectors(w, V, t).reshape(-1, m.d_out, m.d_in)
            want = _canonical_kraus_loop(w, V, m.d_out, m.d_in, t)
            assert len(got) == len(want)
            for A, B in zip(got, want):
                assert A.shape == B.shape and A.tobytes() == B.tobytes()


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


def test_ball_decompose_residual_rounds_as_stacked_columns():
    # verify reports the residual, so its bits hold: V @ beta is taken with V's
    # columns laid out as np.stack(axis=1) lays them out
    rng = np.random.default_rng(46)
    for d, n in ((2, 3), (3, 5), (4, 9), (8, 12)):
        ops = [rc(rng, d, d) for _ in range(n)]
        B = rc(rng, d, d)
        bd = ball_decompose(B, KrausSet(ops), gamma=1.0)
        V = np.stack([A.T.reshape(-1) for A in ops], axis=1)
        assert bd.residual == float(np.linalg.norm(V @ bd.beta - B.T.reshape(-1)))


def test_ball_decompose_empty_family():
    ks = KrausSet(())
    bd = ball_decompose(np.zeros((2, 2)), ks, gamma=1.0)
    assert bd.member and bd.norm_sq == 0.0
    B = np.eye(2)
    bd = ball_decompose(B, ks, gamma=1.0)
    assert not bd.member
    assert bd.residual == np.linalg.norm(B) and bd.beta.shape == (0,)
    bd = ball_decompose(np.zeros((2, 2)), ks, gamma=0.0)
    assert bd.member and (bd.residual, bd.norm_sq) == (0.0, 0.0)


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
    # M1's rank is the damped block's, plus one for gamma > 0 (its Schur complement)
    r = kraus_from_choi(choi(damped_excited_map(m) if m.gamma else m.phi)).count
    s = kraus_from_choi(choi(m.omega)).count
    assert ks.count == r + s + (m.gamma > 0)


def test_explicit_kraus_block_structure():
    rng = np.random.default_rng(12)
    m = cp_edmap(rng, 2, 3, fill=0.5)
    for op in explicit_kraus_ed(m).operators:
        blocks = BlockOperator.from_full(op, 2, 3)
        assert np.abs(blocks.eg).max() < 1e-12  # upper-right block always vanishes


@pytest.mark.parametrize("d_e, d_g", [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)])
def test_explicit_kraus_error_report_matches_block_test(d_e, d_g):
    """The report a non-CP map's error carries is is_cp_ed's: verdicts exactly, eigenvalues to roundoff."""
    rng = np.random.default_rng(500 + 10 * d_e + d_g)
    maps = [qubit_map(0.5, 0.9, 0.5, 1.0)] if d_e == 1 else []
    for _ in range(3):
        overfilled = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(1.2, 3.0)))
        base = cp_edmap(rng, d_e, d_g)
        maps += [overfilled, EDMap(base.phi, random_noncp_map(rng, d_e, d_g), base.B, base.gamma)]
    for m in maps:
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


def test_sampler_stream_batch_layout_is_pinned():
    # X -> tr(W X) with W = diag(1, -eps) is negative exactly on the states with
    # |x_0|^2 < eps / (1 + eps); seed 0's first such state is state 26711, in
    # the second batch, so the batch size and the order of the draws decide it
    eps, samples, batch = 3e-5, 100000, 20000
    rng = np.random.default_rng(0)
    states = []
    for seen in range(0, samples, batch):  # each batch's real parts, then its imaginary parts
        z = rng.standard_normal((batch, 2)) + 1j * rng.standard_normal((batch, 2))
        states.append(z / np.linalg.norm(z, axis=1, keepdims=True))
    states = np.concatenate(states)
    values = np.abs(states[:, 0]) ** 2 - eps * np.abs(states[:, 1]) ** 2
    first = int(np.flatnonzero(values < -1e-9)[0])
    assert first >= batch
    verdict = is_positive_sampled(LinearMap(np.array([[1.0, 0.0, 0.0, -eps]])),
                                  samples=samples, seed=0)
    assert verdict.samples_used == first + 1
    assert np.array_equal(verdict.witness, states[first])


def test_sampler_requires_hermiticity_preserving():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        is_positive_sampled(LinearMap(rc(rng, 4, 4)), samples=10)
    m = EDMap(LinearMap(rc(rng, 4, 4)), random_cp_map(rng, 2, 1), np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        is_positive_ed_dg1(m, samples=10)


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
    omega = LinearMap(np.eye(2).reshape(1, -1))  # the trace
    m = EDMap(phi, omega, np.sqrt(0.2) * Z, 1.0)

    ks = kraus_from_choi(choi(m.phi))
    bd = ball_decompose(m.B, ks, m.gamma)
    assert bd.residual < 1e-12 and bd.norm_sq > 1.9  # in the span, far outside
    assert not is_cp_ed(m).cp
    assert is_cp(damped_excited_map(m)).min_choi_eigenvalue < -0.19
    verdict = is_positive_ed_dg1(m, samples=50000, seed=0)
    assert not verdict.not_positive
    assert verdict.min_eigenvalue > 0.19  # strictly positive on all samples


@pytest.mark.parametrize("d_e", [2, 3, 4])
def test_dg1_no_witness_on_positive_noncp_damped_blocks(d_e):
    # the reduction map tr(X) I - X and (id + T)/2 are positive and not CP; as the damped
    # block, with B = 0 and with phi = block + B(.)B†/gamma, the map is positive (omega is
    # the trace), and neither the start nor the screen may report a witness
    rng = np.random.default_rng(70 + d_e)
    vec_I = np.eye(d_e).reshape(-1)
    trace = LinearMap(vec_I.reshape(1, -1))
    reduction = LinearMap(np.outer(vec_I, vec_I)) - LinearMap.identity(d_e)
    for block in (reduction, (LinearMap.identity(d_e) + transpose_map(d_e)) * 0.5):
        B = rc(rng, d_e, d_e)
        for m in (EDMap(block, trace, np.zeros((d_e, d_e)), 1.0),
                  EDMap(block + LinearMap.from_kraus([B]) * (1 / 0.7), trace, B, 0.7)):
            assert not is_cp_ed(m).cp
            verdict = is_positive_ed_dg1(m, samples=500, seed=0)
            assert not verdict.not_positive and verdict.min_eigenvalue > -TOL


# ---------------------------------------------------------------------------
# power of the seesaw search behind is_positive_ed_dg1
# ---------------------------------------------------------------------------

def full_space_min_eigenvalue(m, chi):
    out = m.to_linear_map()(np.outer(chi, chi.conj()))
    return float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])


@pytest.mark.parametrize("d_e", [6, 8])
@pytest.mark.parametrize("depth", [1e-3, 3e-4])
def test_dg1_search_finds_every_planted_violation(d_e, depth):
    # the benchmark's planted maps, drawn from rng 100 d_e + k
    for k in range(20):
        m = dg1_planted_noncp(np.random.default_rng(100 * d_e + k), d_e, depth)
        verdict = is_positive_ed_dg1(m, samples=1000, seed=k)
        assert verdict.not_positive, k
        lam = full_space_min_eigenvalue(m, verdict.witness)
        assert lam < -1e-9, k
        assert abs(verdict.min_eigenvalue - lam) <= 1e-12


def test_dg1_search_finds_no_witness_on_cp_maps():
    rng = np.random.default_rng(208)
    for k in range(20):
        m = dg1_span_edmap(rng, 8, fill=float(rng.uniform(0.2, 0.99)))
        assert is_cp_ed(m).cp
        assert not is_positive_ed_dg1(m, samples=1000, seed=k).not_positive, k


def test_dg1_search_finds_every_sampler_witness():
    # the search screens the sampler's states, so it loses none of its
    # witnesses and sees no higher minimum where neither finds one
    rng = np.random.default_rng(209)
    hits = neither = 0
    for k in range(40):
        d_e = int(rng.integers(3, 6))
        if k % 2:
            m = dg1_planted_noncp(rng, d_e, depth=float(rng.uniform(1e-5, 1e-3)))
        else:
            m = cp_edmap(rng, d_e, 1, fill=float(rng.uniform(0.5, 1.5)), omega_rank=1)
        sampled = is_positive_sampled(damped_excited_map(m), samples=300, seed=k)
        searched = is_positive_ed_dg1(m, samples=300, seed=k)
        if sampled.not_positive:
            hits += 1
            assert searched.not_positive, k
        elif not searched.not_positive:
            neither += 1
            assert searched.min_eigenvalue <= sampled.min_eigenvalue, k
    assert hits >= 10 and neither >= 10


def test_dg1_search_screens_the_sampler_states(monkeypatch):
    # without refinement rounds the search sees the sampler's states and its start
    monkeypatch.setattr(cpcheck, "_ROUNDS", 0)
    rng = np.random.default_rng(212)
    for k in range(20):
        m = cp_edmap(rng, 3, 1, fill=float(rng.uniform(0.8, 1.4)), omega_rank=1)
        sampled = is_positive_sampled(damped_excited_map(m), samples=500, seed=k)
        searched = is_positive_ed_dg1(m, samples=500, seed=k)
        if sampled.not_positive:
            assert searched.not_positive, k
        elif not searched.not_positive:
            assert searched.min_eigenvalue <= sampled.min_eigenvalue, k


def test_dg1_lift_is_a_compression_bound_near_the_scan_minimum():
    # the witness's output has a full-space eigenvalue at most its 2x2 compression's on
    # (eta, e_g), which is negative, and within a tenth of the lowest that any ground
    # amplitude on a grid of step 2^(1/64) gives its excited direction
    rng = np.random.default_rng(213)
    for k in range(5):
        m = dg1_planted_noncp(rng, 4, depth=1e-3)
        verdict = is_positive_ed_dg1(m, samples=1000, seed=k)
        xi = verdict.witness[:4] / np.linalg.norm(verdict.witness[:4])
        eta = np.linalg.eigh(hermitian_part(damped_excited_map(m)(np.outer(xi, xi.conj()))))[1][:, 0]
        out = m.to_linear_map()(np.outer(verdict.witness, verdict.witness.conj()))
        frame = np.zeros((5, 2), dtype=complex)
        frame[:4, 0], frame[4, 1] = eta, 1.0
        compressed = np.linalg.eigvalsh(hermitian_part(frame.conj().T @ out @ frame))[0]
        assert verdict.min_eigenvalue <= compressed + 1e-15 and compressed < 0, k
        c = np.exp2(np.linspace(-10.0, 20.0, 30 * 64 + 1))
        chis = np.concatenate([np.tile(xi, (c.size, 1)), c[:, None]], axis=1)
        chis /= np.linalg.norm(chis, axis=1, keepdims=True)
        proj = chis[:, :, None] * chis.conj()[:, None, :]
        vecs = proj.transpose(0, 2, 1).reshape(c.size, -1)
        out = (vecs @ m.to_linear_map().mat.T).reshape(c.size, 5, 5).transpose(0, 2, 1)
        grid_min = np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2)[:, 0].min()
        assert verdict.min_eigenvalue <= 0.9 * grid_min, k


def closed_form_positive_map(rng, d_e, rank, gamma=0.8):
    """phi = tr(.) I/d_e, omega = tr and B = M with sigma_max(M)^2 = 0.9 gamma/d_e.

    The damped block sends xi xi† to I/d_e - M xi xi† M†/gamma, whose
    smallest eigenvalue over unit xi is 1/d_e - sigma_max(M)^2/gamma > 0, so
    the map is positive. Its damped Choi matrix I/d_e - vec(M) vec(M)†/gamma
    is PSD iff |M|_F^2 <= gamma/d_e: with singular values sigma_max/(1 + j),
    j < rank, the map is CP at rank 1 and not CP from rank 2 on.
    """
    U, _ = np.linalg.qr(rc(rng, d_e, d_e))
    V, _ = np.linalg.qr(rc(rng, d_e, d_e))
    s = np.zeros(d_e)
    s[:rank] = np.sqrt(0.9 * gamma / d_e) / (1 + np.arange(rank))
    vec_I = np.eye(d_e).reshape(-1)
    phi = LinearMap(np.outer(vec_I, vec_I) / d_e)
    return EDMap(phi, LinearMap(vec_I.reshape(1, -1)), U @ np.diag(s) @ V.conj().T, gamma)


@pytest.mark.parametrize("d_e", [2, 4, 8])
def test_dg1_search_reaches_closed_form_minimum(d_e):
    rng = np.random.default_rng(210 + d_e)
    for rank in sorted({1, 2, d_e}):
        m = closed_form_positive_map(rng, d_e, rank)
        verdict = is_positive_ed_dg1(m, samples=1000, seed=rank)
        assert not verdict.not_positive
        sigma_max = np.linalg.svd(m.B, compute_uv=False)[0]
        assert abs(verdict.min_eigenvalue - (1 / d_e - sigma_max**2 / m.gamma)) <= 1e-10
        assert is_cp_ed(m).cp == (rank == 1)


# ---------------------------------------------------------------------------
# positivity_ed: the one positivity rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d_e", [2, 8])
def test_positivity_cp_map_spends_no_samples(d_e, monkeypatch):
    """CP decides first: no probe runs, no search and no Haar state is drawn."""
    calls = []
    for name in ("_seesaw", "haar_states"):
        fn = getattr(cpcheck, name)
        monkeypatch.setattr(cpcheck, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    m = cp_edmap(np.random.default_rng(220 + d_e), d_e, 1)
    report = cpcheck.positivity_ed(m, samples=100000, seed=0)
    assert (report.positive, report.rule, report.probe, report.witness) == (True, "cp", None, None)
    assert report.cp == is_cp_ed(m)
    assert calls == []
    # the d_g = 1 probe itself has no CP shortcut: it screens every state it is given
    assert is_positive_ed_dg1(m, samples=500, seed=0).samples_used >= 500
    assert calls[0] == "_seesaw" and "haar_states" in calls


@pytest.mark.parametrize("block", ["phi", "omega"])
@pytest.mark.parametrize("d_g", [1, 2, 3])
def test_positivity_not_hermiticity_preserving_is_a_verdict(d_g, block):
    """A positive map preserves hermiticity: false at every d_g, where the probe raises."""
    m = nonhermitian_edmap(d_g, block)
    report = cpcheck.positivity_ed(m, samples=10)
    assert (report.positive, report.rule, report.probe) == (False, "hermiticity", None)
    assert not report.cp.cp
    with pytest.raises(ValueError):
        is_positive_ed_dg1(m, samples=10)


def _negative_omega_map(rng):
    return EDMap(random_cp_map(rng, 2, 2), LinearMap(-0.5 * random_cp_map(rng, 2, 1).mat),
                 np.zeros((2, 2)), 1.0)


def _stray_b_map(rng):
    return EDMap(random_cp_map(rng, 2, 2), random_cp_map(rng, 2, 1), np.eye(2), 0.0)


@pytest.mark.parametrize("make, positive, rule", [
    (_negative_omega_map, False, "omega_density"),
    (_stray_b_map, False, "stray_B"),
    (lambda rng: dg1_planted_noncp(rng, 2, depth=0.5), False, "witness"),
    # positive and not CP: the search finds no witness, and nothing certifies the true
    (lambda rng: closed_form_positive_map(rng, 4, 2), True, None),
    # not CP, hermiticity-preserving, d_g = 2: no rule decides
    (lambda rng: cp_edmap(rng, 2, 2, fill=2.0), None, None),
], ids=["omega_density", "stray_B", "witness", "no_witness", "undecided"])
def test_positivity_reaches_every_rule(make, positive, rule):
    m = make(np.random.default_rng(230))
    report = cpcheck.positivity_ed(m, samples=2000, seed=0)
    assert not report.cp.cp
    assert (report.positive, report.rule) == (positive, rule)
    assert (report.probe is None) == (m.d_g != 1)
    if report.probe is not None:
        assert report.probe.rule == rule
    if positive is False:
        assert full_space_min_eigenvalue(m, report.witness) < -TOL


@pytest.mark.parametrize("d_g", [1, 2, 3])
def test_verify_reads_positivity_from_the_one_rule(d_g):
    """verify's positive and witnesses are positivity_ed's, on mixed seeded maps."""
    from edchan import cli
    from edchan.jsonio import matrix_to_json

    rng = np.random.default_rng(240 + d_g)
    rules = set()
    for k in range(16):
        if d_g == 1 and k % 4 == 1:
            m = dg1_planted_noncp(rng, int(rng.integers(2, 4)), depth=0.5)
        elif d_g == 1 and k % 8 == 2:
            m = _stray_b_map(rng)
        else:
            m = edmap_instance(rng, int(rng.integers(2, 4)), d_g)
        if k % 4 == 3:
            phi = m.phi.mat.copy()
            phi[1, 1] += 0.3j  # phi no longer preserves hermiticity
            m = EDMap(LinearMap(phi), m.omega, m.B, m.gamma)
        ruled = cpcheck.positivity_ed(m, TOL, cli.VERIFY_SAMPLES, k)
        report = cli._verify_report(m, TOL, k)
        witnesses = [] if ruled.witness is None else [matrix_to_json(ruled.witness)]
        assert (report["positive"], report["witnesses"]) == (ruled.positive, witnesses), k
        assert ruled.cp == is_cp_ed(m, TOL)
        assert report["cp"] == ruled.cp.cp
        rules.add(ruled.rule)
    assert {"cp", "hermiticity"} <= rules
    assert ({"omega_density", "stray_B", "witness"} <= rules) == (d_g == 1)


@pytest.mark.parametrize("d_g, below", [(1, (False, "omega_density")), (2, (None, None))])
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_positivity_hermiticity_rule_boundary(tol, d_g, below):
    """A phi Choi hermiticity deviation of exactly tol passes the rule; one ulp more is decided."""
    from edchan.matcore import hermiticity_deviation, hermitian_part

    omega = LinearMap(trace_times_identity(2, d_g, scale=-0.5))  # hermiticity-preserving, not positive
    for deviation, expected in ((tol, below), (np.nextafter(tol, 1), (False, "hermiticity"))):
        phi = np.eye(4, dtype=complex)
        phi[0, 1] = deviation  # the Choi entry C[1, 0]; its mirror C[0, 1] stays 0
        m = EDMap(LinearMap(phi), omega, np.zeros((2, 2)), 1.0)
        assert hermiticity_deviation(choi(m.phi).mat) == deviation
        report = cpcheck.positivity_ed(m, tol, samples=10)
        assert (report.positive, report.rule) == expected


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
