import numpy as np
import pytest
import scipy.linalg  # the oracle, from the test extra; imported directly so a missing extra fails

from edchan.dynamics import K_from_spec, gkls_superop, semigroup_at
from edchan.matcore import (
    _expm,
    devectorize,
    hermitian_part,
    hermiticity_deviation,
    integral_of_exp,
    is_hermitian,
    is_psd,
    matexp,
    require_hermitian,
    vectorize,
)
from conftest import rc, random_hermitian, random_psd, random_semigroup_spec


def test_is_hermitian_identity():
    assert is_hermitian(np.eye(2), 1e-12)


def test_is_hermitian_nilpotent():
    assert not is_hermitian(np.array([[0, 1], [0, 0]]), 1e-12)


def test_is_hermitian_symmetrized_random():
    rng = np.random.default_rng(0)
    A = rc(rng, 5, 5)
    assert is_hermitian((A + A.conj().T) / 2, 1e-12)


def test_is_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_hermitian(np.zeros((2, 3)))


def test_is_psd_identity():
    verdict = is_psd(np.eye(3))
    assert verdict.is_psd
    assert abs(verdict.min_eigenvalue - 1.0) < 1e-12


def test_is_psd_negative_eigenvalue():
    verdict = is_psd(np.diag([1.0, -0.5]))
    assert not verdict.is_psd
    assert abs(verdict.min_eigenvalue + 0.5) < 1e-12


def test_is_psd_default_tol_is_not_scaled_by_trace():
    verdict = is_psd(np.diag([5.0, -3e-9]))
    assert not verdict.is_psd
    assert verdict.min_eigenvalue == -3e-9


def test_is_psd_rank_one():
    rng = np.random.default_rng(1)
    v = rc(rng, 4)
    verdict = is_psd(np.outer(v, v.conj()))
    assert verdict.is_psd
    assert verdict.min_eigenvalue > -1e-12


def test_is_psd_rejects_nonhermitian():
    with pytest.raises(ValueError):
        is_psd(np.array([[0, 1], [0, 0]]), 1e-12)


TOL = 1e-9


@pytest.mark.parametrize("lowest, psd", [
    (-TOL, True), (float(np.nextafter(-TOL, 0.0)), True), (float(np.nextafter(-TOL, -1.0)), False),
], ids=["at_tol", "ulp_above", "ulp_below"])
def test_is_psd_boundary(lowest, psd):
    """PSD at a smallest eigenvalue of exactly -tol, planted on a diagonal; one ulp below is not."""
    assert is_psd(np.diag([lowest, 1.0]), TOL) == (psd, lowest)


@pytest.mark.parametrize("deviation, hermitian", [
    (TOL, True), (float(np.nextafter(TOL, 0.0)), True), (float(np.nextafter(TOL, 1.0)), False),
], ids=["at_tol", "ulp_below", "ulp_above"])
def test_hermiticity_boundary(deviation, hermitian):
    """Hermitian at a max-entry deviation of exactly tol; one ulp more is not, and raises."""
    A = np.array([[1.0, deviation], [0.0, 1.0]])
    assert hermiticity_deviation(A) == deviation
    assert is_hermitian(A, TOL) is hermitian
    if hermitian:
        require_hermitian(A, TOL)
    else:
        with pytest.raises(ValueError, match="not hermitian"):
            require_hermitian(A, TOL)


def test_is_psd_monotone_under_shift():
    rng = np.random.default_rng(2)
    for k in range(10):
        M = random_psd(rng, 4)
        assert is_psd(M).is_psd
        assert is_psd(M + 0.1 * np.eye(4)).is_psd


def test_matexp_zero():
    assert np.abs(matexp(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15


def test_matexp_diagonal():
    a, b = 0.3 - 1.2j, -0.7 + 0.1j
    E = matexp(np.diag([a, b]))
    assert np.abs(E - np.diag([np.exp(a), np.exp(b)])).max() < 1e-14


def test_matexp_against_eigendecomposition_oracle():
    rng = np.random.default_rng(3)
    for k in range(10):
        M = rc(rng, 4, 4)
        w, V = np.linalg.eig(M)
        oracle = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
        assert np.abs(matexp(M) - oracle).max() < 1e-9


def test_matexp_inverse_property():
    rng = np.random.default_rng(4)
    for k in range(8):
        M = rc(rng, 5, 5)
        M *= 10.0 / max(np.linalg.norm(M, 2), 10.0)
        R = matexp(M) @ matexp(-M)
        assert np.abs(R - np.eye(5)).max() < 1e-9


def relative_1norm_error(X, Y):
    """||X - Y||_1 / ||Y||_1, with the 1-norm the largest column sum."""
    def norm(A):
        return np.abs(A).sum(axis=0).max(initial=0.0)
    return norm(X - Y) / max(norm(Y), np.finfo(float).tiny)


def expm_oracle_cases(rng):
    """(label, matrix) pairs spanning every Padé degree and scalings up to 1-norm ~1e3."""
    cases = [("0x0", np.zeros((0, 0))), ("zero", np.zeros((4, 4)))]
    cases += [(f"1x1 {z}", np.array([[z]])) for z in (0.0, 1e-4, -2.5, 3.0 + 4.0j, 1e3j, -7e2)]
    jordan = np.diag(np.ones(5), 1)
    cases += [(f"jordan x{c}", c * jordan) for c in (1e-3, 1.0, 1e2, 1e3)]
    # stochastic-rate generator: columns sum to 0, so it is singular and trace preserving
    R = rng.uniform(0.0, 1.0, (6, 6))
    Q = R - np.diag(R.sum(axis=0))
    Q /= np.abs(Q).sum(axis=0).max()
    for n in (1e-3, 0.1, 1.0, 10.0, 1e3):
        cases.append((f"rate generator |A|_1 = {n}", n * Q))
        H = random_hermitian(rng, 8)
        cases.append((f"skew-hermitian |A|_1 = {n}", 1j * n * H / np.abs(H).sum(axis=0).max()))
        D = -random_psd(rng, 8) + 1j * random_hermitian(rng, 8)
        cases.append((f"dissipative |A|_1 = {n}", n * D / np.abs(D).sum(axis=0).max()))
    return cases


def test_matexp_matches_scipy_oracle():
    for label, A in expm_oracle_cases(np.random.default_rng(11)):
        err = relative_1norm_error(matexp(A), scipy.linalg.expm(A))
        assert err <= 1e-13, (label, err)


def test_gkls_exponentials_match_scipy_oracle():
    # the semigroup kernels: e^{dt L}, e^{dt K} and the augmented [[L, 1], [0, 0]] integral
    rng = np.random.default_rng(12)
    for d_e in (2, 4, 8):
        for d_g in (1, 2, 3):
            spec = random_semigroup_spec(rng, d_e, d_g)
            L, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
            n = len(L)
            aug = np.block([[L, np.eye(n)], [np.zeros((n, 2 * n))]])
            for dt in (1e-3, 0.1, 1.0, 5.0, 30.0):
                label = (d_e, d_g, dt)
                for M in (L, K):
                    assert relative_1norm_error(matexp(dt * M), scipy.linalg.expm(dt * M)) <= 1e-13, label
                exact = scipy.linalg.expm(dt * aug)
                assert relative_1norm_error(matexp(dt * aug), exact) <= 1e-13, label
                assert relative_1norm_error(integral_of_exp(L, dt), exact[:n, n:]) <= 1e-13, label


def test_expm_kernel_integral_block_matches_scipy_oracle():
    # both upper blocks of exp(t [[L, I], [0, 0]]) from one n-square _expm(t L, t) call;
    # every row has |t L|_1 <= 1e3, as in test_matexp_matches_scipy_oracle, but the decay row
    rng = np.random.default_rng(14)
    R = rng.uniform(0.0, 1.0, (6, 6))
    Q = R - np.diag(R.sum(axis=0))  # singular rate generator: columns sum to 0
    Q /= np.abs(Q).sum(axis=0).max()
    jordan = np.diag(np.ones(5), 1)  # nilpotent
    rows = [(f"1x1 {z}", np.array([[z]]), t)
            for z in (0.0, 1e-4, -0.8, -2.5, 3.0 + 4.0j, -7e2)
            for t in (1e-3, 0.1, 1.0, 5.0, 30.0) if abs(z) * t <= 1e3]
    rows.append(("decay L = -1000 at t = 30", np.array([[-1000.0]]), 30.0))
    rows += [(f"jordan x{c}", c * jordan, t)
             for c in (1e-3, 1.0, 1e2, 1e3) for t in (1e-3, 0.1, 1.0)]
    rows += [(f"rate generator x{c}", c * Q, t)
             for c in (1e-3, 0.1, 1.0, 10.0) for t in (1e-3, 1.0, 30.0)]
    rows.append(("rate generator x1e3", 1e3 * Q, 1.0))
    for label, L, t in rows:
        # complex, as the generators are: scipy's real path is 5e-13 off e^-4 at the -0.8 row
        L, n = L.astype(complex), len(L)
        exact = scipy.linalg.expm(t * np.block([[L, np.eye(n)], [np.zeros((n, 2 * n))]]))
        E, F = _expm(t * L, t)
        assert relative_1norm_error(E, exact[:n, :n]) <= 1e-13, (label, t)
        assert relative_1norm_error(F, exact[:n, n:]) <= 1e-13, (label, t)


def test_expm_kernel_1x1_matches_closed_forms():
    # e^a and c expm1(a) / a; scaling and squaring of a = 30000j was 1.4e-12 off
    for a in (30000j, -3e4 + 0j):
        E, F = _expm(np.array([[a]]), 30.0)
        assert relative_1norm_error(E, np.array([[np.exp(a)]])) <= 1e-15, a
        assert relative_1norm_error(F, np.array([[30.0 * np.expm1(a) / a]])) <= 1e-15, a


def test_expm_kernel_stack_equals_separate_calls_bit_for_bit(monkeypatch):
    # one stack mixing every Padé degree, scaled norms (s >= 1) and c = 0 rows
    from edchan import matcore
    from edchan.matcore import _THETA, _THETA_13

    rng = np.random.default_rng(15)
    n = 5
    thetas = [0.0] + [theta for _, theta in _THETA] + [_THETA_13]
    norms = [rng.uniform(lo, hi) for lo, hi in zip(thetas[:-1], thetas[1:])]  # degrees 3 to 13
    norms += [_THETA_13, 2.5 * _THETA_13, 40.0, 900.0]  # s = 0, 2, 3 and 8
    mats, cs = [], []
    for norm in norms:
        for c_scale in (0.0, 0.5, 2.0):
            A = rc(rng, n, n)
            mats.append(A * norm / np.abs(A).sum(axis=0).max())
            cs.append(c_scale * norm)
    order = rng.permutation(len(mats))
    A, c = np.stack(mats)[order], np.array(cs)[order]
    groups, pade = [], matcore._pade
    monkeypatch.setattr(matcore, "_pade", lambda A, c, m, s: groups.append((m, s)) or pade(A, c, m, s))
    E, F = _expm(A, c)
    assert {m for m, _ in groups} == {3, 5, 7, 9, 13} and max(s for _, s in groups) >= 1
    for k in range(len(A)):
        E1, F1 = _expm(A[k], c[k])
        assert np.array_equal(E[k], E1) and np.array_equal(F[k], F1), k
    # leading axes beyond one, and one c broadcast over the stack
    E2, F2 = _expm(A.reshape(3, -1, n, n), 0.7)
    for k in range(len(A)):
        E1, F1 = _expm(A[k], 0.7)
        assert np.array_equal(E2.reshape(-1, n, n)[k], E1), k
        assert np.array_equal(F2.reshape(-1, n, n)[k], F1), k


def test_expm_kernel_1x1_stack_equals_separate_calls_bit_for_bit():
    rng = np.random.default_rng(16)
    a = np.concatenate([[0.0, 1e-300, -3e4, 30000j], rc(rng, 12) * 10.0 ** rng.uniform(-8, 3, 12)])
    c = np.concatenate([[1.0, 0.0, 30.0, 30.0], rng.uniform(0.0, 2.0, 11), [0.0]])
    E, F = _expm(a.reshape(-1, 1, 1), c)
    for k in range(len(a)):
        E1, F1 = _expm(np.array([[a[k]]]), c[k])
        assert np.array_equal(E[k], E1) and np.array_equal(F[k], F1), k
    assert F[0, 0, 0] == 1.0 and F[1, 0, 0] == 0.0  # a = 0 and c = 0 rows


def test_semigroup_at_matches_scipy_oracle():
    # phi, omega and B of one member against scipy's e^{tL}, psi ∘ integral and e^{tK}
    rng = np.random.default_rng(13)
    for d_e in (2, 4, 8):
        for d_g in (1, 2, 3):
            spec = random_semigroup_spec(rng, d_e, d_g)
            L, K = gkls_superop(spec.gen).mat, K_from_spec(spec)
            n = len(L)
            aug = np.block([[L, np.eye(n)], [np.zeros((n, 2 * n))]])
            for t in (1e-3, 0.1, 1.0, 5.0, 30.0):
                m = semigroup_at(spec, t)
                blocks = ((m.phi.mat, scipy.linalg.expm(t * L)),
                          (m.omega.mat, spec.psi.mat @ scipy.linalg.expm(t * aug)[:n, n:]),
                          (m.B, scipy.linalg.expm(t * K)))
                for got, exact in blocks:
                    assert relative_1norm_error(got, exact) <= 1e-13, (d_e, d_g, t)


def test_integral_of_exp_at_zero():
    L = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.abs(integral_of_exp(L, 0.0)).max() == 0.0


def test_integral_of_exp_zero_generator():
    out = integral_of_exp(np.zeros((3, 3)), 1.7)
    assert np.abs(out - 1.7 * np.eye(3)).max() < 1e-12


def test_integral_of_exp_scalar_closed_form():
    g = 0.8
    for t in (0.1, 1.0, 4.0):
        out = integral_of_exp(np.array([[-g]]), t)
        assert abs(out[0, 0] - (1 - np.exp(-g * t)) / g) < 1e-12


def test_integral_of_exp_singular_generator():
    # generator with 0 in the spectrum, where naive L^-1 (e^tL - 1) fails
    L = np.array([[0.0, 1.0], [0.0, -1.0]], dtype=complex)
    t = 0.9
    got = integral_of_exp(L, t)
    taus = np.linspace(0, t, 20001)
    quad = np.zeros((2, 2), dtype=complex)
    vals = [matexp(tau * L) for tau in taus]
    for a, b in zip(vals[:-1], vals[1:]):
        quad += (taus[1] - taus[0]) * (a + b) / 2
    assert np.abs(got - quad).max() < 1e-8


def test_integral_of_exp_rejects_negative_time():
    for t in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            integral_of_exp(np.eye(2), t)


def test_integral_of_exp_rejects_overflowing_product():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        integral_of_exp(np.array([[0.0, 1e10], [0.0, -1.0]]), 1e300)


def test_integral_of_exp_derivative_matches_exponential():
    rng = np.random.default_rng(5)
    L = rc(rng, 3, 3)
    h = 1e-5
    for t in (0.4, 1.3):
        deriv = (integral_of_exp(L, t + h) - integral_of_exp(L, t - h)) / (2 * h)
        assert np.abs(deriv - matexp(t * L)).max() < 1e-6


def test_vectorize_convention():
    M = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vectorize(M), np.array([1, 3, 2, 4], dtype=complex))


def test_devectorize_round_trip():
    rng = np.random.default_rng(8)
    M = rc(rng, 3, 5)
    assert np.array_equal(devectorize(vectorize(M), 3, 5), M)


def test_devectorize_rejects_size_mismatch():
    with pytest.raises(ValueError):
        devectorize(np.zeros(5), 2, 2)


def test_vectorize_kron_identity():
    rng = np.random.default_rng(9)
    A, X, B = rc(rng, 4, 3), rc(rng, 3, 2), rc(rng, 2, 5)
    lhs = vectorize(A @ X @ B)
    rhs = np.kron(B.T, A) @ vectorize(X)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_hermitian_part_is_hermitian():
    rng = np.random.default_rng(10)
    H = hermitian_part(rc(rng, 4, 4))
    assert is_hermitian(H, 1e-14)
