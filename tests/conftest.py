"""Seeded random instance generators shared across the test modules."""

from __future__ import annotations

import numpy as np

from edchan import (
    EDMap,
    GKLSGenerator,
    LinearMap,
    SemigroupSpec,
    build_tp_omega,
    choi,
    is_cp,
    is_cp_ed,
    kraus_from_choi,
    psi_from_sink,
)


def rc(rng, *shape):
    """Standard complex gaussian array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d, scale=1.0):
    A = rc(rng, d, d)
    return scale * (A + A.conj().T) / 2


def random_psd(rng, d, scale=1.0, rank=None):
    r = d if rank is None else rank
    A = rc(rng, d, r)
    return scale * (A @ A.conj().T) / d


def random_density(rng, d):
    W = random_psd(rng, d)
    return W / np.trace(W).real


def random_cp_map(rng, d_in, d_out, r=2, scale=1.0):
    ops = [scale * rc(rng, d_out, d_in) / np.sqrt(r * d_in) for _ in range(r)]
    return LinearMap.from_kraus(ops, d_in=d_in, d_out=d_out)


def boosted_cp_map(rng, d, r=2):
    """CP map whose canonical Kraus weights are bounded well away from zero.

    Shifting the Choi matrix by 0.4 I adds 0.4 tr(.) I to the map, keeping it
    CP while lifting every Choi eigenvalue to at least 0.4.
    """
    from edchan import ChoiMatrix

    C = choi(random_cp_map(rng, d, d, r)).mat + 0.4 * np.eye(d * d)
    ks = kraus_from_choi(ChoiMatrix(C, d_in=d, d_out=d))
    return ks.to_linear_map(d_in=d, d_out=d)


def random_noncp_map(rng, d_in, d_out, margin=0.05):
    """Hermiticity-preserving map that is clearly not completely positive."""
    m = random_cp_map(rng, d_in, d_out, 2, scale=0.8)
    probe = LinearMap.from_kraus([rc(rng, d_out, d_in) / np.sqrt(d_in)])
    while is_cp(m).min_choi_eigenvalue > -margin:
        m = m - 0.5 * probe
    return m


def random_tni_cp_map(rng, d, r=2, slack=0.9):
    """CP and trace non-increasing: sum A†A bounded by slack * I."""
    ops = [rc(rng, d, d) for _ in range(r)]
    T = sum(A.conj().T @ A for A in ops)
    top = float(np.linalg.eigvalsh(T)[-1])
    ops = [A * np.sqrt(slack / top) for A in ops]
    return LinearMap.from_kraus(ops)


def random_tp_ground_channel(rng, d_g, r=2):
    """A CPTP map on the ground sector (Kraus family normalized exactly)."""
    ops = [rc(rng, d_g, d_g) for _ in range(r)]
    T = sum(K.conj().T @ K for K in ops)
    w, V = np.linalg.eigh(T)
    T_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return LinearMap.from_kraus([K @ T_inv_half for K in ops])


def cp_edmap(rng, d_e, d_g, fill=0.7, gamma=None, boosted=False,
             omega_rank=2):
    """CP excitation-damping map with B inside (or outside) the Kraus ball.

    ``fill`` is the ratio sum |beta|^2 / gamma; values above 1 give a map
    that is not CP while keeping every block hermiticity-preserving.
    """
    phi = boosted_cp_map(rng, d_e) if boosted else random_cp_map(
        rng, d_e, d_e, int(rng.integers(1, d_e * d_e + 1)))
    omega = random_cp_map(rng, d_e, d_g, omega_rank, scale=0.8)
    g = float(rng.uniform(0.3, 1.8)) if gamma is None else float(gamma)
    ks = kraus_from_choi(choi(phi))
    beta = rc(rng, ks.count)
    beta *= np.sqrt(fill * g) / np.linalg.norm(beta)
    B = sum(b * A for b, A in zip(beta, ks.operators))
    return EDMap(phi, omega, B, g)


def tp_edmap(rng, d_e, d_g, fill=0.7):
    """Manifestly trace-preserving map built from a trace non-increasing phi."""
    phi = random_tni_cp_map(rng, d_e)
    omega = build_tp_omega(phi, random_density(rng, d_g))
    g = 1.0
    ks = kraus_from_choi(choi(phi))
    beta = rc(rng, ks.count)
    beta *= np.sqrt(fill * g) / np.linalg.norm(beta)
    B = sum(b * A for b, A in zip(beta, ks.operators))
    return EDMap(phi, omega, B, g)


def edmap_instance(rng, d_e, d_g, tol=1e-8):
    """Mixed-kind random instance for CP-criterion equivalence sweeps.

    Draws CP maps, ball-overfilled maps, maps with a non-CP omega, gamma = 0
    corner cases and wild hermiticity-preserving mixtures. Instances whose
    block Choi eigenvalues sit inside the numerically ambiguous band around
    the decision threshold are redrawn.
    """
    for _ in range(60):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.1, 0.85)))
        elif kind == 1:
            m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(1.2, 3.0)))
        elif kind == 2:
            m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.1, 0.85)))
            m = EDMap(m.phi, random_noncp_map(rng, d_e, d_g), m.B, m.gamma)
        elif kind == 3:
            # gamma = 0: CP iff B = 0 and phi CP (omega kept CP here)
            phi = (random_cp_map(rng, d_e, d_e) if rng.integers(2)
                   else random_noncp_map(rng, d_e, d_e))
            B = (np.zeros((d_e, d_e), dtype=complex) if rng.integers(2)
                 else rc(rng, d_e, d_e))
            m = EDMap(phi, random_cp_map(rng, d_e, d_g), B, 0.0)
        elif kind == 4:
            m = EDMap(
                random_noncp_map(rng, d_e, d_e),
                random_cp_map(rng, d_e, d_g),
                rc(rng, d_e, d_e) * 0.5,
                float(rng.uniform(0.3, 1.5)),
            )
        else:
            m = cp_edmap(rng, d_e, d_g, fill=float(rng.uniform(0.2, 2.0)),
                         boosted=True)
        rep = is_cp_ed(m, tol)
        eigs = [rep.omega_min_eigenvalue, rep.damped_min_eigenvalue]
        if any(-1e-5 < e < -1e-11 for e in eigs):
            continue
        return m
    raise AssertionError("failed to draw a margin-safe instance")


def truncated_kraus_edmap():
    """CP map whose B is a Kraus operator of phi that the canonical family drops.

    phi's second Kraus operator has Choi weight 1e-10, below the default
    tolerance, so B lies outside the span of the truncated family while the
    damped block phi - B(.)B† is exactly CP.
    """
    phi = LinearMap.from_kraus([0.9 * np.diag([1.0, 0.0]), np.diag([0.0, 1e-5])])
    omega = LinearMap.from_kraus([0.3 * np.array([[1.0, 0.0]])])
    return EDMap(phi, omega, np.diag([0.0, 1e-5]), 1.0)


def dg1_span_edmap(rng, d_e, fill):
    """d_g = 1 instance with B exactly in the Kraus span of phi."""
    return cp_edmap(rng, d_e, 1, fill=fill, omega_rank=1)


def dg1_planted_noncp(rng, d_e, depth=0.5):
    """d_g = 1 instance that is provably not positive, with B in the span.

    phi gets maximal Kraus rank (its span is all of B(H_e)), and B is the
    rank-one operator sqrt(f*gamma) |z><xi| with f tuned so the damped map
    sends |xi><xi| to an operator with <z|.|z> = -depth. Non-positivity (and
    hence non-CP) holds by construction, with a violation region large
    enough for Haar sampling to find.
    """
    phi = random_cp_map(rng, d_e, d_e, r=d_e * d_e)
    omega = random_cp_map(rng, d_e, 1, 1)
    gamma = float(rng.uniform(0.5, 1.5))
    xi = rc(rng, d_e)
    xi /= np.linalg.norm(xi)
    z = rc(rng, d_e)
    z /= np.linalg.norm(z)
    q = float(np.real(z.conj() @ phi(np.outer(xi, xi.conj())) @ z))
    f = q + depth
    B = np.sqrt(f * gamma) * np.outer(z, xi.conj())
    return EDMap(phi, omega, B, gamma)


def trace_times_identity(d_e, d_g, scale=0.5):
    """Superoperator matrix of X -> scale tr(X) I_g, from B(H_e) to B(H_g)."""
    return scale * np.outer(np.eye(d_g).reshape(-1), np.eye(d_e).reshape(-1)).astype(complex)


def nonhermitian_edmap(d_g, block):
    """d_e = 2 map whose phi (``block="phi"``) or omega is not hermiticity-preserving.

    The other blocks are CP, so the map's only defect is that one block; its
    Choi matrix deviates from hermitian by 0.3 (phi) or 0.2 (omega).
    """
    phi, omega = np.eye(4, dtype=complex), trace_times_identity(2, d_g)
    if block == "phi":
        phi[1, 1] += 0.3j
    else:
        omega[0, 1] += 0.2
    return EDMap(LinearMap(phi), LinearMap(omega), 0.5 * np.eye(2), 1.0)


def random_gkls(rng, d, n_jumps=1, scale=0.6, with_loss=True, norm_cap=1.5):
    """Random generator data, rescaled so the superoperator norm stays modest.

    The cap keeps finite-difference generator extraction at grid step 1e-3
    inside its stated tolerance (the central-difference error grows with the
    cube of the generator norm).
    """
    from edchan import gkls_superop

    H = random_hermitian(rng, d, scale)
    G = random_psd(rng, d, scale) if with_loss else np.zeros((d, d), dtype=complex)
    F = tuple(scale * rc(rng, d, d) / np.sqrt(d) for _ in range(n_jumps))
    gen = GKLSGenerator(H, G, F)
    if norm_cap is not None:
        s = float(np.linalg.norm(gkls_superop(gen).mat, 2))
        if s > norm_cap:
            c = norm_cap / s
            gen = GKLSGenerator(c * H, c * G,
                                tuple(np.sqrt(c) * Fm for Fm in F))
    return gen


def random_semigroup_spec(rng, d_e, d_g, n_jumps=1, tp=True, scale=0.6):
    gen = random_gkls(rng, d_e, n_jumps, scale)
    eps = float(rng.uniform(-0.5, 0.5))
    kappa = float(rng.uniform(0.0, 0.8))
    c = rc(rng, n_jumps)
    if n_jumps:
        c *= np.sqrt(rng.uniform(0.0, 0.9)) / np.linalg.norm(c)
    if tp:
        psi = psi_from_sink(gen.G, random_tp_ground_channel(rng, d_g))
    else:
        psi = random_cp_map(rng, d_e, d_g, 2, scale=0.5)
    return SemigroupSpec(gen=gen, epsilon=eps, kappa=kappa, c=c, psi=psi)


def count_svds(monkeypatch) -> list:
    """Record the matrices every np.linalg.svd call is given."""
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **kw: svds.append(M) or svd(M, *a, **kw))
    return svds


def map_from_choi(C, d_in, d_out):
    """The map whose Choi matrix, in the package's (out ⊗ in) convention, is ``C``."""
    C4 = np.asarray(C, dtype=complex).reshape(d_out, d_in, d_out, d_in)
    return LinearMap(C4.transpose(2, 0, 3, 1).reshape(d_out * d_out, d_in * d_in))


def oracle_boundary_maps(tol=1e-9):
    """Maps near the CP boundary on which a verdict read off the damped block and the
    full-Choi test at ``tol`` disagree, by name; omega is zero in each.

    - ``a_id_gamma_*``: d_e = 2, d_g = 1, phi = a id, B = I/2, a = 1/(4 gamma) - 1e-8.
      The damped block's Choi minimum is -2e-8 at every gamma, M1's is -1.3e-8,
      -4.0e-12 and -2.3e-13 at gamma = 1, 1e-2 and 1e-4: not CP, CP, CP.
    - ``stray_B``: d_e = d_g = 1, phi = 1, gamma = tol/2, B = 2 tol. M1's minimum
      is +5.0e-10: CP, although |B| > tol.
    - ``gamma_zero_phi_zero``: d_e = 2, d_g = 1, gamma = 0, phi = 0 and every entry
      of B 0.9 tol. M1's minimum is -1.8e-9: not CP, although |B| < tol.
    """
    def edmap(phi, B, gamma):
        d_e = B.shape[0]
        return EDMap(phi, LinearMap.zero(d_e, 1), B, gamma)

    maps = {f"a_id_gamma_{g}": edmap(LinearMap.identity(2) * (1 / (4 * g) - 1e-8),
                                     np.eye(2) / 2, g)
            for g in (1.0, 1e-2, 1e-4)}
    maps["stray_B"] = edmap(LinearMap.identity(1), np.array([[2 * tol]]), tol / 2)
    maps["gamma_zero_phi_zero"] = edmap(LinearMap.zero(2, 2), np.full((2, 2), 0.9 * tol), 0.0)
    return maps
