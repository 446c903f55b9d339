"""Complete positivity and positivity analysis for channels and their blocks.

Choi matrices use the unnormalized convention

    C = sum_{jk} map(E_jk) ⊗ E_jk

with E_jk the matrix units of the input space and index order (output ⊗
input), fixed package-wide. C is PSD iff the map is completely positive, and
hermitian iff the map is hermiticity-preserving.

The CP test for an excitation-damping map never builds the full-space Choi
matrix: the map is completely positive iff omega is completely positive and,
for gamma > 0, the damped excited-sector map phi - gamma^-1 B(.)B† is
completely positive (for gamma = 0 this degenerates to B = 0 together with
phi completely positive). Equivalently, B must lie in the ball of radius
sqrt(gamma) spanned by the Kraus operators of phi: B = sum_mu beta_mu A_mu
with sum |beta_mu|^2 <= gamma. Both routes are implemented; the block-level
Choi test is the primary oracle and the ball decomposition is a diagnostic.

The smallest eigenvalue of the full-space Choi matrix (hermitian part) is
also read off the blocks: the full Choi matrix splits into the omega Choi
block, zero blocks, and the (d_e^2 + 1)-square block

    M1 = [[C_phi, sqrt(d_g) beta], [sqrt(d_g) beta†, gamma d_g]]

with beta = B flattened row-major, which couples C_phi to the normalized
maximally entangled vector of the ground sector. Hence
min eig C_full = min(0, min eig C_omega, min eig M1).

Positivity (as opposed to complete positivity) is decided exactly only where
a criterion exists: for a one-dimensional ground sector the functional omega
is positive iff its density W (with omega(X) = tr(WX)) is PSD, and the damped
map condition reduces positivity to rank-one inputs, which a seeded Haar
sampler probes one-sidedly. Only a found witness is a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BlockOperator, EDMap, LinearMap, apply
from .matcore import (
    DEFAULT_TOL,
    as_complex_matrix,
    default_psd_tol,
    freeze,
    hermiticity_deviation,
    hermitian_part,
    is_psd,
    vectorize,
)


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a CP map and the input is not one."""


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Unnormalized Choi matrix of a map, index order (output ⊗ input)."""

    mat: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        A = as_complex_matrix(self.mat, "Choi matrix")
        n = self.d_in * self.d_out
        if A.shape != (n, n):
            raise ValueError(f"Choi matrix shape {A.shape} does not match dims")
        freeze(self, "mat", A)


def choi(m: LinearMap) -> ChoiMatrix:
    """C = sum_{jk} map(E_jk) ⊗ E_jk with (out ⊗ in) index order."""
    d_in, d_out = m.d_in, m.d_out
    n = d_out * d_in
    # mat[b*d_out + a, l*d_in + k] = <a| map(E_kl) |b> lands at C[a*d_in + k, b*d_in + l]
    C = m.mat.reshape(d_out, d_out, d_in, d_in).transpose(1, 3, 0, 2).reshape(n, n)
    return ChoiMatrix(C, d_in=d_in, d_out=d_out)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A family of Kraus operators, all of the same (d_out, d_in) shape."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(as_complex_matrix(A, "Kraus operator") for A in self.operators)
        if ops:
            shape = ops[0].shape
            if any(A.shape != shape for A in ops):
                raise ValueError("Kraus operators must share one shape")
        freeze(self, "operators", ops)

    @property
    def count(self) -> int:
        return len(self.operators)

    def to_linear_map(self, d_in: int | None = None,
                      d_out: int | None = None) -> LinearMap:
        return LinearMap.from_kraus(self.operators, d_in=d_in, d_out=d_out)


def kraus_from_choi(C: ChoiMatrix, tol: float | None = None) -> KrausSet:
    """Canonical Kraus family from the Choi eigendecomposition.

    Eigenpairs are sorted by descending eigenvalue, ties broken by the
    lexicographic order of the eigenvector entries' real parts, and each
    eigenvector's phase is fixed so that its first significant entry is real
    positive; eigenvalues at or below ``tol`` are dropped. The result is
    deterministic, with at most d_in*d_out operators.
    """
    t = default_psd_tol(C.mat) if tol is None else float(tol)
    verdict = is_psd(C.mat, t)
    if not verdict.is_psd:
        raise NotCompletelyPositiveError(
            f"Choi matrix is not PSD: smallest eigenvalue {verdict.min_eigenvalue:.3e}"
        )
    w, V = np.linalg.eigh(hermitian_part(C.mat))
    order = sorted(range(len(w)), key=lambda i: (-w[i], tuple(V[:, i].real)))
    ops = []
    for i in order:
        if w[i] <= t:
            continue
        v = V[:, i].copy()
        k = int(np.argmax(np.abs(v) > 1e-12))
        phase = v[k] / abs(v[k])
        v *= phase.conjugate()
        # (out ⊗ in) ordering makes the eigenvector a row-major flattened operator
        ops.append(np.sqrt(w[i]) * v.reshape(C.d_out, C.d_in))
    return KrausSet(tuple(ops))


class CPVerdict(NamedTuple):
    is_cp: bool
    min_choi_eigenvalue: float


def is_cp(m: LinearMap, tol: float | None = None) -> CPVerdict:
    """PSD test on the Choi matrix; never raises.

    A map whose Choi matrix is not hermitian (not hermiticity-preserving) is
    reported as not CP, with the smallest eigenvalue of the hermitian part.
    """
    C = choi(m).mat
    t = default_psd_tol(C) if tol is None else float(tol)
    lo = float(np.linalg.eigvalsh(hermitian_part(C))[0]) if C.size else 0.0
    if hermiticity_deviation(C) > t:
        return CPVerdict(False, lo)
    return CPVerdict(lo >= -t, lo)


def is_hermiticity_preserving(m: LinearMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Choi matrix is hermitian within ``tol``."""
    return hermiticity_deviation(choi(m).mat) <= tol


def damped_excited_map(m: EDMap) -> LinearMap:
    """The excited-sector map phi - gamma^-1 B(.)B† (gamma must be positive)."""
    if m.gamma <= 0.0:
        raise ValueError("damped map requires gamma > 0")
    return LinearMap(m.phi.mat - np.kron(m.B.conj(), m.B) / m.gamma)


@dataclass(frozen=True)
class EDCPReport:
    """Block-level CP verdict for an excitation-damping map.

    ``branch`` is ``"gamma_zero"`` or ``"gamma_positive"``. In the gamma_zero
    branch ``damped_phi_cp`` records the degenerate condition (B = 0 and phi
    completely positive); otherwise it is the CP verdict on
    phi - gamma^-1 B(.)B†.
    """

    cp: bool
    omega_cp: bool
    damped_phi_cp: bool
    branch: str
    omega_min_eigenvalue: float
    damped_min_eigenvalue: float


def is_cp_ed(m: EDMap, tol: float | None = None) -> EDCPReport:
    """Decide complete positivity from the blocks alone."""
    t = DEFAULT_TOL if tol is None else float(tol)
    omega_verdict = is_cp(m.omega, tol)
    if m.gamma <= t:
        branch = "gamma_zero"
        damped_verdict = is_cp(m.phi, tol)
        damped_ok = damped_verdict.is_cp and float(np.abs(m.B).max(initial=0.0)) <= t
    else:
        branch = "gamma_positive"
        damped_verdict = is_cp(damped_excited_map(m), tol)
        damped_ok = damped_verdict.is_cp
    return EDCPReport(
        cp=omega_verdict.is_cp and damped_ok,
        omega_cp=omega_verdict.is_cp,
        damped_phi_cp=damped_ok,
        branch=branch,
        omega_min_eigenvalue=omega_verdict.min_choi_eigenvalue,
        damped_min_eigenvalue=damped_verdict.min_choi_eigenvalue,
    )


def min_full_choi_eigenvalue(m: EDMap) -> float:
    """Smallest eigenvalue of the full-space Choi matrix's hermitian part, from the blocks.

    Equals ``is_cp(m.to_linear_map()).min_choi_eigenvalue`` (see the module
    docstring) at the cost of a (d_e^2 + 1)- and a (d_e d_g)-square eigensolve.
    """
    n = m.d_e * m.d_e
    beta = np.sqrt(m.d_g) * m.B.reshape(-1)
    M1 = np.empty((n + 1, n + 1), dtype=complex)
    M1[:n, :n] = hermitian_part(choi(m.phi).mat)
    M1[:n, n] = beta
    M1[n, :n] = beta.conj()
    M1[n, n] = m.gamma * m.d_g
    lo_omega = np.linalg.eigvalsh(hermitian_part(choi(m.omega).mat))[0]
    return min(0.0, float(lo_omega), float(np.linalg.eigvalsh(M1)[0]))


@dataclass(frozen=True, eq=False)
class BallDecomposition:
    """Least-squares expansion B = sum_mu beta_mu A_mu over a Kraus family.

    ``member`` is the verdict for the ball of squared radius ``gamma``:
    residual within tolerance and norm_sq = sum |beta|^2 <= gamma.
    """

    beta: np.ndarray
    residual: float
    norm_sq: float
    member: bool

    def __post_init__(self):
        freeze(self, "beta", np.asarray(self.beta, dtype=complex).reshape(-1))


def ball_decompose(B, kraus: KrausSet, gamma: float,
                   tol: float = DEFAULT_TOL) -> BallDecomposition:
    """Expand B over a Kraus family and test ball membership.

    For canonical (Choi-eigenvector) families the operators are linearly
    independent, so the coefficients are unique. Non-membership is reported in
    the verdict, never as an error.
    """
    Bm = as_complex_matrix(B, "B")
    target = vectorize(Bm)
    if kraus.count == 0:
        residual = float(np.linalg.norm(target))
        return BallDecomposition(
            beta=np.zeros(0, dtype=complex),
            residual=residual,
            norm_sq=0.0,
            member=(residual <= tol) and (0.0 <= gamma + tol),
        )
    if kraus.operators[0].shape != Bm.shape:
        raise ValueError(
            f"B shape {Bm.shape} does not match Kraus shape {kraus.operators[0].shape}"
        )
    V = np.stack([vectorize(A) for A in kraus.operators], axis=1)
    beta, *_ = np.linalg.lstsq(V, target, rcond=None)
    residual = float(np.linalg.norm(V @ beta - target))
    norm_sq = float(np.sum(np.abs(beta) ** 2))
    member = (residual <= tol) and (norm_sq <= gamma + tol)
    return BallDecomposition(beta=beta, residual=residual, norm_sq=norm_sq, member=member)


def explicit_kraus_ed(m: EDMap, tol: float | None = None) -> KrausSet:
    """Assemble block Kraus operators for a completely positive map.

    With {A_mu} a Kraus family of phi, {Q_nu} one of omega and beta the ball
    coefficients of B, the family is

        diag(0, sqrt(gamma - sum|beta|^2) I_g),
        diag(A_mu, conj(beta_mu) I_g),
        lower-left Q_nu,

    at most r + s + 1 operators (the first is dropped when its weight
    vanishes). Operators are returned as full-space matrices.
    """
    t = DEFAULT_TOL if tol is None else float(tol)
    report = is_cp_ed(m, tol)
    if not report.cp:
        raise NotCompletelyPositiveError(
            f"map is not completely positive (omega_cp={report.omega_cp}, "
            f"damped_phi_cp={report.damped_phi_cp})"
        )
    d_e, d_g = m.d_e, m.d_g
    d = d_e + d_g
    A_set = kraus_from_choi(choi(m.phi), tol)
    Q_set = kraus_from_choi(choi(m.omega), tol)
    ball = ball_decompose(m.B, A_set, m.gamma, t)
    if ball.residual > 10 * t:
        raise NotCompletelyPositiveError(
            f"B lies outside the Kraus span of phi (residual {ball.residual:.3e})"
        )
    head = m.gamma - ball.norm_sq
    if head < -10 * t:
        raise NotCompletelyPositiveError(
            f"B lies outside the ball: sum |beta|^2 = {ball.norm_sq:.12g} "
            f"> gamma = {m.gamma:.12g}"
        )
    head = max(head, 0.0)

    ops = []
    if head > t:
        op = np.zeros((d, d), dtype=complex)
        op[d_e:, d_e:] = np.sqrt(head) * np.eye(d_g)
        ops.append(op)
    for A_mu, beta_mu in zip(A_set.operators, ball.beta):
        op = np.zeros((d, d), dtype=complex)
        op[:d_e, :d_e] = A_mu
        op[d_e:, d_e:] = np.conj(beta_mu) * np.eye(d_g)
        ops.append(op)
    for Q_nu in Q_set.operators:
        op = np.zeros((d, d), dtype=complex)
        op[d_e:, :d_e] = Q_nu
        ops.append(op)
    return KrausSet(tuple(ops))


def is_trace_nonincreasing(phi: LinearMap, tol: float | None = None) -> bool:
    """True iff the matrix with entries delta_jl - tr phi(E_jl) is PSD.

    Equivalent, for CP maps, to the Kraus condition sum A_mu† A_mu <= I.
    """
    if phi.d_in != phi.d_out:
        raise ValueError("trace non-increase is defined for maps of B(H_e) to itself")
    W = phi.trace_functional()
    T = np.eye(phi.d_in, dtype=complex) - W.T
    t = default_psd_tol(T) if tol is None else float(tol)
    if hermiticity_deviation(T) > t:
        return False  # not hermiticity-preserving, so certainly not a quantum operation
    return is_psd(T, t).is_psd


@dataclass(frozen=True, eq=False)
class PositivityVerdict:
    """Outcome of a positivity probe.

    ``witness`` is a state vector whose projector is mapped to an operator
    with a negative eigenvalue, or None when no witness was found. With a
    witness, ``min_eigenvalue`` is that operator's smallest eigenvalue;
    without one, the smallest eigenvalue seen. :func:`is_positive_sampled`
    returns only witnesses below -tol. :func:`is_positive_ed_dg1` guarantees
    -tol only for the block it probes (the density W or the damped excited
    map); the full-space output of its witness, which it reports, can lie
    above -tol. Only a witness is a certificate; absence of one proves
    nothing.
    """

    witness: np.ndarray | None
    min_eigenvalue: float
    samples_used: int

    def __post_init__(self):
        if self.witness is not None:
            freeze(self, "witness", np.asarray(self.witness, dtype=complex).reshape(-1))

    @property
    def not_positive(self) -> bool:
        return self.witness is not None


def haar_states(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit vectors in C^d, one per row."""
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


_BATCH = 20000


def is_positive_sampled(m: LinearMap, samples: int = 1000,
                        tol: float = DEFAULT_TOL, seed: int = 0) -> PositivityVerdict:
    """Probe positivity on Haar-random pure states.

    Returns the first sampled state whose image has an eigenvalue below
    ``-tol``. One-sided by construction. The map must be
    hermiticity-preserving.
    """
    if not is_hermiticity_preserving(m, max(tol, 1e-8)):
        raise ValueError("positivity sampling requires a hermiticity-preserving map")
    rng = np.random.default_rng(seed)
    d_in, d_out = m.d_in, m.d_out
    seen = 0
    worst = np.inf
    while seen < samples:
        n = min(_BATCH, samples - seen)
        xi = haar_states(rng, n, d_in)
        # column-stacked projectors, one per row
        proj = xi[:, :, None] * xi.conj()[:, None, :]
        vecs = proj.transpose(0, 2, 1).reshape(n, d_in * d_in)
        out = (vecs @ m.mat.T).reshape(n, d_out, d_out).transpose(0, 2, 1)
        out = (out + out.conj().transpose(0, 2, 1)) / 2
        mins = np.linalg.eigvalsh(out)[:, 0]
        worst = min(worst, float(mins.min()))
        bad = np.nonzero(mins < -tol)[0]
        if bad.size:
            k = int(bad[0])
            return PositivityVerdict(
                witness=xi[k], min_eigenvalue=float(mins[k]), samples_used=seen + k + 1
            )
        seen += n
    return PositivityVerdict(witness=None, min_eigenvalue=worst, samples_used=seen)


def _min_output_eigenvalue(m: EDMap, chi: np.ndarray) -> float:
    X = BlockOperator.from_full(np.outer(chi, chi.conj()), m.d_e, m.d_g)
    return float(np.linalg.eigvalsh(hermitian_part(apply(m, X).full()))[0])


def _escalated_witness(m: EDMap, xi: np.ndarray):
    """Full-space witness from an excited-sector direction.

    Appends a growing ground amplitude to ``xi``; for a map whose damped
    excited block fails positivity on xi (or whose gamma = 0 block couples a
    nonzero B) the output acquires a genuinely negative eigenvalue at some
    finite amplitude.
    """
    best_chi, best_val = None, np.inf
    for k in range(31):
        c = 2.0 ** k
        chi = np.concatenate([xi, [c]]).astype(complex)
        chi = chi / np.linalg.norm(chi)
        val = _min_output_eigenvalue(m, chi)
        if val < best_val:
            best_chi, best_val = chi, val
    return best_chi, best_val


def is_positive_ed_dg1(m: EDMap, samples: int = 100000,
                       tol: float = DEFAULT_TOL, seed: int = 0) -> PositivityVerdict:
    """Positivity of an excitation-damping map with a one-dimensional ground sector.

    The functional omega is decided exactly: omega(X) = tr(WX) for the
    density W[j, l] = omega(E_lj), and omega is positive iff W is PSD. The
    remaining condition (positivity of phi - gamma^-1 B(.)B† for gamma > 0,
    or B = 0 with phi positive for gamma = 0) is probed with the Haar
    sampler. The returned witness, when found, is a full-space state vector
    and ``min_eigenvalue`` is the smallest eigenvalue of its full-space output.
    """
    if m.d_g != 1:
        raise ValueError(f"exact omega criterion requires d_g = 1, got d_g = {m.d_g}")
    W = m.omega.trace_functional()
    w_verdict = is_psd(W, tol)
    if not w_verdict.is_psd:
        _, vecs = np.linalg.eigh(hermitian_part(W))
        chi = np.concatenate([vecs[:, 0], [0.0]]).astype(complex)
        return PositivityVerdict(
            witness=chi, min_eigenvalue=_min_output_eigenvalue(m, chi), samples_used=0
        )
    if m.gamma <= tol:
        if float(np.abs(m.B).max(initial=0.0)) > tol:
            # any direction not annihilated by B blows up against the frozen gg block
            _, _, vh = np.linalg.svd(m.B)
            chi, val = _escalated_witness(m, vh[0].conj())
            return PositivityVerdict(witness=chi, min_eigenvalue=val, samples_used=0)
        probe = m.phi
    else:
        probe = damped_excited_map(m)
    sampled = is_positive_sampled(probe, samples=samples, tol=tol, seed=seed)
    if sampled.not_positive:
        chi, val = _escalated_witness(m, sampled.witness)
        return PositivityVerdict(
            witness=chi, min_eigenvalue=val, samples_used=sampled.samples_used
        )
    return PositivityVerdict(
        witness=None, min_eigenvalue=sampled.min_eigenvalue,
        samples_used=sampled.samples_used,
    )
