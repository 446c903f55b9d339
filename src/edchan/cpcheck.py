"""Complete positivity and positivity analysis for channels and their blocks.

Choi matrices use the unnormalized convention

    C = sum_{jk} map(E_jk) ⊗ E_jk

with E_jk the matrix units of the input space and index order (output ⊗
input), fixed package-wide. C is PSD iff the map is completely positive, and
hermitian iff the map is hermiticity-preserving.

The CP test for an excitation-damping map never builds the full-space Choi
matrix. That matrix splits into the omega Choi block C_omega, zero blocks,
and the (d_e^2 + 1)-square block

    M1 = [[C_phi, sqrt(d_g) beta], [sqrt(d_g) beta†, gamma d_g]]

with beta = B flattened row-major, which couples C_phi to the normalized
maximally entangled vector of the ground sector. So the map is completely
positive iff C_omega and M1 are PSD (Choi, Linear Algebra Appl. 10, 285
(1975)), and min eig C_full = min(0, min eig C_omega, min eig M1).
:func:`is_cp_ed_stack` decides exactly that, with tol applied to C_omega
and M1 and to the hermiticity of C_omega and C_phi, so its verdict is the
full-space test's. By the Schur complement, M1 is PSD iff the damped
excited-sector map phi - gamma^-1 B(.)B† is CP (gamma > 0), or B = 0 and phi
is CP (gamma = 0): the paper's block theorem. Equivalently, B must lie in
the ball of radius sqrt(gamma) spanned by the Kraus operators of phi:
B = sum_mu beta_mu A_mu with sum |beta_mu|^2 <= gamma; the ball
decomposition is a diagnostic. It is taken over the truncated canonical
Kraus family of phi, so it can miss a B that the block test accepts; the
explicit block Kraus family is read off the eigenvectors of M1 and C_omega
instead.

The block kernels take stacks of maps (:class:`~edchan.channel.EDStack`) and
run one stacked eigensolve per block for the whole stack; :func:`is_cp_ed`,
:func:`min_full_choi_eigenvalue` and the other single-map functions are
their stacks of one.

Positivity (as opposed to complete positivity) is decided by one rule,
:func:`positivity_ed`, which names the step that decided it. In order: a map
the block test finds completely positive is positive (``cp``); a map whose
phi or omega is not hermiticity-preserving within tol is not positive, at
every d_g (``hermiticity``); beyond d_g = 1 nothing else is decided. At
d_g = 1 the probe :func:`is_positive_ed_dg1` follows. The functional omega
is positive iff its density W (with omega(X) = tr(WX)) is PSD
(``omega_density``); in the gamma_zero branch, a B above tol that M1
rejects has a witness (``stray_B``); and the damped map condition reduces
positivity to rank-one inputs of phi - gamma^-1 B(.)B†. Its Choi matrix is
M1's Schur complement S = C_phi - beta beta† / gamma, and a map is positive
iff its Choi matrix is non-negative on product vectors (Jamiołkowski, Rep.
Math. Phys. 3, 275 (1972)): <eta|map(xi xi†)|eta> is S read on
eta ⊗ conj(xi). A seeded search probes this one-sidedly (``witness``). It
starts from the lowest eigenvector of S, reshaped d_e x d_e, and its leading
singular pair; only when that start is no witness does it screen a batch of
Haar states and refine the start and the lowest of them by seesaw,
alternating between the eigenproblems in eta and in xi. A witness xi is
lifted to the full space by alternating between two 2x2 eigenproblems in
its ground amplitude. Only a found witness is a certificate; a search that
finds none leaves the verdict positive with no rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BlockOperator, EDMap, EDStack, LinearMap, apply
from .matcore import (
    DEFAULT_TOL,
    as_complex_matrix,
    freeze,
    hermiticity_deviation,
    hermitian_part,
    hermitian_parts,
    is_psd,
    require_hermitian,
    vectorize,
)


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a CP map and the input is not one.

    ``report`` is the :class:`EDCPReport` when the block CP test rejected the map.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


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


def choi_stack(mats: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The Choi matrices of a stack of superoperator matrices, stacked likewise."""
    lead, n = mats.shape[:-2], d_out * d_in
    # mat[b*d_out + a, l*d_in + k] = <a| map(E_kl) |b> lands at C[a*d_in + k, b*d_in + l]
    C = mats.reshape(-1, d_out, d_out, d_in, d_in).transpose(0, 2, 4, 1, 3)
    return C.reshape(lead + (n, n))


def choi(m: LinearMap) -> ChoiMatrix:
    """C = sum_{jk} map(E_jk) ⊗ E_jk with (out ⊗ in) index order."""
    return ChoiMatrix(choi_stack(m.mat, m.d_in, m.d_out), d_in=m.d_in, d_out=m.d_out)


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


def kraus_from_choi(C: ChoiMatrix, tol: float = DEFAULT_TOL) -> KrausSet:
    """Canonical Kraus family from the Choi eigendecomposition.

    Eigenpairs are sorted by descending eigenvalue, ties broken by the
    lexicographic order of the eigenvector entries' real parts, and each
    eigenvector's phase is fixed so that its first significant entry is real
    positive; eigenvalues at or below ``tol`` are dropped. The result is
    deterministic, with at most d_in*d_out operators.
    """
    require_hermitian(C.mat, tol)
    w, V = np.linalg.eigh(hermitian_part(C.mat))
    if w.size and w[0] < -tol:
        raise NotCompletelyPositiveError(
            f"Choi matrix is not PSD: smallest eigenvalue {w[0]:.3e}"
        )
    return KrausSet(_canonical_vectors(w, V, tol).reshape(-1, C.d_out, C.d_in))


def _canonical_vectors(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """The eigenvectors of an ``eigh`` result with eigenvalue above ``t``, each scaled
    by the root of its eigenvalue, in :func:`kraus_from_choi`'s order and phase, one
    per row. For a Choi matrix, (out ⊗ in) ordering makes each row a row-major
    flattened Kraus operator."""
    # eigenvalue descending, then the real parts in order; both sorts are stable
    order = np.lexsort((*V.real[::-1], -w))
    keep = order[w[order] > t]
    Vk = V[:, keep]
    k = np.argmax(np.abs(Vk) > 1e-12, axis=0)
    lead = Vk[k, np.arange(keep.size)]
    Vk = Vk * (lead / np.abs(lead)).conj()
    return (np.sqrt(w[keep]) * Vk).T


class CPVerdict(NamedTuple):
    is_cp: bool
    min_choi_eigenvalue: float


def _min_eigenvalues(C: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the hermitian part of each matrix of a stack (0 if empty)."""
    if not C.shape[-1]:
        return np.zeros(C.shape[:-2])
    return np.linalg.eigvalsh(hermitian_parts(C))[..., 0]


def _cp_verdicts(C: np.ndarray, t: float, lo: np.ndarray) -> list:
    """:func:`is_cp`'s verdicts on a stack of Choi matrices with smallest eigenvalues ``lo``."""
    hermitian = hermiticity_deviation(C) <= t
    return [CPVerdict(bool(h) and x >= -t, x) for h, x in zip(hermitian, lo.tolist())]


def is_cp_stack(mats: np.ndarray, d_in: int, d_out: int, t: float) -> list:
    """:func:`is_cp`'s verdicts on a stack of superoperator matrices."""
    C = choi_stack(mats, d_in, d_out)
    return _cp_verdicts(C, t, _min_eigenvalues(C))


def is_cp(m: LinearMap, tol: float = DEFAULT_TOL) -> CPVerdict:
    """PSD test on the Choi matrix; never raises.

    A map whose Choi matrix is not hermitian (not hermiticity-preserving) is
    reported as not CP, with the smallest eigenvalue of the hermitian part.
    """
    return is_cp_stack(m.mat[None], m.d_in, m.d_out, tol)[0]


def _cp_with_kraus(m: LinearMap, tol: float = DEFAULT_TOL) -> tuple[CPVerdict, np.ndarray]:
    """``is_cp(m, tol)`` and the canonical Kraus operators of its Choi eigenvalues above
    ``tol``, from one ``eigh``; the operators are a CP map's Kraus family."""
    C = choi_stack(m.mat[None], m.d_in, m.d_out)
    w, V = np.linalg.eigh(hermitian_parts(C))
    verdict = _cp_verdicts(C, tol, w[:, 0] if w.size else np.zeros(1))[0]
    return verdict, _canonical_vectors(w[0], V[0], tol).reshape(-1, m.d_out, m.d_in)


def is_hermiticity_preserving(m: LinearMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Choi matrix is hermitian within ``tol``."""
    return hermiticity_deviation(choi(m).mat) <= tol


def damped_excited_map(m: EDMap) -> LinearMap:
    """The excited-sector map phi - gamma^-1 B(.)B† (gamma must be positive).

    A test oracle: the d_g = 1 probe reads the damped block's Choi matrix off M1.
    """
    if not m.gamma > 0:
        raise ValueError("damped map requires gamma > 0")
    return m.phi - LinearMap.from_kraus([m.B]) * (1 / m.gamma)


@dataclass(frozen=True)
class EDCPReport:
    """Block-level CP verdict for an excitation-damping map.

    ``omega_cp`` holds when C_omega is hermitian within tol with smallest
    eigenvalue >= -tol; ``damped_phi_cp`` when C_phi is hermitian within tol
    and M1 (the module docstring) has smallest eigenvalue >= -tol, which by
    the Schur complement is the damped map phi - gamma^-1 B(.)B† being CP
    for gamma > 0, and B = 0 with phi CP for gamma = 0. ``cp`` is both, and
    equals the full-space Choi test in exact arithmetic. ``branch``
    (``"gamma_zero"`` or ``"gamma_positive"``, split at gamma > tol) is
    information only. ``damped_min_eigenvalue`` is M1's smallest eigenvalue.
    """

    cp: bool
    omega_cp: bool
    damped_phi_cp: bool
    branch: str
    omega_min_eigenvalue: float
    damped_min_eigenvalue: float

    @property
    def min_full_choi_eigenvalue(self) -> float:
        """Smallest eigenvalue of the full-space Choi matrix's hermitian part."""
        return min(0.0, self.omega_min_eigenvalue, self.damped_min_eigenvalue)


def _coupled_blocks(s: EDStack) -> tuple:
    """C_phi and M1 (the module docstring) of every map of the stack; M1's top-left
    block is C_phi's hermitian part."""
    k, n = len(s), s.d_e * s.d_e
    C_phi = choi_stack(s.phi, s.d_e, s.d_e)
    beta = np.sqrt(s.d_g) * s.B.reshape(k, -1)
    M1 = np.empty((k, n + 1, n + 1), dtype=complex)
    M1[:, :n, :n] = hermitian_parts(C_phi)
    M1[:, :n, n] = beta
    M1[:, n, :n] = beta.conj()
    M1[:, n, n] = s.gamma * s.d_g
    return C_phi, M1


def is_cp_ed_stack(s: EDStack, tol: float = DEFAULT_TOL) -> list:
    """:func:`is_cp_ed`'s report on every map of the stack.

    One stacked eigensolve of the C_omega matrices and one of the M1
    matrices decide every map.
    """
    C_phi, M1 = _coupled_blocks(s)
    coupled = _cp_verdicts(C_phi, tol, np.linalg.eigvalsh(M1)[:, 0])
    return [EDCPReport(omega.is_cp and m1.is_cp, omega.is_cp, m1.is_cp,
                       "gamma_positive" if positive else "gamma_zero",
                       omega.min_choi_eigenvalue, m1.min_choi_eigenvalue)
            for omega, m1, positive in zip(is_cp_stack(s.omega, s.d_e, s.d_g, tol), coupled,
                                           (s.gamma > tol).tolist())]


def is_cp_ed(m: EDMap, tol: float = DEFAULT_TOL) -> EDCPReport:
    """Decide complete positivity from the blocks alone."""
    return is_cp_ed_stack(EDStack.of([m]), tol)[0]


def min_full_choi_eigenvalue_stack(s: EDStack) -> list:
    """:func:`min_full_choi_eigenvalue` of every map of the stack."""
    return [r.min_full_choi_eigenvalue for r in is_cp_ed_stack(s)]


def min_full_choi_eigenvalue(m: EDMap) -> float:
    """Smallest eigenvalue of the full-space Choi matrix's hermitian part, from the blocks.

    Equals ``is_cp(m.to_linear_map()).min_choi_eigenvalue`` (see the module
    docstring) at the cost of the (d_e^2 + 1)- and (d_e d_g)-square eigensolves
    of :func:`is_cp_ed`, whose report a caller holding one reads instead.
    """
    return min_full_choi_eigenvalue_stack(EDStack.of([m]))[0]


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
    the verdict, never as an error. A ``norm_sq`` past the float range is
    inf, and not a member.
    """
    Bm = as_complex_matrix(B, "B")
    target = vectorize(Bm)
    if kraus.count and kraus.operators[0].shape != Bm.shape:
        raise ValueError(
            f"B shape {Bm.shape} does not match Kraus shape {kraus.operators[0].shape}"
        )
    # one column per operator, C-ordered: the layout decides how V @ beta rounds,
    # and verify reports the residual; an empty family gives an (n, 0) V, an
    # empty beta and the residual |B|
    V = np.ascontiguousarray(np.array([vectorize(A) for A in kraus.operators], dtype=complex)
                             .reshape(kraus.count, target.size).T)
    beta, *_ = np.linalg.lstsq(V, target, rcond=None)
    residual = float(np.linalg.norm(V @ beta - target))
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(np.abs(beta) ** 2))
    member = (residual <= tol) and (norm_sq <= gamma + tol)
    return BallDecomposition(beta=beta, residual=residual, norm_sq=norm_sq, member=member)


def explicit_kraus_ed(m: EDMap, tol: float = DEFAULT_TOL) -> KrausSet:
    """Assemble block Kraus operators for a completely positive map.

    The family is read off the two matrices the verdict tests. Each
    eigenpair (lambda, (v, c)) of M1 (the module docstring) with lambda above
    ``tol`` gives the operator

        sqrt(lambda) diag(mat(v), c / sqrt(d_g) I_g),

    with v read row-major, so that the operators rebuild phi from C_phi, B
    from sqrt(d_g) beta and gamma from gamma d_g; each canonical Kraus
    operator Q_nu of omega gives the lower-left operator Q_nu. M1's
    eigenvectors follow the order and phase rule of :func:`kraus_from_choi`.
    That is at most d_e^2 + 1 + d_e d_g operators, returned as full-space
    matrices, and the family rebuilds the map to within ``tol`` (plus half
    the hermiticity deviation of C_phi and C_omega), at every gamma. The
    verdict is :func:`is_cp_ed`'s, and a non-CP map's error carries that
    report.
    """
    report = is_cp_ed(m, tol)
    if not report.cp:
        raise NotCompletelyPositiveError(
            f"map is not completely positive (omega_cp={report.omega_cp}, "
            f"damped_phi_cp={report.damped_phi_cp})", report)
    coupled = _canonical_vectors(*np.linalg.eigh(_coupled_blocks(EDStack.of([m]))[1][0]), tol)
    omega_ops = _cp_with_kraus(m.omega, tol)[1]
    d_e, r = m.d_e, len(coupled)
    ops = np.zeros((r + len(omega_ops), d_e + m.d_g, d_e + m.d_g), dtype=complex)
    ops[:r, :d_e, :d_e] = coupled[:, :-1].reshape(r, d_e, d_e)
    ops[:r, d_e:, d_e:] = coupled[:, -1, None, None] / np.sqrt(m.d_g) * np.eye(m.d_g)
    ops[r:, d_e:, :d_e] = omega_ops
    return KrausSet(tuple(ops))


def is_trace_nonincreasing(phi: LinearMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrix with entries delta_jl - tr phi(E_jl) is PSD.

    Equivalent, for CP maps, to the Kraus condition sum A_mu† A_mu <= I.
    """
    if phi.d_in != phi.d_out:
        raise ValueError("trace non-increase is defined for maps of B(H_e) to itself")
    W = phi.trace_functional()
    T = np.eye(phi.d_in, dtype=complex) - W.T
    if hermiticity_deviation(T) > tol:
        return False  # not hermiticity-preserving, so certainly not a quantum operation
    return is_psd(T, tol).is_psd


@dataclass(frozen=True, eq=False)
class PositivityVerdict:
    """Outcome of a positivity probe.

    ``witness`` is a state vector whose projector is mapped to an operator
    with a negative eigenvalue, or None when no witness was found. With a
    witness, ``min_eigenvalue`` is that operator's smallest eigenvalue;
    without one, the smallest eigenvalue seen. :func:`is_positive_sampled`
    returns only witnesses below -tol, and ``samples_used`` counts the states
    it drew. :func:`is_positive_ed_dg1` probes from the lowest eigenvector of
    the damped block's Choi matrix, then with the seeded screen and seesaw,
    then lifts a witness by its 2x2 alternation; its ``samples_used`` counts
    the screened Haar states plus the refinement rounds, one per refined
    state and round (0 when an exact rule or the start decides). It
    guarantees -tol only for the block it probes (the density W or the
    damped excited map); the full-space output of its witness, which it
    reports, can lie above -tol. A lifted witness's full-space eigenvalue is
    at most that of its output's 2x2 compression. Only a witness is a
    certificate; absence of one proves nothing. ``rule`` names the
    criterion of :func:`is_positive_ed_dg1` that found the witness
    (``omega_density``, ``stray_B`` or ``witness``); it is None without a
    witness and on the sampler's verdicts.
    """

    witness: np.ndarray | None
    min_eigenvalue: float
    samples_used: int
    rule: str | None = None

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


def _rank_one_images(mat: np.ndarray, xs: np.ndarray, d_out: int) -> np.ndarray:
    """Hermitian parts of map(x x†) for the rows x of ``xs``, one per row."""
    n, d_in = xs.shape
    # column-stacked projectors
    proj = xs[:, :, None] * xs.conj()[:, None, :]
    vecs = proj.transpose(0, 2, 1).reshape(n, d_in * d_in)
    out = (vecs @ mat.T).reshape(n, d_out, d_out).transpose(0, 2, 1)
    return (out + out.conj().transpose(0, 2, 1)) / 2


def _screened(m: LinearMap, samples: int, tol: float, seed: int):
    """The seeded stream of ``samples`` Haar states, _BATCH at a time.

    Returns an iterator of (states screened so far, the batch, the smallest
    eigenvalue of each state's image), which draws each batch as it is read.
    Raises ``ValueError`` at once unless ``m`` is hermiticity-preserving
    within max(tol, 1e-8).
    """
    if not is_hermiticity_preserving(m, max(tol, 1e-8)):
        raise ValueError("positivity probe requires a hermiticity-preserving map")
    rng = np.random.default_rng(seed)
    draws = ((seen, haar_states(rng, min(_BATCH, samples - seen), m.d_in))
             for seen in range(0, samples, _BATCH))
    return ((seen + len(xi), xi, np.linalg.eigvalsh(_rank_one_images(m.mat, xi, m.d_out))[:, 0])
            for seen, xi in draws)


def is_positive_sampled(m: LinearMap, samples: int = 1000,
                        tol: float = DEFAULT_TOL, seed: int = 0) -> PositivityVerdict:
    """Probe positivity on Haar-random pure states.

    Returns the first sampled state whose image has an eigenvalue below
    ``-tol``. One-sided by construction. The map must be
    hermiticity-preserving within max(tol, 1e-8); otherwise ``ValueError``.
    """
    seen, worst = 0, np.inf
    for seen, xi, mins in _screened(m, samples, tol, seed):
        worst = min(worst, float(mins.min()))
        bad = np.nonzero(mins < -tol)[0]
        if bad.size:
            k = int(bad[0])
            return PositivityVerdict(witness=xi[k], min_eigenvalue=float(mins[k]),
                                     samples_used=seen - len(xi) + k + 1)
    return PositivityVerdict(witness=None, min_eigenvalue=worst, samples_used=seen)


_STARTS = 8  # lowest screened states the seesaw refines
_ROUNDS = 40  # most seesaw rounds per refined state


def _seesaw(m: LinearMap, S: np.ndarray, samples: int, tol: float, seed: int) -> PositivityVerdict:
    """Seeded search for a rank-one input that ``m`` maps to a non-PSD operator.

    It starts from the lowest eigenvector of the hermitian part of S, m's
    Choi matrix, reshaped d_out x d_in (row-major, out ⊗ in): its leading
    singular pair (eta, conj(xi)) is the nearest product vector, and xi is
    the start. A start whose image has an eigenvalue below -tol is the
    witness, and no Haar state is drawn. Otherwise it screens ``samples``
    Haar states, drawn in the batches and from the stream of
    :func:`is_positive_sampled` with the same seed, and stops screening
    after the first batch holding a state below -tol, so every witness the
    sampler finds is found here too. The start and the ``_STARTS`` lowest
    states then go through at most ``_ROUNDS`` seesaw rounds, each setting
    eta to the lowest eigenvector of m(xi xi†) and xi to the lowest
    eigenvector of m†(eta eta†), which never raises <eta|m(xi xi†)|eta>.
    The rounds stop on a witness below -tol or when no state improves. The
    map must be hermiticity-preserving within max(tol, 1e-8); otherwise
    ``ValueError``.
    """
    d_in, d_out = m.d_in, m.d_out
    screen = _screened(m, samples, tol, seed)
    lowest = np.linalg.eigh(hermitian_part(S))[1][:, 0]
    start = np.linalg.svd(lowest.reshape(d_out, d_in))[2][:1].conj()
    low = np.linalg.eigvalsh(_rank_one_images(m.mat, start, d_out))[:, 0]
    if low[0] < -tol:
        return PositivityVerdict(witness=start[0], min_eigenvalue=float(low[0]), samples_used=0)
    xs, lows = np.empty((0, d_in), dtype=complex), np.empty(0)
    seen = 0
    for seen, batch, mins in screen:
        xs, lows = np.concatenate([xs, batch]), np.concatenate([lows, mins])
        keep = np.argsort(lows, kind="stable")[:_STARTS]
        xs, lows = xs[keep], lows[keep]
        if lows[0] < -tol:
            break
    xs, lows = np.concatenate([start, xs]), np.concatenate([low, lows])
    k = int(np.argmin(lows))
    best, best_xi = float(lows[k]), xs[k]
    adjoint = m.mat.conj().T
    _, vecs = np.linalg.eigh(_rank_one_images(m.mat, xs, d_out))
    rounds = 0
    for rounds in range(1, _ROUNDS + 1):
        xs = np.linalg.eigh(_rank_one_images(adjoint, vecs[:, :, 0], d_in))[1][:, :, 0]
        vals, vecs = np.linalg.eigh(_rank_one_images(m.mat, xs, d_out))
        k = int(np.argmin(vals[:, 0]))
        if vals[k, 0] < best:
            best, best_xi = float(vals[k, 0]), xs[k]
        if best < -tol or not (vals[:, 0] < lows).any():
            break
        lows = vals[:, 0]
    return PositivityVerdict(witness=best_xi if best < -tol else None, min_eigenvalue=best,
                             samples_used=seen + rounds * len(xs))


def _damped_choi(m: EDMap, t: float) -> tuple:
    """The damped block's Choi matrix S over r², and r, read off the blocks of M1.

    In the gamma_positive branch (gamma > t), S = C_phi - beta beta† / gamma
    is M1's Schur complement at its last entry, the Choi matrix of
    phi - gamma^-1 B(.)B†; in the gamma_zero branch S = C_phi. r is the
    power of two at or below the largest of 1, the root of C_phi's largest
    entry and beta's largest entry, taken before any product, so
    S / r² = C_phi / r² - (beta / r)(beta / r)† / gamma is formed without
    overflow and is S scaled exactly. A test of S / r² against tol / r² is
    then the test of S against tol while tol / r² is a normal float (r below
    about 1e149); beyond, tol / r² rounds on the subnormal grid, to 0 past
    r of about 2e157, where any negative S / r² is below -tol on S.
    """
    C_phi, M1 = _coupled_blocks(EDStack.of([m]))
    beta, g = M1[0, :-1, -1], M1[0, -1, -1].real
    if not m.gamma > t:
        beta, g = 0 * beta, 1.0
    r = float(np.exp2(np.floor(np.log2(max(1.0, np.abs(C_phi).max() ** 0.5, np.abs(beta).max())))))
    # conj(beta) on the left, as in from_kraus's kron(conj(B), B): at d_g = 1, S r² is then
    # the Choi matrix of damped_excited_map bit for bit
    return C_phi[0] / r / r - (beta / r).conj()[None, :] * (beta / r)[:, None] * (1 / g), r


def _min_output_eigenvalue(m: EDMap, chi: np.ndarray) -> float:
    X = BlockOperator.from_full(np.outer(chi, chi.conj()), m.d_e, m.d_g)
    return float(np.linalg.eigvalsh(hermitian_part(apply(m, X).full()))[0])


_LIFTS = 10  # alternations of the two 2x2 eigenproblems of the lift


def _lifted(m: EDMap, xi: np.ndarray, eta: np.ndarray):
    """Full-space witness (cos θ xi, sin θ) for excited-sector input xi and output eta.

    With X = xi xi†, a = eta† phi(X) eta, b = |eta† B xi| and w = omega(X),
    the output on (c xi, s) (c = cos θ, s = sin θ) compresses on (eta, e_g),
    up to a phase of eta, to [[a c², b c s], [b c s, w c² + gamma s²]]; for
    an output vector (p eta, q e_g) the quadratic form in the input (c, s) is
    [[a p² + w q², b p q], [b p q, gamma q²]]. Where the damped block is
    negative along (xi, eta) (a gamma < b²), or gamma = 0 and b > 0, the
    compression turns negative at large enough tan θ: its determinant is
    c⁴ (a w - (b² - a gamma) tan²θ). Where b² > a gamma the lift starts at
    tan²θ = max(1, 2 a w / (b² - a gamma)), where the compression is
    negative (its determinant is, or its corner a c² if a < 0), and
    elsewhere at tan θ = 1. It alternates ``_LIFTS`` times between the two
    lowest eigenvectors, no step raising the compression's smallest
    eigenvalue, and returns the state and its full-space output's smallest
    eigenvalue, which is at most the compression's.
    """
    X = np.outer(xi, xi.conj())
    a, b = float((eta.conj() @ m.phi(X) @ eta).real), float(abs(eta.conj() @ m.B @ xi))
    w, g = float(m.omega(X)[0, 0].real), m.gamma
    # plain floats: a b past 1e154 squares to inf without a warning, giving tan θ = 1
    t2 = max(1.0, 2 * a * w / (b * b - a * g)) if b * b > a * g else 1.0
    c, s = np.array([1.0, np.sqrt(t2)]) / np.sqrt(1 + t2)
    for _ in range(_LIFTS):
        p, q = np.linalg.eigh([[a * c * c, b * c * s], [b * c * s, w * c * c + g * s * s]])[1][:, 0]
        c, s = abs(np.linalg.eigh([[a * p * p + w * q * q, b * p * q],
                                   [b * p * q, g * q * q]])[1][:, 0])
    chi = np.append(c * xi, s)
    return chi, _min_output_eigenvalue(m, chi)


def is_positive_ed_dg1(m: EDMap, samples: int = 100000,
                       tol: float = DEFAULT_TOL, seed: int = 0) -> PositivityVerdict:
    """Positivity of an excitation-damping map with a one-dimensional ground sector.

    The functional omega is decided exactly: omega(X) = tr(WX) for the
    density W[j, l] = omega(E_lj), and omega is positive iff W is PSD. At
    gamma <= tol, a B with an entry above tol that M1 rejects is decided
    exactly too (``stray_B``), along B's leading right singular vector xi
    and eta = B xi / |B xi|. The remaining condition (positivity of
    phi - gamma^-1 B(.)B† for gamma > tol, of phi otherwise) is probed on
    its Choi matrix S, the Schur complement of M1 (:func:`_damped_choi`),
    by the seeded search :func:`_seesaw`: from the lowest eigenvector of S,
    then, only if that start is no witness, from ``samples`` Haar states and
    seesaw rounds. A found witness xi, with eta the lowest eigenvector of its
    damped image, is lifted to the full space by the 2x2 alternation of
    :func:`_lifted`; the returned witness is a full-space state vector and
    ``min_eigenvalue`` the smallest eigenvalue of its full-space output.
    Without a witness ``min_eigenvalue`` is the smallest damped-block
    eigenvalue seen, in the block's own scale, capped at the largest float.
    """
    if m.d_g != 1:
        raise ValueError(f"exact omega criterion requires d_g = 1, got d_g = {m.d_g}")
    W = m.omega.trace_functional()
    if not is_psd(W, tol).is_psd:
        chi = np.append(np.linalg.eigh(hermitian_part(W))[1][:, 0], 0.0)
        return PositivityVerdict(chi, _min_output_eigenvalue(m, chi), 0, "omega_density")
    if m.gamma <= tol and np.abs(m.B).max(initial=0) > tol and not is_cp_ed(m, tol).damped_phi_cp:
        # any direction not annihilated by B blows up against the frozen gg block
        xi, used, rule = np.linalg.svd(m.B)[2][0].conj(), 0, "stray_B"
        eta = m.B @ xi / np.linalg.norm(m.B @ xi)
    else:
        S, r = _damped_choi(m, tol)
        # the superoperator S reshuffles to: Choi entry (a k, b l) is entry (b a, l k)
        damped = LinearMap(S.reshape((m.d_e,) * 4).transpose(2, 0, 3, 1).reshape(S.shape))
        found = _seesaw(damped, S, samples, tol / r / r, seed)
        if not found.not_positive:  # S can pass the float range: cap its rescaled minimum
            return PositivityVerdict(None, min(found.min_eigenvalue * r * r, np.finfo(float).max),
                                     found.samples_used)
        xi, used, rule = found.witness, found.samples_used, "witness"
        eta = np.linalg.eigh(_rank_one_images(damped.mat, xi[None], m.d_e))[1][0, :, 0]
    return PositivityVerdict(*_lifted(m, xi, eta), used, rule)


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """The verdict of :func:`positivity_ed` and the rule that decided it.

    ``positive`` is True, False or None (undecided). ``rule`` is ``cp``,
    ``hermiticity``, ``omega_density``, ``stray_B`` or ``witness``, or None
    when nothing certifies the verdict: beyond d_g = 1 without a rule, and
    when the d_g = 1 search finds no witness (``positive`` is then True).
    ``probe`` is the :func:`is_positive_ed_dg1` verdict when the probe ran,
    and ``cp`` the block CP report the rule started from.
    """

    positive: bool | None
    rule: str | None
    probe: PositivityVerdict | None
    cp: EDCPReport

    @property
    def witness(self) -> np.ndarray | None:
        return None if self.probe is None else self.probe.witness


def positivity_ed(m: EDMap, tol: float = DEFAULT_TOL, samples: int = 100000,
                  seed: int = 0) -> PositivityReport:
    """Positivity of an excitation-damping map, from the first rule that decides it.

    The rules, in order: complete positivity (``cp``, True); phi or omega not
    hermiticity-preserving within ``tol`` (``hermiticity``, False, at every
    d_g), since a positive map preserves hermiticity; undecided beyond
    d_g = 1; at d_g = 1 the verdict and rule of :func:`is_positive_ed_dg1`,
    run with ``samples`` and ``seed``. Never raises on a valid map.
    """
    cp = is_cp_ed(m, tol)
    if cp.cp:
        return PositivityReport(True, "cp", None, cp)
    if not all(is_hermiticity_preserving(b, tol) for b in (m.phi, m.omega)):
        return PositivityReport(False, "hermiticity", None, cp)
    if m.d_g != 1:
        return PositivityReport(None, None, None, cp)
    probe = is_positive_ed_dg1(m, samples, tol, seed)
    return PositivityReport(not probe.not_positive, probe.rule, probe, cp)
