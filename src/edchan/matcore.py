"""Dense complex linear-algebra kernel shared by the channel modules.

Conventions, fixed once for the whole package:

* Operators are dense complex numpy arrays.
* Vectorization is column-stacking:

      vectorize([[a, b],
                 [c, d]]) == (a, c, b, d)

  Every superoperator matrix in this package acts on column-stacked
  operators, so ``vectorize(A @ X @ B) == kron(B.T, A) @ vectorize(X)``.
* Positive semidefiniteness is decided at eigenvalue level: ``M`` counts as
  PSD when its smallest eigenvalue is ``>= -tol``. Every ``tol`` in the
  package defaults to ``DEFAULT_TOL = 1e-9``, the CLI's default, and is used
  as given, unscaled; it absorbs the ``-1e-13`` eigenvalues that Choi matrices
  of legitimate channels pick up from roundoff. Three places differ on
  purpose: ``channel.build_tp_omega`` defaults to ``1e-10``, the
  hermiticity check the positivity probes require floors the tolerance at
  ``max(tol, 1e-8)``, and ``dynamics.psi_from_sink``'s trace-preservation
  warning floors it at ``max(tol, 1e-9)``.
* Matrix exponentials use scaling and squaring with a diagonal Padé
  approximant of degree 3, 5, 7, 9 or 13, picked by the 1-norm against
  Higham's thresholds theta_m (N. J. Higham, SIAM J. Matrix Anal. Appl.
  26(4), 1179 (2005)): one linear solve, then one squaring per halving.
  The same kernel gives the integral of e^{sA} beside e^A, as the upper
  blocks of exp([[A, c I], [0, 0]]), on n-square blocks only. It takes a
  stack of matrices, and a single matrix is the stack of one.
  Eigendecomposition is reserved for test oracles since generators may be
  defective.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9


def require_finite(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``A``, raising ``ValueError`` if any entry is NaN or infinite."""
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    return require_finite(A, name)


def _square_matrix(M, name: str = "matrix") -> np.ndarray:
    """:func:`as_complex_matrix`, also rejecting a matrix that is not square."""
    A = as_complex_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def hermitian_part(M) -> np.ndarray:
    """Return (M + M†) / 2."""
    return hermitian_parts(_square_matrix(M))


def hermitian_parts(A: np.ndarray) -> np.ndarray:
    """(A + A†) / 2 for each square matrix of a stack."""
    return (A + A.conj().swapaxes(-1, -2)) / 2


def hermiticity_deviation(A: np.ndarray):
    """Max-entry deviation of a square array from its conjugate transpose.

    A float for one matrix, an array of one value per matrix for a stack.
    """
    dev = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(dev) if A.ndim == 2 else dev


def require_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise ``ValueError`` unless the square array ``A`` is hermitian within ``tol``."""
    dev = hermiticity_deviation(A)
    if dev > tol:
        raise ValueError(f"matrix is not hermitian within {tol} (deviation {dev:.3e})")


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-entry deviation from M† is at most ``tol``."""
    return hermiticity_deviation(_square_matrix(M)) <= tol


def freeze(obj, name: str, value) -> None:
    """Set a frozen dataclass field to a read-only copy of an array or tuple of arrays."""
    def read_only(A):
        A = np.array(A, copy=True)
        A.flags.writeable = False
        return A

    frozen = tuple(map(read_only, value)) if isinstance(value, tuple) else read_only(value)
    object.__setattr__(obj, name, frozen)


class PSDVerdict(NamedTuple):
    is_psd: bool
    min_eigenvalue: float


def is_psd(M, tol: float = DEFAULT_TOL) -> PSDVerdict:
    """Eigenvalue-level PSD test.

    The matrix must be hermitian within ``tol`` (it is symmetrized before the
    eigensolve); a larger deviation raises ``ValueError``. Returns the verdict
    together with the smallest eigenvalue.
    """
    A = _square_matrix(M)
    require_hermitian(A, tol)
    if A.size == 0:
        return PSDVerdict(True, 0.0)
    w = np.linalg.eigvalsh((A + A.conj().T) / 2)
    lo = float(w[0])
    return PSDVerdict(lo >= -tol, lo)


# Coefficients b_0..b_m of the degree-m Padé numerator p_m(x) = sum_k b_k x^k
# (the denominator is p_m(-x)), and the largest 1-norm theta_m at which the
# approximant is accurate to double precision without scaling (Higham 2005).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152


def _pade(A: np.ndarray, c: np.ndarray, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_expm` on a stack of n-square A sharing the Padé degree m and the scaling s."""
    if s:
        A, c = A / 2.0 ** s, c / 2.0 ** s
    b = _PADE[m]
    # p_m(A) = U + V with U = A u(A^2) odd and V even; the b_1 and b_0 terms of
    # u and V go onto the diagonal, in place of a scaled identity
    A2 = A @ A
    if m < 13:
        powers = [A2]  # A^2, A^4, ..., A^(m-1)
        while len(powers) < m // 2:
            powers.append(powers[-1] @ A2)
        u = sum(b[2 * k + 3] * P for k, P in enumerate(powers))
        V = sum(b[2 * k + 2] * P for k, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        u = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
    n = A.shape[-1]
    diag = np.arange(n)
    u[:, diag, diag] += b[1]
    V[:, diag, diag] += b[0]
    U = A @ u
    # the block Padé quotient is [[E, F], [0, I]]: the odd part's upper-right
    # block is c u, and the even part's cancels
    R = np.linalg.solve(V - U, np.concatenate((V + U, 2 * c[:, None, None] * u), axis=-1))
    E, F = R[..., :n], R[..., n:]
    for _ in range(s):
        F = E @ F + F
        E = E @ E
    return E, F


def _expm(A: np.ndarray, c=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Upper blocks (e^A, F) of exp([[A, c I], [0, 0]]) for finite square complex A.

    ``A`` is one n-square matrix or a stack of them along leading axes, and
    ``c`` a real scalar or one per matrix; both blocks come back with A's
    shape. F = c times the integral of e^{sA} for s from 0 to 1, exact for
    singular A too; at A = t L and c = t it is the integral of e^{tau L} over
    [0, t]. The block matrix is never formed: its 1-norm max(|A|_1, |c|)
    picks each matrix's degree and scaling, its powers are
    [[A^k, c A^(k-1)], [0, 0]], and one solve gives both blocks. The
    matrices sharing a degree and scaling go through one pass of stacked
    matmuls and one stacked solve, so each gets exactly what it would alone.
    """
    shape, n = A.shape, A.shape[-1]
    A = A.reshape((int(np.prod(shape[:-2])), n, n))
    c = np.broadcast_to(np.asarray(c, dtype=float), shape[:-2]).reshape(-1)
    if n == 1:  # closed forms, exact to rounding where squaring would amplify it
        a = A[:, 0, 0]
        live = (a != 0) & (c != 0)
        F = c.astype(complex)
        F[live] = c[live] * np.expm1(a[live]) / a[live]
        return np.exp(A).reshape(shape), F.reshape(shape)
    norms = np.maximum(np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0), np.abs(c)).tolist()
    groups = {}
    for i, norm in enumerate(norms):
        m = next((deg for deg, theta in _THETA if norm <= theta), 13)
        s = int(np.ceil(np.log2(norm / _THETA_13))) if m == 13 and norm > _THETA_13 else 0
        groups.setdefault((m, s), []).append(i)
    E, F = np.empty_like(A), np.empty_like(A)
    for (m, s), members in groups.items():
        E[members], F[members] = _pade(A[members], c[members], m, s)
    return E.reshape(shape), F.reshape(shape)


def check_time(t) -> float:
    """``t`` as a float, rejecting NaN, infinite and negative times."""
    t = float(t)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and non-negative, got {t}")
    return t


def matexp(M) -> np.ndarray:
    """e^M by Padé scaling and squaring."""
    return _expm(_square_matrix(M))[0]


def integral_of_exp(L, t: float) -> np.ndarray:
    """Return the integral of e^{tau L} for tau from 0 to t."""
    A = _square_matrix(L)
    t = check_time(t)
    return _expm(as_complex_matrix(t * A, "t * L"), t)[1]


def vectorize(M) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    A = as_complex_matrix(M)
    return A.T.reshape(-1)


def devectorize(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`. ``cols`` defaults to ``rows``."""
    cols = rows if cols is None else cols
    x = np.asarray(v, dtype=complex).reshape(-1)
    if x.size != rows * cols:
        raise ValueError(f"vector of size {x.size} cannot fill a {rows}x{cols} matrix")
    return x.reshape(cols, rows).T
