"""Dense complex linear-algebra kernel shared by the channel modules.

Conventions, fixed once for the whole package:

* Operators are dense complex numpy arrays.
* Vectorization is column-stacking:

      vectorize([[a, b],
                 [c, d]]) == (a, c, b, d)

  Every superoperator matrix in this package acts on column-stacked
  operators, so ``vectorize(A @ X @ B) == kron(B.T, A) @ vectorize(X)``.
* Positive semidefiniteness is decided at eigenvalue level: ``M`` counts as
  PSD when its smallest eigenvalue is ``>= -tol``. The default tolerance is
  ``1e-9`` scaled by the matrix trace, because Choi matrices of perfectly
  legitimate channels routinely pick up ``-1e-13`` eigenvalues from roundoff.
* Matrix exponentials go through scaling-and-squaring (``scipy.linalg.expm``);
  eigendecomposition is reserved for test oracles since generators may be
  defective.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-9


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _require_square(A: np.ndarray, name: str = "matrix") -> None:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")


def hermitian_part(M) -> np.ndarray:
    """Return (M + M†) / 2."""
    A = as_complex_matrix(M)
    _require_square(A)
    return (A + A.conj().T) / 2


def hermiticity_deviation(A: np.ndarray) -> float:
    """Max-entry deviation of a square array from its conjugate transpose."""
    return float(np.abs(A - A.conj().T).max(initial=0.0))


def require_hermitian(A: np.ndarray, tol: float) -> None:
    """Raise ``ValueError`` unless the square array ``A`` is hermitian within ``tol``."""
    dev = hermiticity_deviation(A)
    if dev > tol:
        raise ValueError(f"matrix is not hermitian within {tol} (deviation {dev:.3e})")


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-entry deviation from M† is at most ``tol``."""
    A = as_complex_matrix(M)
    _require_square(A)
    return hermiticity_deviation(A) <= tol


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


def default_psd_tol(M) -> float:
    """Default eigenvalue tolerance: 1e-9 scaled by the matrix trace."""
    A = as_complex_matrix(M)
    return DEFAULT_TOL * max(1.0, abs(complex(np.trace(A))))


def is_psd(M, tol: float | None = None) -> PSDVerdict:
    """Eigenvalue-level PSD test.

    The matrix must be hermitian within ``tol`` (it is symmetrized before the
    eigensolve); a larger deviation raises ``ValueError``. Returns the verdict
    together with the smallest eigenvalue.
    """
    A = as_complex_matrix(M)
    _require_square(A)
    t = default_psd_tol(A) if tol is None else float(tol)
    require_hermitian(A, t)
    if A.size == 0:
        return PSDVerdict(True, 0.0)
    w = np.linalg.eigvalsh((A + A.conj().T) / 2)
    lo = float(w[0])
    return PSDVerdict(lo >= -t, lo)


def matexp(M) -> np.ndarray:
    """e^M by scaling-and-squaring."""
    A = as_complex_matrix(M)
    _require_square(A)
    return scipy.linalg.expm(A)


def integral_of_exp(L, t: float) -> np.ndarray:
    """Return the integral of e^{tau L} for tau from 0 to t.

    Computed from the upper-right block of ``expm(t [[L, I], [0, 0]])``, which
    is exact for every L including singular ones (trace-preserving generators
    always have 0 in their spectrum).
    """
    A = as_complex_matrix(L)
    _require_square(A)
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    n = A.shape[0]
    if t == 0.0:
        return np.zeros((n, n), dtype=complex)
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return scipy.linalg.expm(t * aug)[:n, n:].copy()


def pinv(M, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, truncating singular values below tol*sigma_max."""
    A = as_complex_matrix(M)
    return np.linalg.pinv(A, rcond=tol)


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
