"""Excitation-damping maps on a Hilbert space split as excited ⊕ ground.

An operator X on the full space is stored as four blocks

    X = [[X_ee, X_eg],
         [X_ge, X_gg]]

and an excitation-damping map acts blockwise as

    Phi(X) = [[phi(X_ee),   B @ X_eg          ],
              [X_ge @ B†,   gamma*X_gg + omega(X_ee)]]

where ``phi`` maps operators on the excited sector to themselves, ``omega``
feeds excited-sector population into the ground sector, ``B`` modulates the
coherences and ``gamma >= 0`` scales the ground block. Population only ever
flows from the excited sector to the ground one.

``phi`` and ``omega`` are stored as superoperator matrices acting on
column-stacked operators (the canonical form; Kraus sets are derived views,
since maps of this class need not be completely positive and then have no
Kraus form at all).

All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (DEFAULT_TOL, as_complex_matrix, devectorize, freeze,
                      hermiticity_deviation, is_psd, vectorize)

# Condition-number threshold above which a block is treated as singular.
COND_LIMIT = 1e12


class NonInvertibleError(ValueError):
    """Raised when an excitation-damping map has no inverse.

    ``reason`` records which hypothesis failed: ``"gamma_zero"``,
    ``"phi_singular"`` or ``"B_singular"``. ``index`` is the position of the
    failing map in the stack that was inverted (0 for :func:`invert`).
    """

    def __init__(self, reason: str, message: str, index: int = 0):
        super().__init__(message)
        self.reason = reason
        self.index = index


def _cond(M: np.ndarray):
    """Spectral condition number of each matrix of a stack, infinite for an empty or singular one.

    Its SVD alone decides which block :func:`invert_stack` refuses; it runs
    only on the matrices that :func:`_singular`'s bound leaves open.
    """
    if not M.shape[-1]:
        return np.full(M.shape[:-2], np.inf)
    s = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s[..., -1] > 0, s[..., 0] / s[..., -1], np.inf)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map B(C^d_in) -> B(C^d_out) stored as a superoperator matrix.

    ``mat`` has shape (d_out**2, d_in**2) and acts on column-stacked
    operators. Composition is ``@`` (rightmost map acts first); maps form a
    vector space under ``+``, ``-`` and scalar ``*``.
    """

    mat: np.ndarray

    def __post_init__(self):
        A = as_complex_matrix(self.mat, "superoperator matrix")
        r, c = A.shape
        if math.isqrt(r) ** 2 != r or math.isqrt(c) ** 2 != c:
            raise ValueError(f"superoperator shape {A.shape} is not (d_out^2, d_in^2)")
        freeze(self, "mat", A)

    @property
    def d_in(self) -> int:
        return math.isqrt(self.mat.shape[1])

    @property
    def d_out(self) -> int:
        return math.isqrt(self.mat.shape[0])

    def __call__(self, X) -> np.ndarray:
        A = as_complex_matrix(X, "operator")
        if A.shape != (self.d_in, self.d_in):
            raise ValueError(f"operator shape {A.shape} does not match d_in={self.d_in}")
        return devectorize(self.mat @ vectorize(A), self.d_out)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.d_in != other.d_out:
            raise ValueError(
                f"cannot compose: inner dimensions {self.d_in} != {other.d_out}"
            )
        return LinearMap(self.mat @ other.mat)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.mat.shape != other.mat.shape:
            raise ValueError("cannot add maps with different dimensions")
        return LinearMap(self.mat + other.mat)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.mat.shape != other.mat.shape:
            raise ValueError("cannot subtract maps with different dimensions")
        return LinearMap(self.mat - other.mat)

    def __neg__(self) -> "LinearMap":
        return LinearMap(-self.mat)

    def __mul__(self, scalar) -> "LinearMap":
        return LinearMap(self.mat * complex(scalar))

    __rmul__ = __mul__

    @classmethod
    def identity(cls, d: int) -> "LinearMap":
        return cls(np.eye(d * d, dtype=complex))

    @classmethod
    def zero(cls, d_in: int, d_out: int) -> "LinearMap":
        return cls(np.zeros((d_out * d_out, d_in * d_in), dtype=complex))

    @classmethod
    def from_kraus(cls, operators, d_in: int | None = None,
                   d_out: int | None = None) -> "LinearMap":
        """Build X -> sum_mu A_mu X A_mu† from a family of (d_out, d_in) operators.

        Dimensions must be supplied explicitly for an empty family.
        """
        ops = [as_complex_matrix(A, "Kraus operator") for A in operators]
        if not ops:
            if d_in is None or d_out is None:
                raise ValueError("empty Kraus family needs explicit d_in and d_out")
            return cls.zero(d_in, d_out)
        r, c = ops[0].shape
        if d_in is not None and c != d_in:
            raise ValueError(f"Kraus operators have {c} columns, expected {d_in}")
        if d_out is not None and r != d_out:
            raise ValueError(f"Kraus operators have {r} rows, expected {d_out}")
        S = np.zeros((r * r, c * c), dtype=complex)
        for A in ops:
            if A.shape != (r, c):
                raise ValueError("Kraus operators must all have the same shape")
            S += np.kron(A.conj(), A)
        return cls(S)

    def trace_functional(self) -> np.ndarray:
        """The operator W with tr(map(X)) == tr(W @ X) for all X.

        Reconstructed from the action on matrix units: W[j, l] = tr map(E_lj).
        """
        d_in, d_out = self.d_in, self.d_out
        diag_rows = np.arange(d_out) * (d_out + 1)
        row = self.mat[diag_rows, :].sum(axis=0)
        return row.reshape(d_in, d_in)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """An operator on the excited ⊕ ground space stored as four blocks."""

    ee: np.ndarray
    eg: np.ndarray
    ge: np.ndarray
    gg: np.ndarray

    def __post_init__(self):
        ee = as_complex_matrix(self.ee, "ee block")
        eg = as_complex_matrix(self.eg, "eg block")
        ge = as_complex_matrix(self.ge, "ge block")
        gg = as_complex_matrix(self.gg, "gg block")
        d_e, d_g = ee.shape[0], gg.shape[0]
        if ee.shape != (d_e, d_e) or gg.shape != (d_g, d_g):
            raise ValueError("diagonal blocks must be square")
        if eg.shape != (d_e, d_g) or ge.shape != (d_g, d_e):
            raise ValueError(
                f"off-diagonal block shapes {eg.shape}, {ge.shape} do not match "
                f"(d_e, d_g) = ({d_e}, {d_g})"
            )
        for name, A in (("ee", ee), ("eg", eg), ("ge", ge), ("gg", gg)):
            freeze(self, name, A)

    @property
    def d_e(self) -> int:
        return self.ee.shape[0]

    @property
    def d_g(self) -> int:
        return self.gg.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the (d_e + d_g) x (d_e + d_g) matrix."""
        d_e, d_g = self.d_e, self.d_g
        X = np.zeros((d_e + d_g, d_e + d_g), dtype=complex)
        X[:d_e, :d_e] = self.ee
        X[:d_e, d_e:] = self.eg
        X[d_e:, :d_e] = self.ge
        X[d_e:, d_e:] = self.gg
        return X

    @classmethod
    def from_full(cls, X, d_e: int, d_g: int) -> "BlockOperator":
        A = as_complex_matrix(X, "full operator")
        if A.shape != (d_e + d_g, d_e + d_g):
            raise ValueError(f"expected shape {(d_e + d_g, d_e + d_g)}, got {A.shape}")
        return cls(A[:d_e, :d_e], A[:d_e, d_e:], A[d_e:, :d_e], A[d_e:, d_e:])

    @classmethod
    def identity(cls, d_e: int, d_g: int) -> "BlockOperator":
        return cls.from_full(np.eye(d_e + d_g, dtype=complex), d_e, d_g)

    def trace(self) -> complex:
        return complex(np.trace(self.ee) + np.trace(self.gg))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return hermiticity_deviation(self.full()) <= tol


@dataclass(frozen=True, eq=False)
class EDMap:
    """An excitation-damping map (phi, omega, B, gamma)."""

    phi: LinearMap
    omega: LinearMap
    B: np.ndarray
    gamma: float

    def __post_init__(self):
        if self.phi.d_in != self.phi.d_out:
            raise ValueError("phi must map the excited sector to itself")
        if self.omega.d_in != self.phi.d_in:
            raise ValueError(
                f"omega input dimension {self.omega.d_in} does not match "
                f"phi dimension {self.phi.d_in}"
            )
        B = as_complex_matrix(self.B, "B")
        d_e = self.phi.d_in
        if B.shape != (d_e, d_e):
            raise ValueError(f"B must have shape {(d_e, d_e)}, got {B.shape}")
        g = float(self.gamma)
        if not np.isfinite(g) or g < 0:
            raise ValueError(f"gamma must be a finite non-negative real, got {self.gamma}")
        freeze(self, "B", B)
        object.__setattr__(self, "gamma", g)

    @property
    def d_e(self) -> int:
        return self.phi.d_in

    @property
    def d_g(self) -> int:
        return self.omega.d_out

    @classmethod
    def identity(cls, d_e: int, d_g: int) -> "EDMap":
        return cls(
            phi=LinearMap.identity(d_e),
            omega=LinearMap.zero(d_e, d_g),
            B=np.eye(d_e, dtype=complex),
            gamma=1.0,
        )

    def __call__(self, X: BlockOperator) -> BlockOperator:
        return apply(self, X)

    def to_linear_map(self) -> LinearMap:
        """Assemble the map as a single superoperator on the full space.

        Built from Kronecker embeddings of the blocks rather than by sampling
        :func:`apply`, so it provides an independent route to the same map.
        """
        d_e, d_g = self.d_e, self.d_g
        d = d_e + d_g
        Ve = np.zeros((d, d_e), dtype=complex)
        Ve[:d_e, :] = np.eye(d_e)
        Vg = np.zeros((d, d_g), dtype=complex)
        Vg[d_e:, :] = np.eye(d_g)
        Pg = (Vg @ Vg.conj().T).real.astype(complex)

        compress_e = np.kron(Ve.T, Ve.conj().T)        # X -> Ve† X Ve
        embed_e = np.kron(Ve.conj(), Ve)               # Z -> Ve Z Ve†
        embed_g = np.kron(Vg.conj(), Vg)               # Z -> Vg Z Vg†

        EB = Ve @ self.B @ Ve.conj().T
        EBdag = Ve @ self.B.conj().T @ Ve.conj().T

        S = embed_e @ self.phi.mat @ compress_e
        S = S + np.kron(Pg, EB)                        # X -> (Ve B Ve†) X Pg
        S = S + np.kron(EBdag.T, Pg)                   # X -> Pg X (Ve B† Ve†)
        S = S + self.gamma * np.kron(Pg, Pg)
        S = S + embed_g @ self.omega.mat @ compress_e
        return LinearMap(S)


@dataclass(frozen=True, eq=False)
class EDStack:
    """The blocks of excitation-damping maps stacked along a leading axis.

    ``phi`` is (n, d_e^2, d_e^2), ``omega`` (n, d_g^2, d_e^2), ``B``
    (n, d_e, d_e) and ``gamma`` (n,). The stacked kernels of the package take
    and return this form, and a single map is the stack of one: every
    single-map operation runs through the same stacked numpy and LAPACK
    calls, which treat each matrix of a stack exactly as a call on it alone.
    """

    phi: np.ndarray
    omega: np.ndarray
    B: np.ndarray
    gamma: np.ndarray

    @classmethod
    def of(cls, maps) -> "EDStack":
        """Stack a nonempty sequence of maps on common sectors."""
        return cls(np.stack([m.phi.mat for m in maps]), np.stack([m.omega.mat for m in maps]),
                   np.stack([m.B for m in maps]), np.array([m.gamma for m in maps]))

    @classmethod
    def concat(cls, stacks) -> "EDStack":
        """One stack of the maps of a nonempty sequence of stacks, in order."""
        return cls(*(np.concatenate(blocks) for blocks in
                     zip(*((s.phi, s.omega, s.B, s.gamma) for s in stacks))))

    @classmethod
    def empty(cls, n: int, d_e: int, d_g: int) -> "EDStack":
        """Room for n maps, every block zero and every gamma 1."""
        return cls(np.zeros((n, d_e * d_e, d_e * d_e), dtype=complex),
                   np.zeros((n, d_g * d_g, d_e * d_e), dtype=complex),
                   np.zeros((n, d_e, d_e), dtype=complex), np.ones(n))

    @property
    def d_e(self) -> int:
        return math.isqrt(self.phi.shape[-1])

    @property
    def d_g(self) -> int:
        return math.isqrt(self.omega.shape[-2])

    def __len__(self) -> int:
        return len(self.gamma)

    def __getitem__(self, index) -> "EDStack":
        """The sub-stack at a slice or an index array."""
        return EDStack(self.phi[index], self.omega[index], self.B[index], self.gamma[index])

    def edmap(self, k: int) -> EDMap:
        """Map k as an :class:`EDMap`."""
        return EDMap(LinearMap(self.phi[k]), LinearMap(self.omega[k]), self.B[k],
                     float(self.gamma[k]))


def _check_sectors(X: BlockOperator, m: EDMap) -> None:
    if (X.d_e, X.d_g) != (m.d_e, m.d_g):
        raise ValueError(
            f"operator sectors {(X.d_e, X.d_g)} do not match map sectors "
            f"{(m.d_e, m.d_g)}"
        )


def apply_stack(s: EDStack, X: BlockOperator) -> tuple:
    """The blocks (ee, eg, ge, gg) of every map of the stack applied to X, stacked likewise."""
    n, d_e, d_g = len(s), X.d_e, X.d_g
    x = vectorize(X.ee)
    # column-stacked images, one per row, back to matrices
    ee = (s.phi @ x).reshape(n, d_e, d_e).swapaxes(-1, -2)
    fed = (s.omega @ x).reshape(n, d_g, d_g).swapaxes(-1, -2)
    return (ee, s.B @ X.eg, X.ge @ s.B.conj().swapaxes(-1, -2),
            s.gamma[:, None, None] * X.gg + fed)


def apply(m: EDMap, X: BlockOperator) -> BlockOperator:
    """Act with an excitation-damping map on a block operator."""
    _check_sectors(X, m)
    return BlockOperator(*(block[0] for block in apply_stack(EDStack.of([m]), X)))


def is_trace_preserving(m: EDMap, tol: float = DEFAULT_TOL) -> bool:
    """Trace preservation: gamma == 1 and tr phi + tr omega == tr on B(H_e).

    Checked exactly on the matrix-unit basis of the excited sector (linearity
    makes the basis check equivalent to the full condition).
    """
    if abs(m.gamma - 1.0) > tol:
        return False
    W = m.phi.trace_functional() + m.omega.trace_functional()
    dev = np.abs(W - np.eye(m.d_e)).max(initial=0.0)
    return float(dev) <= tol


def _singular(M: np.ndarray):
    """Whether each matrix of a stack has condition number above COND_LIMIT; and its inverse.

    The inverse is formed first. Since cond_2(M) <= |M|_F |M^-1|_F, a matrix
    whose product is at most COND_LIMIT * 1e-4 is invertible; the computed
    inverse's relative error there is about n u cond(M) <= 1e-6, far inside
    that headroom (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, chs. 6 and 14). :func:`_cond` decides the rest, and
    the whole stack, with no inverse (None), when LAPACK finds a member
    exactly singular.
    """
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return _cond(M) > COND_LIMIT, None
    bound = np.linalg.norm(M, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    # an empty matrix (bound 0) and a nan bound stay open
    open_ = ~((bound > 0) & (bound <= COND_LIMIT * 1e-4))
    bad = np.zeros(bound.shape, dtype=bool)
    if open_.any():
        bad[open_] = _cond(M[open_]) > COND_LIMIT
    return bad, inv


def invert_stack(s: EDStack) -> EDStack:
    """The inverse of every map of the stack, as :func:`invert` gives it.

    Raises :func:`invert`'s error for the first map without an inverse, with
    that map's position in the stack as ``index``. The blocks are inverted
    first; only a ``phi`` or ``B`` whose ``|M|_F |M^-1|_F`` exceeds 1e8 gets
    an SVD (see :func:`_singular`).
    """
    (phi_bad, phi_inv), (B_bad, B_inv) = _singular(s.phi), _singular(s.B)
    failures = (
        ("gamma_zero", "gamma is zero; the ground block is lost", s.gamma <= 0.0),
        ("phi_singular", "phi is singular (superoperator condition number above 1e12)", phi_bad),
        ("B_singular", "B is singular (condition number above 1e12)", B_bad),
    )
    failed = np.array([bad for _, _, bad in failures])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        reason, message, _ = failures[int(failed[:, k].argmax())]
        raise NonInvertibleError(reason, message, k)
    if phi_inv is None or B_inv is None:  # singular to LAPACK, yet within COND_LIMIT
        raise np.linalg.LinAlgError("Singular matrix")
    return EDStack(phi_inv, -(1.0 / s.gamma)[:, None, None] * (s.omega @ phi_inv),
                   B_inv, 1.0 / s.gamma)


def invert(m: EDMap) -> EDMap:
    """Invert an excitation-damping map.

    The map is invertible iff gamma > 0 and both phi and B are invertible:
    spectral condition number at most 1e12 on the stored matrices, found by
    an SVD only for a block whose ``|M|_F |M^-1|_F`` exceeds 1e8. The inverse
    is again an excitation-damping map with blocks
    (phi^-1, -gamma^-1 omega∘phi^-1, B^-1, gamma^-1).
    """
    return invert_stack(EDStack.of([m])).edmap(0)


def compose_stack(s2: EDStack, s1: EDStack) -> EDStack:
    """The compositions s2[k] ∘ s1[k], as :func:`compose` gives them."""
    return EDStack(s2.phi @ s1.phi, s2.omega @ s1.phi + s2.gamma[:, None, None] * s1.omega,
                   s2.B @ s1.B, s2.gamma * s1.gamma)


def compose(m2: EDMap, m1: EDMap) -> EDMap:
    """The composition m2 ∘ m1; the class is closed under composition.

    Blocks: (phi2∘phi1, omega2∘phi1 + gamma2*omega1, B2 @ B1, gamma2*gamma1).
    """
    if (m1.d_e, m1.d_g) != (m2.d_e, m2.d_g):
        raise ValueError(
            f"cannot compose maps on different sector dimensions: "
            f"{(m2.d_e, m2.d_g)} vs {(m1.d_e, m1.d_g)}"
        )
    return compose_stack(EDStack.of([m2]), EDStack.of([m1])).edmap(0)


def build_tp_omega(phi: LinearMap, Omega, tol: float = 1e-10) -> LinearMap:
    """The ground-feed map omega(X) = tr[X - phi(X)] * Omega.

    Whatever phi and B are, pairing phi with this omega (and gamma = 1) gives
    a trace-preserving map. Omega must be a state: PSD with unit trace, both
    within ``tol``.
    """
    W = as_complex_matrix(Omega, "Omega")
    if W.shape[0] != W.shape[1]:
        raise ValueError("Omega must be square")
    verdict = is_psd(W, tol)
    if not verdict.is_psd:
        raise ValueError(
            f"Omega is not a state: smallest eigenvalue {verdict.min_eigenvalue:.3e}"
        )
    if abs(complex(np.trace(W)) - 1.0) > tol:
        raise ValueError(f"Omega is not a state: trace {complex(np.trace(W)):.6g} != 1")
    d_e = phi.d_in
    if phi.d_out != d_e:
        raise ValueError("phi must map the excited sector to itself")
    functional = (np.eye(d_e) - phi.trace_functional()).reshape(-1)  # vec(X) -> tr(X - phi(X))
    return LinearMap(np.outer(vectorize(W), functional))


def qubit_map(a: complex, b: complex, q: complex, gamma: float) -> EDMap:
    """The most general excitation-damping map with one-dimensional sectors.

    Blocks: (|a|^2 x_ee, b x_eg, b* x_ge, gamma x_gg + |q|^2 x_ee). With
    gamma = 1, b = a and |q|^2 = 1 - |a|^2 this is an amplitude-damping
    channel; with gamma = |a| = |q| = 1 a phase-damping channel.
    """
    return EDMap(
        phi=LinearMap(np.array([[abs(a) ** 2]], dtype=complex)),
        omega=LinearMap(np.array([[abs(q) ** 2]], dtype=complex)),
        B=np.array([[b]], dtype=complex),
        gamma=float(gamma),
    )
