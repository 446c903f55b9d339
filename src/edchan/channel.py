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
    ``"phi_singular"`` or ``"B_singular"``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _exceeds_condition(M: np.ndarray, limit: float = COND_LIMIT) -> bool:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] == 0.0:
        return True
    return bool(s[0] / s[-1] > limit)


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

    @classmethod
    def from_function(cls, f, d_in: int, d_out: int) -> "LinearMap":
        """Sample a callable on all matrix units of B(C^d_in)."""
        S = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
        for k in range(d_in):
            for j in range(d_in):
                E = np.zeros((d_in, d_in), dtype=complex)
                E[j, k] = 1.0
                S[:, j + d_in * k] = vectorize(as_complex_matrix(f(E), "map output"))
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


def apply(m: EDMap, X: BlockOperator) -> BlockOperator:
    """Act with an excitation-damping map on a block operator."""
    if (X.d_e, X.d_g) != (m.d_e, m.d_g):
        raise ValueError(
            f"operator sectors {(X.d_e, X.d_g)} do not match map sectors "
            f"{(m.d_e, m.d_g)}"
        )
    return BlockOperator(
        ee=m.phi(X.ee),
        eg=m.B @ X.eg,
        ge=X.ge @ m.B.conj().T,
        gg=m.gamma * X.gg + m.omega(X.ee),
    )


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


def invert(m: EDMap) -> EDMap:
    """Invert an excitation-damping map.

    The map is invertible iff gamma > 0 and both phi and B are invertible
    (condition number below 1e12 on the stored matrices); the inverse is again
    an excitation-damping map with blocks
    (phi^-1, -gamma^-1 omega∘phi^-1, B^-1, gamma^-1).
    """
    if m.gamma <= 0.0:
        raise NonInvertibleError("gamma_zero", "gamma is zero; the ground block is lost")
    if _exceeds_condition(m.phi.mat):
        raise NonInvertibleError(
            "phi_singular", "phi is singular (superoperator condition number above 1e12)"
        )
    if _exceeds_condition(m.B):
        raise NonInvertibleError(
            "B_singular", "B is singular (condition number above 1e12)"
        )
    phi_inv = np.linalg.inv(m.phi.mat)
    return EDMap(
        phi=LinearMap(phi_inv),
        omega=LinearMap(-(1.0 / m.gamma) * (m.omega.mat @ phi_inv)),
        B=np.linalg.inv(m.B),
        gamma=1.0 / m.gamma,
    )


def compose(m2: EDMap, m1: EDMap) -> EDMap:
    """The composition m2 ∘ m1; the class is closed under composition.

    Blocks: (phi2∘phi1, omega2∘phi1 + gamma2*omega1, B2 @ B1, gamma2*gamma1).
    """
    if (m1.d_e, m1.d_g) != (m2.d_e, m2.d_g):
        raise ValueError(
            f"cannot compose maps on different sector dimensions: "
            f"{(m2.d_e, m2.d_g)} vs {(m1.d_e, m1.d_g)}"
        )
    return EDMap(
        phi=m2.phi @ m1.phi,
        omega=LinearMap(m2.omega.mat @ m1.phi.mat + m2.gamma * m1.omega.mat),
        B=m2.B @ m1.B,
        gamma=m2.gamma * m1.gamma,
    )


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
    d_e, d_g = phi.d_in, W.shape[0]
    if phi.d_out != d_e:
        raise ValueError("phi must map the excited sector to itself")
    return LinearMap.from_function(
        lambda X: complex(np.trace(X - phi(X))) * W, d_e, d_g
    )


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
