"""Finitely generated projective modules p B^m with grading.

A module is a projection-valued m x m table of algebra elements together
with a diagonal +/-1 grading of the generators.  The standard frame x_i =
p e_i is fixed throughout; connections are supplied as the Grassmann
connection plus an endomorphism-valued universal one-form, stored as an
m x m table of universal coefficient tables.  A :class:`ConnectionForm` is
built once, from a finished table: tables are added, scaled and compressed as
plain (m, m, d, d) arrays, and a form is read only over its own module.

Assembled operators act on the product space C^m (x) C^n; the graded lift
of the Dirac matrix is Gamma (x) D and the product operator of a connection
is P (Gamma (x) D) P + A_D.  Every operator, spectrum and curvature function
reads the :class:`ConnectionOperators` bundle of :func:`connection_operators`.
:func:`validate_connection` (checks without raising) and
:func:`hermitian_residual` (the raw, uncompressed A_D) represent a form too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .glinalg import (
    commutator,
    parity_residual,
    relative_distance,
    support_residual,
)
from .triple import Check, DEFAULT_TOL, SpectralTriple, _require

__all__ = [
    "ConnectionForm",
    "ConnectionOperators",
    "ProjectiveModule",
    "connection_operators",
    "hermitian_residual",
    "spectrum",
    "symmetrize_connection",
    "validate_connection",
    "validate_module",
]


def _block_lift(left: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Kronecker product left (x) x of square matrices, by broadcasting."""
    dim = left.shape[0] * x.shape[0]
    return (left[:, None, :, None] * x[None, :, None, :]).reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class ProjectiveModule:
    """Projection entries p[i, j] as algebra coordinates, plus generator signs."""

    triple: SpectralTriple
    p: np.ndarray      # (m, m, d) coefficient tensor
    signs: np.ndarray  # (m,) entries +/-1

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        signs = np.asarray(self.signs, dtype=float)
        if p.ndim != 3 or p.shape[0] != p.shape[1] or p.shape[2] != self.triple.d:
            raise ValueError(
                f"p must have shape (m, m, {self.triple.d}), got {p.shape}")
        if signs.shape != (p.shape[0],):
            raise ValueError(f"signs must have shape ({p.shape[0]},), got {signs.shape}")
        if not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("module grading entries must be +1 or -1")
        if not np.all(np.isfinite(p)):
            raise ValueError("projection coefficients must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return self.p.shape[0]

    @property
    def dim(self) -> int:
        """Dimension m*n of the ambient product space."""
        return self.m * self.triple.n

    def assemble_table(self, table) -> np.ndarray:
        """Assemble an (m, m, d) table of algebra coordinates to an mn x mn matrix."""
        table = np.asarray(table, dtype=complex)
        blocks = np.einsum("ijk,kab->iajb", table, self.triple.basis)
        return blocks.reshape(self.dim, self.dim)

    @cached_property
    def projector(self) -> np.ndarray:
        """The assembled projection matrix P."""
        return self.assemble_table(self.p)

    @cached_property
    def grading(self) -> np.ndarray:
        """Gamma (x) gamma on the product space."""
        return _block_lift(np.diag(self.signs), self.triple.gamma)

    @cached_property
    def sign_lift(self) -> np.ndarray:
        """Gamma (x) 1."""
        return _block_lift(np.diag(self.signs), np.eye(self.triple.n))

    @cached_property
    def dirac_lift(self) -> np.ndarray:
        """Graded lift Gamma (x) D of the (odd) Dirac matrix."""
        return _block_lift(np.diag(self.signs), self.triple.dirac)

    @cached_property
    def dirac_plain_lift(self) -> np.ndarray:
        """Ungraded lift 1 (x) D."""
        return _block_lift(np.eye(self.m), self.triple.dirac)

    @cached_property
    def dirac_sq_lift_free(self) -> np.ndarray:
        """1 (x) D^2 (no grading twist: D^2 is even)."""
        return _block_lift(np.eye(self.m), self.triple.dirac_sq)

    @cached_property
    def even_mask(self) -> np.ndarray:
        """(m, m) boolean mask of the Gamma-even entry positions."""
        return np.outer(self.signs, self.signs) > 0


def validate_module(module: ProjectiveModule, tol: float = DEFAULT_TOL) -> list[Check]:
    P = module.projector
    G1 = module.sign_lift
    return [
        Check("projector_idempotent", relative_distance(P @ P, P), tol),
        Check("projector_selfadjoint", relative_distance(P, P.conj().T), tol),
        Check("projector_even", relative_distance(G1 @ P @ G1, P), tol),
    ]


@dataclass(frozen=True, eq=False)
class ConnectionForm:
    """Endomorphism-valued universal one-form: m x m table of coefficient tables."""

    module: ProjectiveModule
    entries: np.ndarray  # (m, m, d, d)
    hermitian: bool = False

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        m, d = self.module.m, self.module.triple.d
        if e.shape != (m, m, d, d):
            raise ValueError(f"entries must have shape ({m}, {m}, {d}, {d}), got {e.shape}")
        if e.size and not np.all(np.isfinite(e)):
            raise ValueError("connection coefficients must be finite")
        object.__setattr__(self, "entries", e)

    def is_zero(self) -> bool:
        return not np.any(self.entries)

    def represented(self) -> tuple[np.ndarray, np.ndarray]:
        """Assembled (A_D, A_D2): entrywise pi_d and pi_d2 as mn x mn matrices."""
        st = self.module.triple
        dim = self.module.dim
        pairs = st.pair_products(np.stack([st.dirac_commutators, st.dirac_sq_commutators]))
        blocks = np.tensordot(self.entries, pairs, axes=([2, 3], [1, 2]))
        a_d, a_d2 = blocks.transpose(2, 0, 3, 1, 4).reshape(2, dim, dim)
        return a_d, a_d2

    def mult_residual(self) -> float:
        """Max ker(m)-defect over the entry tables."""
        st = self.module.triple
        prods = np.tensordot(self.entries, st.pair_products(st.basis), axes=2)
        norms = np.linalg.norm(prods.reshape(self.module.m ** 2, -1), axis=1)
        return float(norms.max()) if norms.size else 0.0

    def pairing_adjoint(self) -> "ConnectionForm":
        """Adjoint table C-dagger: transpose of entry positions, star on entries."""
        S = self.module.triple.star_matrix
        out = np.einsum("jipq,aq,bp->ijab", np.conj(self.entries), S, S)
        return replace(self, entries=out)


def symmetrize_connection(a: ConnectionForm) -> ConnectionForm:
    """Average with the pairing adjoint; used to manufacture Hermitian test forms."""
    return replace(a, entries=(a.entries + a.pairing_adjoint().entries) * 0.5, hermitian=True)


def _require_same_module(module: ProjectiveModule, x) -> None:
    """A connection form or vertical operator is read only over its own module."""
    if x.module is not module:
        raise ValueError(f"{type(x).__name__} lives over another module")


def _connection_checks(module: ProjectiveModule, a: ConnectionForm, a_d: np.ndarray,
                       tol: float) -> list[Check]:
    """ker(m) entries, grading support, then compression and oddness of A_D."""
    checks = [Check("connection_ker_mult", a.mult_residual(), tol)]

    odd = a.entries[~module.even_mask].reshape(-1, module.triple.d ** 2)
    odd_mass = float(np.linalg.norm(odd, axis=1).max(initial=0.0))
    scale = max(1.0, float(np.linalg.norm(a.entries)))
    checks.append(Check("connection_grading_support", odd_mass / scale, tol))

    checks.append(Check("connection_compressed",
                        support_residual(module.projector, a_d), tol))
    checks.append(Check("connection_odd",
                        parity_residual(module.grading, a_d, odd=True), tol))
    return checks


def validate_connection(module: ProjectiveModule, a: ConnectionForm,
                        tol: float = DEFAULT_TOL) -> list[Check]:
    """Structural checks: ker(m) entries, grading support, compression, oddness."""
    _require_same_module(module, a)
    return _connection_checks(module, a, a.represented()[0], tol)


@dataclass(frozen=True, eq=False)
class ConnectionOperators:
    """The one evaluated form of a connection: its represented pair and operators.

    a_d = P A_D P and a_d2 = P A_D2 P are the compressed represented pair,
    m_op = P (Gamma (x) D) P + a_d is the product operator and
    n_op = P (1 (x) D^2) P + a_d2 its lifted square.  Modulo junk, every
    curvature quantity depends on the connection only through these.
    """

    a_d: np.ndarray
    a_d2: np.ndarray
    m_op: np.ndarray
    n_op: np.ndarray


def connection_operators(module: ProjectiveModule,
                         a: ConnectionForm | ConnectionOperators | None = None,
                         tol: float = DEFAULT_TOL) -> ConnectionOperators:
    """Validate and represent ``a`` once; None or a zero form is the Grassmann connection.

    Raises InvariantViolation on the first failing check of
    :func:`validate_connection`.  pi_d and pi_d2 are A-bimodule maps on
    ker(m), so compressing after representing equals representing P . C . P.
    Off ker(m) the two differ by terms of size connection_ker_mult *
    ||[D^k, P]||, and validation gates connection_ker_mult at tol.

    An already evaluated bundle is returned as it is, so a caller holding one
    can pass it to any function that takes a connection without re-validation.
    """
    if isinstance(a, ConnectionOperators):
        return a
    if a is not None:
        _require_same_module(module, a)
    P = module.projector
    if a is None or a.is_zero():
        a_d = a_d2 = np.zeros((module.dim, module.dim), dtype=complex)
    else:
        a_d, a_d2 = a.represented()
        _require(_connection_checks(module, a, a_d, tol))
        a_d, a_d2 = P @ a_d @ P, P @ a_d2 @ P
    return ConnectionOperators(
        a_d=a_d,
        a_d2=a_d2,
        m_op=P @ module.dirac_lift @ P + a_d,
        n_op=P @ module.dirac_sq_lift_free @ P + a_d2,
    )


def spectrum(module: ProjectiveModule,
             a: ConnectionForm | ConnectionOperators | None = None,
             tol: float = DEFAULT_TOL) -> list[float]:
    """Ascending eigenvalues of the product operator restricted to range(P)."""
    m_op = connection_operators(module, a, tol).m_op
    vals, vecs = np.linalg.eigh(module.projector)
    cols = vecs[:, vals > 0.5]
    if cols.shape[1] == 0:
        return []
    compressed = cols.conj().T @ m_op @ cols
    _require([Check("spectrum_symmetric_input",
                    relative_distance(compressed, compressed.conj().T), tol)])
    return [float(v) for v in np.linalg.eigvalsh(compressed)]


def hermitian_residual(module: ProjectiveModule, a: ConnectionForm | None = None) -> float:
    """Defect of the Hermitian-connection identity over the standard frame.

    Evaluates, for all frame pairs (x_i, x_j),

        <gamma x_i, nabla x_j>_D - <nabla(gamma x_i), x_j>_D - [D, <x_i, x_j>]

    with nabla the Grassmann connection plus ``a``; the Grassmann part
    satisfies the identity exactly, so the residual isolates the defect of
    the added form, taken as given: raw A_D, not P A_D P, and unchecked.
    Returns the max spectral norm over the (i, j) blocks.
    """
    P = module.projector
    G = module.sign_lift
    E = module.dirac_plain_lift
    W = commutator(module.dirac_lift, P)
    if a is not None:
        _require_same_module(module, a)
        if not a.is_zero():
            W = W + a.represented()[0]
    res = G @ P @ W - G @ W.conj().T @ P - commutator(E, P)
    n = module.triple.n
    blocks = res.reshape(module.m, n, module.m, n).transpose(0, 2, 1, 3)
    return float(np.linalg.norm(blocks, 2, axis=(-2, -1)).max(initial=0.0))
