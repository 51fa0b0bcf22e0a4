"""Finitely generated projective modules p B^m with grading.

A module is a projection-valued m x m table of algebra elements together
with a diagonal +/-1 grading of the generators.  The standard frame x_i =
p e_i is fixed throughout; connections are supplied as the Grassmann
connection plus an endomorphism-valued universal one-form, stored as an
m x m table of universal coefficient tables.  A :class:`ConnectionForm` is
built once, from a finished table: tables are added, scaled and compressed as
plain (m, m, d, d) arrays, and a form is read only over its own module.

Assembled operators act on the product space C^m (x) C^n; the graded lift of
the Dirac matrix is Gamma (x) D and the product operator of a connection is
P (Gamma (x) D) P + A_D.  Only the grading Gamma (x) gamma is assembled:
Gamma (x) 1 is a row scaling and 1 (x) D a product per n-row block.  Every
operator, spectrum and curvature function reads the :class:`ConnectionOperators`
bundle of :func:`connection_operators`, in the coordinates of the range
isometry (:attr:`ProjectiveModule.range_isometry`).  A form is represented
entrywise, A_D[i, j] = sum_pq c[i, j, p, q] b_p [D, b_q] and A_D2 likewise
with D^2, together with its ker(m) defect, by :meth:`ConnectionForm.represented`:
over points from one point kernel, else from the d^2 pair stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .glinalg import (
    frobenius_norm,
    parity_residual,
    relative_distance,
    spectral_norm,
)
from .triple import Check, DEFAULT_TOL, SpectralTriple, _require

__all__ = [
    "ConnectionForm",
    "ConnectionOperators",
    "ProjectiveModule",
    "connection_operators",
    "hermitian_residual",
    "pairing_adjoint_entries",
    "spectrum",
    "symmetrized_entries",
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
        if not np.all(np.abs(signs) == 1.0):
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
    def range_isometry(self) -> np.ndarray:
        """Isometry V (mn x r), V V* = P: the eigenvectors of P above 1/2.

        Over points P = sum_x p(x) (x) E_xx, so V comes from one batched eigh
        of the m x m point blocks p(x); other bases take eigh(P).
        The cut at 1/2 is a rank decision: InvariantViolation unless ||V V* -
        P||_F / max(1, ||P||_F) <= DEFAULT_TOL, which also fails a P that is
        not self-adjoint (eigh reads one triangle)."""
        if self.triple.points is None:  # one block, P itself
            blocks, m, n = self.projector[None], self.dim, 1
        else:  # p(x)[i, j] = sum_k p[i, j, k] b_k[x]
            blocks = (self.p @ self.triple.basis_diagonal).transpose(2, 0, 1)
            m, n = self.m, self.triple.n
        vals, vecs = np.linalg.eigh(blocks)
        keep = vals > 0.5
        kept = vecs * keep[:, None, :]
        gap = kept @ kept.conj().transpose(0, 2, 1) - blocks  # V V* - P, block by block
        defect = np.sqrt(np.vdot(gap, gap).real / max(1.0, np.vdot(blocks, blocks).real))
        _require([Check("projector_range_isometry", float(defect), DEFAULT_TOL)])
        x, col = np.nonzero(keep)
        v = np.zeros((m, n, len(x)), dtype=complex)
        v[:, x, np.arange(len(x))] = vecs[x, :, col].T
        return v.reshape(self.dim, -1)

    def compress(self, x: np.ndarray) -> np.ndarray:
        """P x P, formed as V (V* x V) V* with V the range isometry."""
        v = self.range_isometry
        return v @ (v.conj().T @ x @ v) @ v.conj().T

    @cached_property
    def grading(self) -> np.ndarray:
        """Gamma (x) gamma on the product space."""
        return _block_lift(np.diag(self.signs), self.triple.gamma)

    def parity_residual(self, x: np.ndarray, odd: bool) -> float:
        """glinalg.parity_residual for the grading.  A diagonal grading g of +/-1
        gives g x g = (g g^T) o x exactly; any other gamma takes the matmuls."""
        if self.triple.gamma_signs is None:
            return parity_residual(self.grading, x, odd)
        g = np.outer(self.signs, self.triple.gamma_signs).ravel()
        gxg = np.outer(g, g) * x
        return frobenius_norm(gxg + x if odd else gxg - x) / max(1.0, frobenius_norm(x))

    @cached_property
    def even_mask(self) -> np.ndarray:
        """(m, m) boolean mask of the Gamma-even entry positions."""
        return np.outer(self.signs, self.signs) > 0


def validate_module(module: ProjectiveModule, tol: float = DEFAULT_TOL) -> list[Check]:
    P = module.projector
    g = np.repeat(module.signs, module.triple.n)[:, None]  # Gamma (x) 1, as a column
    return [
        Check("projector_idempotent", relative_distance(P @ P, P), tol),
        Check("projector_selfadjoint", relative_distance(P, P.conj().T), tol),
        Check("projector_even", relative_distance(g * g.T * P, P), tol),
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

    def _point_kernel(self) -> tuple[np.ndarray, float]:
        """K and the ker(m) defect over points, with b the (d, n) basis diagonals.

        With c the entry tables, Cb[i,j,p,y] = sum_q c[i,j,p,q] b_q[y] (one gemm)
        and G[i,j,x,y] = sum_p b_p[x] Cb[i,j,p,y].  mult[i,j,x] = G[i,j,x,x] is
        the diagonal of the ker(m) element sum_pq c b_p b_q, whose max row norm
        is the defect, and K[i,j,x,y] = G[i,j,x,y] - mult[i,j,x], so that
        sum_pq c b_p [X, b_q] is X o K[i,j] (entrywise) for X = D and X = D^2
        alike.  K is not kept: a pass that holds many forms would hold an mn x mn
        array for each."""
        b = self.module.triple.basis_diagonal
        m, (d, n) = self.module.m, b.shape
        cb = self.entries.reshape(m * m * d, d) @ b
        g = np.matmul(b.T, cb.reshape(m, m, d, n))
        mult = np.diagonal(g, axis1=2, axis2=3).copy()
        g -= mult[..., None]
        return g, float(np.linalg.norm(mult.reshape(m * m, n), axis=1).max(initial=0.0))

    def represented(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(A_D, A_D2, ker(m) defect): pi_d and pi_d2 entrywise, mn x mn each, and
        the largest Frobenius norm of sum_pq c[i, j, p, q] b_p b_q.  Over
        :attr:`SpectralTriple.points` from one point kernel (:meth:`_point_kernel`),
        at O(m^2 d n (d + n)); else from the d^2 pair stacks b_p [D^k, b_q] and
        b_p b_q, at O(m^2 d^2 n^2)."""
        st = self.module.triple
        m, n = self.module.m, st.n
        if st.points is not None:
            k, defect = self._point_kernel()
            out = np.empty((2, m, n, m, n), dtype=complex)
            for out_x, x in zip(out, (st.dirac, st.dirac_sq)):
                np.multiply(x[:, None, :], k.transpose(0, 2, 1, 3), out=out_x)  # k[i, x, j, y]
            return (*out.reshape(2, m * n, m * n), defect)
        pairs = st.pair_products(np.stack([st.dirac_commutators, st.dirac_sq_commutators]))
        # the one gemm np.tensordot made; a batched matmul per order rounds differently
        entries = self.entries.reshape(m * m, -1)
        blocks = entries @ pairs.transpose(1, 2, 0, 3, 4).reshape(st.d ** 2, -1)
        a_d, a_d2 = blocks.reshape(m, m, 2, n, n).transpose(2, 0, 3, 1, 4).reshape(2, m * n, m * n)
        prods = entries @ st.pair_products(st.basis).reshape(st.d ** 2, -1)
        return a_d, a_d2, float(np.linalg.norm(prods, axis=1).max(initial=0.0))


def pairing_adjoint_entries(module: ProjectiveModule, entries: np.ndarray) -> np.ndarray:
    """Adjoint table C-dagger of an (m, m, d, d) entry table: transpose of entry
    positions, star on entries.  Over points S = 1: C-dagger[i, j, a, b] =
    conj(C[j, i, b, a]), plus +0 for the +0.0 the sum over S leaves at -0.0."""
    if module.triple.points is not None:
        return np.conj(entries).transpose(1, 0, 3, 2) + 0j
    S = module.triple.star_matrix
    return np.einsum("jipq,aq,bp->ijab", np.conj(entries), S, S)


def symmetrized_entries(module: ProjectiveModule, entries: np.ndarray) -> np.ndarray:
    """Average of an (m, m, d, d) entry table with its pairing adjoint."""
    return (entries + pairing_adjoint_entries(module, entries)) * 0.5


def _require_same_module(module: ProjectiveModule, x) -> None:
    """A connection form or vertical operator is read only over its own module."""
    if x.module is not module:
        raise ValueError(f"{type(x).__name__} lives over another module")


def _connection_checks(module: ProjectiveModule, a: ConnectionForm, a_d: np.ndarray,
                       defect: float, compressed: np.ndarray, tol: float) -> list[Check]:
    """ker(m) entries, grading support, then compression and oddness of A_D (P A_D P given)."""
    checks = [Check("connection_ker_mult", defect, tol)]

    odd = a.entries[~module.even_mask].reshape(-1, module.triple.d ** 2)
    odd_mass = float(np.linalg.norm(odd, axis=1).max(initial=0.0))
    scale = max(1.0, float(np.linalg.norm(a.entries)))
    checks.append(Check("connection_grading_support", odd_mass / scale, tol))

    checks.append(Check("connection_compressed", frobenius_norm(compressed - a_d)
                        / max(1.0, frobenius_norm(a_d)), tol))  # glinalg.support_residual
    checks.append(Check("connection_odd", module.parity_residual(a_d, odd=True), tol))
    return checks


def validate_connection(module: ProjectiveModule, a: ConnectionForm,
                        tol: float = DEFAULT_TOL) -> list[Check]:
    """Structural checks: ker(m) entries, grading support, compression, oddness."""
    _require_same_module(module, a)
    a_d, _, defect = a.represented()
    P = module.projector
    return _connection_checks(module, a, a_d, defect, P @ a_d @ P, tol)


@dataclass(frozen=True, eq=False)
class ConnectionOperators:
    """The one evaluated form of a connection, in range(P) coordinates.

    v is the module's range isometry V and w = (Gamma (x) D) V.  The r x r
    blocks are a_r = V* A_D V and a2_r = V* A_D2 V (the represented pair),
    t = V* w, the product operator m_r = t + a_r and its lifted square n_r =
    V* (1 (x) D^2) V + a2_r, through which alone, modulo junk, curvature
    depends on the connection.  m_op = V m_r V* is the product operator itself.
    """

    v: np.ndarray
    w: np.ndarray
    a_r: np.ndarray
    a2_r: np.ndarray
    t: np.ndarray
    m_r: np.ndarray
    n_r: np.ndarray

    def expand(self, x_r: np.ndarray) -> np.ndarray:
        """V x_r V*: an r x r block as an mn x mn operator."""
        return self.v @ x_r @ self.v.conj().T

    m_op = cached_property(lambda self: self.expand(self.m_r))


def connection_operators(module: ProjectiveModule,
                         a: ConnectionForm | ConnectionOperators | None = None,
                         tol: float = DEFAULT_TOL) -> ConnectionOperators:
    """Validate and represent ``a`` once; None or a zero form is the Grassmann connection.

    Raises InvariantViolation on the first failing check of
    :func:`validate_connection` or of ``ProjectiveModule.range_isometry``.
    pi_d and pi_d2 are A-bimodule maps on ker(m), so compressing after
    representing equals representing P . C . P.  Off ker(m) the two differ by
    terms of size connection_ker_mult * ||[D^k, P]||, and validation gates
    connection_ker_mult at tol.  D and D^2 act on V block by block.

    An already evaluated bundle is returned as it is, so a caller holding one
    can pass it to any function that takes a connection without re-validation.
    """
    if isinstance(a, ConnectionOperators):
        return a
    if a is not None:
        _require_same_module(module, a)
    v = module.range_isometry
    vh = v.conj().T
    if a is None or a.is_zero():
        a_r = a2_r = np.zeros((len(vh),) * 2, dtype=complex)
    else:
        a_d, a_d2, defect = a.represented()
        a_r, a2_r = vh @ a_d @ v, vh @ a_d2 @ v
        _require(_connection_checks(module, a, a_d, defect, v @ a_r @ vh, tol))
    st = module.triple
    blocks = v.reshape(module.m, st.n, -1)
    w = (module.signs[:, None, None] * (st.dirac @ blocks)).reshape(module.dim, -1)
    t = vh @ w
    n_r = vh @ (st.dirac_sq @ blocks).reshape(module.dim, -1) + a2_r
    return ConnectionOperators(v=v, w=w, a_r=a_r, a2_r=a2_r, t=t, m_r=t + a_r, n_r=n_r)


def spectrum(module: ProjectiveModule,
             a: ConnectionForm | ConnectionOperators | None = None,
             tol: float = DEFAULT_TOL) -> list[float]:
    """Ascending eigenvalues of the product operator restricted to range(P)."""
    m_r = connection_operators(module, a, tol).m_r
    _require([Check("spectrum_symmetric_input", relative_distance(m_r, m_r.conj().T), tol)])
    return [float(v) for v in np.linalg.eigvalsh(m_r)]


def hermitian_residual(module: ProjectiveModule, a: ConnectionForm | None = None) -> float:
    """Defect of the Hermitian-connection identity over the standard frame.

    Evaluates, for all frame pairs (x_i, x_j),

        <gamma x_i, nabla x_j>_D - <nabla(gamma x_i), x_j>_D - [D, <x_i, x_j>]

    with nabla the Grassmann connection plus ``a``; the Grassmann part
    satisfies the identity exactly, so the residual isolates the defect of
    the added form, taken as given: raw A_D, not P A_D P, and unchecked.
    Returns the max spectral norm over the (i, j) blocks.  With Gamma (x) 1 =
    diag(g), EP = (1 (x) D) P and PE = P (1 (x) D), each a product per n-block,
    W = [Gamma (x) D, P] = g o EP - PE o g^T (+ A_D) and the defect is
    g o (P W - W* P) - (EP - PE): two dense products, in any basis and gamma.
    """
    P, m, n, dim = module.projector, module.m, module.triple.n, module.dim
    g = np.repeat(module.signs, n)[:, None]
    ep = (module.triple.dirac @ P.reshape(m, n, dim)).reshape(dim, dim)
    pe = (P.reshape(dim * m, n) @ module.triple.dirac).reshape(dim, dim)
    W = g * ep - pe * g.T  # [Gamma (x) D, P]
    if a is not None:
        _require_same_module(module, a)
        if not a.is_zero():
            W = W + a.represented()[0]
    res = g * (P @ W - W.conj().T @ P) - (ep - pe)
    blocks = res.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    return float(spectral_norm(blocks).max(initial=0.0))
