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
P (Gamma (x) D) P + A_D.  No mn x mn lift is assembled: Gamma (x) 1 is a row
scaling, and 1 (x) D and 1 (x) gamma are a product per n-row block.  The
spectrum and the curvature routes take the :class:`ConnectionOperators` bundle
of :func:`connection_operators` as their one input, in the coordinates of the
range isometry (:attr:`ProjectiveModule.range_isometry`).  A form is represented
entrywise, A_D[i, j] = sum_pq c[i, j, p, q] b_p [D, b_q] and A_D2 likewise
with D^2, together with its ker(m) defect, by :meth:`ConnectionForm.represented`:
over points from one point kernel, else from the d^2 pair stack.

Over points that kernel is constant on each block of point x point slots, so
A_D = D o K depends on the form only through an md x md point kernel.  From
mn = POINT_LEVEL_MIN_DIM (64) on a module is read in point coordinates: V from
one eigh per point, w, t and n_r gathered from V's slots and generator vectors,
and with a +/-1 diagonal gamma the checks and range blocks from that kernel
(:func:`_point_level_blocks`), forming no mn x mn array.  :func:`validate_connection`,
:func:`hermitian_residual` and :meth:`ConnectionForm.represented` stay at slot level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .glinalg import relative_distance, relative_residual, spectral_norm
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


#: Smallest mn at which a module over points is evaluated in point coordinates
#: (:func:`_large_point_module`).  In-process time of each point form over its slot
#: form (2-core VM, BLAS at one thread, two seeded modules per mn): connection level
#: 1.19-1.33 at mn <= 16, 1.0 at 32, 0.84-0.94 at 40-48, 0.63 at 64, 0.28-0.39 at 120;
#: eigh per point 1.06-1.21 at <= 24, 0.85-1.10 at 32-56, 0.62-0.90 from 64; gathered
#: w, t, n_r 1.10-1.28 at <= 12, 0.75-0.93 at 40-56, 0.47-0.80 from 64.  Below 64 the
#: slot forms also keep the bits of the selftest and fixture reports.
POINT_LEVEL_MIN_DIM = 64


def _large_point_module(module: ProjectiveModule) -> bool:
    """Over points from mn = POINT_LEVEL_MIN_DIM on: evaluated in point coordinates."""
    return module.triple.points is not None and module.dim >= POINT_LEVEL_MIN_DIM


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
        Over points P = sum_x p(x) (x) E_xx, so V comes from one batched eigh of
        the blocks p(x), one per point u (p(x) = p(u) on its slots) from mn =
        POINT_LEVEL_MIN_DIM on; other bases take eigh(P).  The cut at 1/2 is a
        rank decision: InvariantViolation unless ||V V* - P||_F / max(1, ||P||_F)
        <= DEFAULT_TOL, which also fails a P that is not self-adjoint."""
        return self._range_frame[0]

    @cached_property
    def _range_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V, x, u): over points V's column c is the generator vector u[c] at slot x[c]."""
        st, m, n = self.triple, self.m, self.triple.n
        large = _large_point_module(self)
        if st.points is None:  # one block, P itself
            blocks, m, n = self.projector[None], self.dim, 1
        elif large:  # p(u)[i, j] = sum_k p[i, j, k] b_k[x] at the first slot x of u
            point, first = st.point_index
            blocks = (self.p @ st.basis_diagonal[:, first]).transpose(2, 0, 1)
        else:
            blocks = (self.p @ st.basis_diagonal).transpose(2, 0, 1)
        vals, vecs = np.linalg.eigh(blocks)
        keep = vals > 0.5
        kept = vecs * keep[:, None, :]
        gap = kept @ kept.conj().transpose(0, 2, 1) - blocks  # V V* - P, block by block
        if large:  # p(u) once per slot of u
            weight = np.sqrt(st.points.sum(axis=1))[:, None, None]
            gap, blocks = gap * weight, blocks * weight
        defect = np.sqrt(np.vdot(gap, gap).real / max(1.0, np.vdot(blocks, blocks).real))
        _require([Check("projector_range_isometry", float(defect), DEFAULT_TOL)])
        if large:  # each slot takes its point's eigenvectors
            vecs, keep = vecs[point], keep[point]
        x, col = np.nonzero(keep)
        u = vecs[x, :, col]
        v = np.zeros((m, n, len(x)), dtype=complex)
        v[:, x, np.arange(len(x))] = u.T
        return v.reshape(self.dim, -1), x, u

    def compress(self, x: np.ndarray) -> np.ndarray:
        """P x P, formed as V (V* x V) V* with V the range isometry."""
        v = self.range_isometry
        return v @ (v.conj().T @ x @ v) @ v.conj().T

    def graded(self, x: np.ndarray) -> np.ndarray:
        """G x G for the grading G = Gamma (x) gamma, which is never assembled.
        A diagonal gamma of +/-1 makes G a diagonal g of +/-1 and G x G = (g g^T) o x
        exactly; any other gamma takes 1 (x) gamma as a product per n-block on
        each side and Gamma (x) 1 as a row and column scaling."""
        if self.triple.gamma_signs is not None:
            g = np.outer(self.signs, self.triple.gamma_signs).ravel()
            return np.outer(g, g) * x
        m, n, dim, gamma = self.m, self.triple.n, self.dim, self.triple.gamma
        s = np.repeat(self.signs, n)[:, None]
        gx = (gamma @ x.reshape(m, n, dim)).reshape(dim * m, n)
        return s * (gx @ gamma).reshape(dim, dim) * s.T

    def parity_residual(self, x: np.ndarray, odd: bool) -> float:
        """||G x G + x||_F (odd) or ||G x G - x||_F (even), over max(1, ||x||_F)."""
        gxg = self.graded(x)
        return relative_residual(gxg + x if odd else gxg - x, x)

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

        K[i,j,x,y] = G[i,j,x,y] - mult[i,j,x] (:func:`_kernel`), so that
        sum_pq c b_p [X, b_q] is X o K[i,j] (entrywise) for X = D and X = D^2
        alike; the defect is the max row norm of mult.  K is not kept: a pass
        that holds many forms would hold an mn x mn array for each."""
        k, mult = _kernel(self.entries, self.module.triple.basis_diagonal)
        rows = mult.reshape(-1, mult.shape[-1])
        return k, float(np.linalg.norm(rows, axis=1).max(initial=0.0))

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


def _kernel(entries: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, mult) of an (m, m, d, d) entry table c read at the columns b (d, k) of
    the basis diagonals.

    Cb[i,j,p,y] = sum_q c[i,j,p,q] b_q[y] (one gemm) and G[i,j,x,y] = sum_p
    b_p[x] Cb[i,j,p,y] (one batched matmul); mult[i,j,x] = G[i,j,x,x] is the
    diagonal of the ker(m) element sum_pq c b_p b_q, and K = G - mult[..., None]
    is formed in place, so K[i,j,x,x] is exactly 0."""
    m, (d, k) = len(entries), b.shape
    g = np.matmul(b.T, (entries.reshape(m * m * d, d) @ b).reshape(m, m, d, k))
    mult = np.diagonal(g, axis1=2, axis2=3).copy()
    g -= mult[..., None]
    return g, mult


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


def _grading_support_check(module: ProjectiveModule, a: ConnectionForm, tol: float) -> Check:
    """Largest entry table at a Gamma-odd position, over max(1, ||table||_F)."""
    odd = a.entries[~module.even_mask].reshape(-1, module.triple.d ** 2)
    odd_mass = float(np.linalg.norm(odd, axis=1).max(initial=0.0))
    scale = max(1.0, float(np.linalg.norm(a.entries)))
    return Check("connection_grading_support", odd_mass / scale, tol)


def _connection_checks(module: ProjectiveModule, a: ConnectionForm, a_d: np.ndarray,
                       defect: float, compressed: np.ndarray, tol: float) -> list[Check]:
    """ker(m) entries, grading support, then compression and oddness of A_D (P A_D P given)."""
    return [
        Check("connection_ker_mult", defect, tol),
        _grading_support_check(module, a, tol),
        Check("connection_compressed", relative_residual(compressed - a_d, a_d), tol),
        Check("connection_odd", module.parity_residual(a_d, odd=True), tol),
    ]


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


def _slot_level_blocks(module: ProjectiveModule, a: ConnectionForm,
                       tol: float) -> tuple[np.ndarray, np.ndarray, list[Check]]:
    """(a_r, a2_r, the four connection checks) from the assembled mn x mn A_D and A_D2."""
    v = module.range_isometry
    vh = v.conj().T
    a_d, a_d2, defect = a.represented()
    a_r, a2_r = vh @ a_d @ v, vh @ a_d2 @ v
    return a_r, a2_r, _connection_checks(module, a, a_d, defect, v @ a_r @ vh, tol)


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entrywise, in one real array."""
    out = np.abs(x)
    out *= out
    return out


def _point_level_blocks(module: ProjectiveModule, a: ConnectionForm,
                        tol: float) -> tuple[np.ndarray, np.ndarray, list[Check]]:
    """(a_r, a2_r, the four connection checks) from one md x md point kernel.

    Over d points b_p[x] depends only on the point u of slot x, so the kernel
    of :meth:`ConnectionForm._point_kernel` is constant on each block of point
    x point slots: K[i,j,x,y] = K_pt[(i,u),(j,v)] = G_pt[i,j](u,v) - G_pt[i,j](u,u),
    with G_pt the two contractions of :func:`_kernel` read at one slot per
    point, and A_D = D o K (A_D2 = D^2 o K).  Every output follows from K_pt:

    * ker(m): mult[i,j,x] = G_pt[i,j](u,u) on each of the n_u slots of u, so
      each row norm is (sum_u n_u |G_pt[i,j](u,u)|^2)^1/2.
    * Norms: ||D o K||_F^2 = sum |D_xy|^2 |K_pt[(i,u),(j,v)]|^2 = ||w o K_pt||_F^2
      with w_uv = (sum_{x in u, y in v} |D_xy|^2)^1/2 (broadcast over i, j).
    * Range blocks: V's column c sits at slot x_c with generator vector u_c,
      so a_r[c,c'] = D[x_c, x_c'] (u_c* K_pt u_c') = D_cc' (V_pt* K_pt V_pt)[c,c']
      with V_pt[(i,u), c] = u_c[i] at the point u of x_c (the frame of
      ProjectiveModule._range_frame); a2_r likewise with D^2.
    * Compression: P = sum_x p(x) (x) E_xx and p(x) = p(u), so P A_D P - A_D is
      D o (P_pt K_pt P_pt - K_pt) lifted, P_pt = (+)_u p(u).  As the slot level
      forms P A_D P as V a_r V*, P_pt K_pt P_pt is W_pt (W_pt* K_pt W_pt) W_pt*,
      with W_pt the columns of V_pt at the first slot of each point (W_pt W_pt*
      = P_pt) and W_pt* K_pt W_pt a sub-block of V_pt* K_pt V_pt:
      connection_compressed is ||w o (P_pt K_pt P_pt - K_pt)||_F / max(1,
      ||w o K_pt||_F).
    * Oddness: G A_D G + A_D is 2 A_D where s_i s_j gamma_x gamma_y = +1 and 0
      elsewhere, so connection_odd splits w^2 by the gamma-parity of (x, y)
      and |K_pt|^2 by the generator-sign product s_i s_j, and pairs the
      even-even and the odd-odd parts.
    """
    st = module.triple
    e, m, d = st.points, module.m, st.d
    point_of, first = st.point_index  # first: one slot per point
    k_pt, mult = _kernel(a.entries, st.basis_diagonal[:, first])  # K_pt[i, j, u, v]
    defect = float(np.sqrt((_abs2(mult) @ e.sum(axis=1)).max(initial=0.0)))
    gamma_even = np.outer(st.gamma_signs, st.gamma_signs) > 0
    d2 = _abs2(st.dirac)
    w2 = (e @ np.stack([d2 * gamma_even, d2 * ~gamma_even]) @ e.T).reshape(2, d * d)
    sign_classes = np.stack([module.even_mask, ~module.even_mask]).reshape(2, m * m)
    # ||w o K_pt||_F^2 split by (slot parity, sign product)
    mass = w2 @ (sign_classes @ _abs2(k_pt).reshape(m * m, d * d)).T
    scale = max(1.0, float(np.sqrt(mass.sum())))
    k_pt = k_pt.transpose(0, 2, 1, 3).reshape(m * d, m * d)  # K_pt[(i,u),(j,v)], a copy

    _, slot, u = module._range_frame  # x_c and u_c
    point = point_of[slot]
    v_pt = np.zeros((m, d, len(slot)), dtype=complex)
    v_pt[:, point, np.arange(len(slot))] = u.T
    v_pt = v_pt.reshape(m * d, -1)
    core = v_pt.conj().T @ k_pt @ v_pt
    at = (slot[:, None], slot)  # D[x_c, x_c']
    a_r = st.dirac[at] * core
    a2_r = st.dirac_sq[at] * core

    rep = slot == first[point]
    w_pt = v_pt[:, rep]
    gap = (w_pt @ core[rep][:, rep]) @ w_pt.conj().T
    gap -= k_pt
    del k_pt  # at most two md x md arrays live at once
    gap_mass = _abs2(gap).reshape(m, -1).sum(axis=0).reshape(d, m, d).sum(axis=1)  # (u, v)
    checks = [
        Check("connection_ker_mult", defect, tol),
        _grading_support_check(module, a, tol),
        Check("connection_compressed",
              float(np.sqrt(w2.sum(axis=0) @ gap_mass.ravel())) / scale, tol),
        Check("connection_odd", 2.0 * float(np.sqrt(np.trace(mass))) / scale, tol),
    ]
    return a_r, a2_r, checks


def _represented_blocks(module: ProjectiveModule, a: ConnectionForm,
                        tol: float) -> tuple[np.ndarray, np.ndarray, list[Check]]:
    """(a_r, a2_r, checks) at point level on a large point module with a +/-1 gamma."""
    point_level = _large_point_module(module) and module.triple.gamma_signs is not None
    return (_point_level_blocks if point_level else _slot_level_blocks)(module, a, tol)


def connection_operators(module: ProjectiveModule, a: ConnectionForm | None = None,
                         tol: float = DEFAULT_TOL) -> ConnectionOperators:
    """Validate and represent ``a`` once; None or a zero form is the Grassmann connection.

    Raises InvariantViolation on the first failing check of
    :func:`validate_connection` or of ``ProjectiveModule.range_isometry``.
    pi_d and pi_d2 are A-bimodule maps on ker(m), so compressing after
    representing equals representing P . C . P.  Off ker(m) the two differ by
    terms of size connection_ker_mult * ||[D^k, P]||, and validation gates
    connection_ker_mult at tol.  D and D^2 act on V block by block; from mn =
    POINT_LEVEL_MIN_DIM over points the module is read in point coordinates.
    """
    if a is not None:
        _require_same_module(module, a)
    v, slot, u = module._range_frame
    if a is None or a.is_zero():
        a_r = a2_r = np.zeros((v.shape[1],) * 2, dtype=complex)
    else:
        a_r, a2_r, checks = _represented_blocks(module, a, tol)
        _require(checks)
    st = module.triple
    if _large_point_module(module):  # V's column c is u_c at slot x_c alone
        su = module.signs[:, None] * u.T  # S U
        w = (su[:, None, :] * st.dirac[:, slot]).reshape(module.dim, -1)
        at = (slot[:, None], slot)
        t = st.dirac[at] * (u.conj() @ su)
        n_r = st.dirac_sq[at] * (u.conj() @ u.T) + a2_r
    else:
        vh = v.conj().T
        blocks = v.reshape(module.m, st.n, -1)
        w = (module.signs[:, None, None] * (st.dirac @ blocks)).reshape(module.dim, -1)
        t = vh @ w
        n_r = vh @ (st.dirac_sq @ blocks).reshape(module.dim, -1) + a2_r
    return ConnectionOperators(v=v, w=w, a_r=a_r, a2_r=a2_r, t=t, m_r=t + a_r, n_r=n_r)


def spectrum(ops: ConnectionOperators, tol: float = DEFAULT_TOL) -> list[float]:
    """Ascending eigenvalues of the product operator restricted to range(P)."""
    m_r = ops.m_r
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
