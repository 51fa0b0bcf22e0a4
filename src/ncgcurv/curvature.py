"""Curvature operators for connections on projective modules.

Two arithmetic routes are provided and compared:

  * direct:   M^2 - N, with M the product operator and N its square lift;
  * formula:  P [Dt, P][Dt, P] P + A_D^2 + (P [Dt, A_D]_+ P - A_D2),

with Dt = Gamma (x) D.  The last bracket is the represented differential of
the connection form, obtained from the one-form/two-form identity; it is
compressed to the range of P, where the whole calculus lives.  Both routes
run there, at O((mn)^2 r) for r = rank(P), in the coordinates of the
isometry V = ``ProjectiveModule.range_isometry`` (V V* = P); each function
states its r x r form.  The two stay different computations, so a wrong sign
in either shows in the route residual.  The sign convention is R = M^2 - N (the
square of the product operator minus the lifted square); reports carry an
explicit note so results can be matched to the opposite convention by a
global sign flip.

Curvature is well defined modulo junk.  Junk forms are an A-bimodule (Connes,
Noncommutative Geometry, 1994, VI.1) and P has entries in A, so C(X) = PXP
maps L = M_m (x) Junk into itself: C and proj_L are commuting orthogonal
projectors, and proj_L o C projects onto C(L) = span{P (E_kl (x) J) P}.  It
is applied block by block, each n x n block of PXP = V (V* X V) V* projected
onto the orthonormal junk basis, with no lift and no SVD.

:func:`curvature_direct` and :func:`curvature_formula` take the connection's
operator bundle alone and return r x r blocks.  A :class:`CurvatureReport`
holds R_r and that bundle; every other field is computed on first read and
then cached, so a caller pays only for what it reads.  The route residual
(against F_r), the symmetry residual and the spectral ``norm`` read R_r
alone; R = V R_r V* is expanded on first read, and the evenness and support
residuals and the ``junk_canonical`` representative (with the junk space, if
none was given) read it.

The module also evaluates the correspondence curvature with a vertical
operator S and its decomposition R + [S (x) 1, M]_+: one
:func:`correspondence_report` takes the residual in range(P) coordinates and
holds the curvature and [S, M]_+, from which ``wac`` is read.  It also gives
junk-coset comparisons and the external-product defect for pairs of triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fgpmod import (
    ConnectionForm,
    ConnectionOperators,
    ProjectiveModule,
    _require_same_module,
    connection_operators,
)
from .forms import FormSpace, junk_space
from .glinalg import (
    anticommutator,
    frobenius_norm,
    relative_distance,
    relative_residual,
    spectral_norm,
)
from .triple import DEFAULT_TOL, Check, SpectralTriple, _require

__all__ = [
    "CorrespondenceReport",
    "CurvatureReport",
    "SIGN_CONVENTION_NOTE",
    "VerticalOperator",
    "correspondence_report",
    "correspondence_decomposition_residual",
    "curvature_direct",
    "curvature_formula",
    "curvature_report",
    "external_product_defect",
    "external_product_defect_ungraded",
    "junk_coset_residual",
    "validate_vertical",
]

SIGN_CONVENTION_NOTE = (
    "curvature sign convention: R = (product operator)^2 - (lifted square); "
    "flip the global sign to match the opposite convention"
)


def curvature_direct(ops: ConnectionOperators) -> np.ndarray:
    """R = M^2 - N, M = P(Gamma (x) D)P + A_D, N = P(1 (x) D^2)P + A_D2, as the r x r
    block R_r = M_r^2 - N_r of R = V R_r V*."""
    return ops.m_r @ ops.m_r - ops.n_r


def curvature_formula(ops: ConnectionOperators) -> np.ndarray:
    """Closed form P[Dt,P][Dt,P]P + A_D^2 + (P[Dt, A_D]_+ P - A_D2), as the r x r
    block F_r = -(W* W - T* T) + A_r^2 + [T, A_r]_+ - A2_r: with W = Dt V and
    T = V* W, P[Dt,P][Dt,P]P = -P Dt (1 - P) Dt P = -V (W* W - T* T) V*."""
    t, w, a_r = ops.t, ops.w, ops.a_r
    base = -(w.conj().T @ w - t.conj().T @ t)
    return base + a_r @ a_r + anticommutator(t, a_r) - ops.a2_r


def _junk_projection(x: np.ndarray, module: ProjectiveModule,
                     junk: FormSpace) -> np.ndarray:
    """proj_L(x) for x = P x P: each n x n block of x projected onto the junk basis."""
    if junk.dim == 0:
        return np.zeros_like(x)
    m, n = module.m, module.triple.n
    blocks = x.reshape(m, n, m, n)
    coeffs = np.einsum("qab,iajb->ijq", junk.basis.conj(), blocks)
    return np.einsum("ijq,qab->iajb", coeffs, junk.basis).reshape(module.dim, module.dim)


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Curvature of a connection with residual diagnostics.

    R is supported on range(P) and even for the module grading; the junk
    canonical representative is R minus its Frobenius projection onto the
    lifted junk span C(L) = P (M_m (x) Junk) P, taken blockwise as
    proj_L(P R P) (see the module docstring).

    The report holds R_r = M_r^2 - N_r, the r x r block of R = V R_r V* made by
    :func:`curvature_report` from ``ops``, the connection's bundle.  Everything
    else is computed on first read and cached: ``route_residual``,
    ``symmetry_residual`` and ``norm`` from R_r (V is an isometry, so each is
    the same in range coordinates), and ``R`` itself, expanded for
    ``evenness_residual``, ``support_residual`` and ``junk_canonical``.
    ``junk_canonical`` reads ``junk_space(module.triple)`` only when the report
    was given no junk.
    """

    R_r: np.ndarray
    ops: ConnectionOperators = field(repr=False)
    module: ProjectiveModule = field(repr=False)
    junk: FormSpace | None = field(repr=False)

    @cached_property
    def R(self) -> np.ndarray:
        """V R_r V*, the mn x mn curvature."""
        return self.ops.expand(self.R_r)

    @cached_property
    def route_residual(self) -> float:
        """||R_r - F_r||_F / max(1, ||R_r||_F), F_r the formula route's block."""
        return relative_residual(self.R_r - curvature_formula(self.ops), self.R_r)

    @cached_property
    def symmetry_residual(self) -> float:
        return relative_distance(self.R_r, self.R_r.conj().T)

    @cached_property
    def evenness_residual(self) -> float:
        return self.module.parity_residual(self.R, odd=False)

    @cached_property
    def support_residual(self) -> float:
        """glinalg.support_residual, with P R P formed by ProjectiveModule.compress."""
        return relative_residual(self.module.compress(self.R) - self.R, self.R)

    @cached_property
    def norm(self) -> float:
        """Spectral norm of R, read from R_r."""
        return spectral_norm(self.R_r)

    @cached_property
    def junk_canonical(self) -> np.ndarray:
        """R minus its projection onto the lifted junk span."""
        junk = self.junk if self.junk is not None else junk_space(self.module.triple)
        return self.R - _junk_projection(self.R, self.module, junk)  # R = V R_r V* = P R P


def curvature_report(module: ProjectiveModule, a: ConnectionForm | None = None,
                     junk: FormSpace | None = None,
                     tol: float = DEFAULT_TOL) -> CurvatureReport:
    """The connection checked and R_r computed; R, residuals, norm and junk representative on read."""
    ops = connection_operators(module, a, tol)
    return CurvatureReport(R_r=curvature_direct(ops), ops=ops, module=module, junk=junk)


def junk_coset_residual(r1: np.ndarray, r2: np.ndarray, module: ProjectiveModule,
                        junk: FormSpace | None = None) -> float:
    """Distance of R1 - R2 from the lifted junk span, over max(1, ||R1 - R2||)."""
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    if r1.shape != r2.shape or r1.shape != (module.dim, module.dim):
        raise ValueError("curvature matrices must both live on the module space")
    if junk is None:
        junk = junk_space(module.triple)
    x = r1 - r2
    pxp = module.compress(x)
    return relative_residual(x - _junk_projection(pxp, module, junk), x)


@dataclass(frozen=True, eq=False)
class VerticalOperator:
    """m x m table of algebra coordinates assembling to an odd compressed S."""

    module: ProjectiveModule
    entries: np.ndarray  # (m, m, d)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        m, d = self.module.m, self.module.triple.d
        if e.shape != (m, m, d):
            raise ValueError(f"entries must have shape ({m}, {m}, {d}), got {e.shape}")
        if e.size and not np.all(np.isfinite(e)):
            raise ValueError("vertical operator coefficients must be finite")
        object.__setattr__(self, "entries", e)

    @cached_property
    def matrix(self) -> np.ndarray:
        """S assembled as an mn x mn matrix, on first read."""
        return self.module.assemble_table(self.entries)


def _vertical_checks(s: VerticalOperator, compressed: np.ndarray, tol: float) -> list[Check]:
    """Self-adjointness, compression and oddness of S (P S P given)."""
    mat = s.matrix
    return [
        Check("vertical_selfadjoint", relative_distance(mat, mat.conj().T), tol),
        Check("vertical_compressed", relative_residual(compressed - mat, mat), tol),
        Check("vertical_odd", s.module.parity_residual(mat, odd=True), tol),
    ]


def validate_vertical(s: VerticalOperator, tol: float = DEFAULT_TOL) -> list[Check]:
    """The checks against the assembled P, so a table that is no projection is reported."""
    return _vertical_checks(s, s.module.projector @ s.matrix @ s.module.projector, tol)


@dataclass(frozen=True, eq=False)
class CorrespondenceReport:
    """(S + M)^2 - S^2 - N and its exact-algebra defect ||corr - (R + [S, M]_+)||_F, the
    checks S passed and S; corr and [S, M]_+ are r x r, expanded by ``ops`` when read."""

    decomposition_residual: float
    vertical_checks: list[Check]
    s_mat: np.ndarray = field(repr=False)
    ops: ConnectionOperators = field(repr=False)
    corr_r: np.ndarray = field(repr=False)
    s_m_r: np.ndarray = field(repr=False)  # V* [S, M]_+ V

    curvature = cached_property(lambda self: self.ops.expand(self.corr_r))
    s_m = cached_property(lambda self: self.ops.expand(self.s_m_r))  # [S, M]_+

    @cached_property
    def wac(self) -> float:
        """||[S, M]_+|| / (||S|| + 1), echoing the relative-bound condition."""
        return spectral_norm(self.s_m) / (spectral_norm(self.s_mat) + 1.0)


def correspondence_report(module: ProjectiveModule, a: ConnectionForm | None,
                          s: VerticalOperator, tol: float = DEFAULT_TOL) -> CorrespondenceReport:
    """S checked and the connection evaluated, once each; a bad S raises first.
    S enters as S_r = V* S V, and vertical_compressed reads V S_r V*."""
    _require_same_module(module, s)
    v = module.range_isometry
    s_r = v.conj().T @ s.matrix @ v
    checks = _vertical_checks(s, v @ s_r @ v.conj().T, tol)
    _require(checks)
    ops = connection_operators(module, a, tol)
    total = s_r + ops.m_r
    corr_r = total @ total - s_r @ s_r - ops.n_r
    s_m_r = anticommutator(s_r, ops.m_r)
    residual = frobenius_norm(corr_r - (ops.m_r @ ops.m_r - ops.n_r) - s_m_r)
    return CorrespondenceReport(residual, checks, s.matrix, ops, corr_r, s_m_r)


def correspondence_decomposition_residual(module: ProjectiveModule, a: ConnectionForm | None,
                                          s: VerticalOperator,
                                          tol: float = DEFAULT_TOL) -> float:
    """||corr - (R + [S, M]_+)||_F: the decomposition is exact algebra."""
    return correspondence_report(module, a, s, tol).decomposition_residual


def _block_lift(left: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Kronecker product left (x) x of square matrices, by broadcasting."""
    dim = left.shape[0] * x.shape[0]
    return (left[:, None, :, None] * x[None, :, None, :]).reshape(dim, dim)


def _tensor_sum_defect(st1: SpectralTriple, st2: SpectralTriple,
                       left: np.ndarray) -> np.ndarray:
    """(D1 (x) 1 + left (x) D2)^2 - D1^2 (x) 1 - 1 (x) D2^2, left acting on H1."""
    eye1 = np.eye(st1.n)
    eye2 = np.eye(st2.n)
    tensor_sum = _block_lift(st1.dirac, eye2) + _block_lift(left, st2.dirac)
    return (tensor_sum @ tensor_sum
            - _block_lift(st1.dirac_sq, eye2) - _block_lift(eye1, st2.dirac_sq))


def external_product_defect(st1: SpectralTriple, st2: SpectralTriple) -> np.ndarray:
    """(D1 (x) 1 + gamma1 (x) D2)^2 - D1^2 (x) 1 - 1 (x) D2^2 on H1 (x) H2."""
    return _tensor_sum_defect(st1, st2, st1.gamma)


def external_product_defect_ungraded(st1: SpectralTriple, st2: SpectralTriple) -> np.ndarray:
    """Negative control: the same defect with the ungraded lift 1 (x) D2."""
    return _tensor_sum_defect(st1, st2, np.eye(st1.n))
