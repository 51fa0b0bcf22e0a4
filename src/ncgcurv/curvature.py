"""Curvature operators for connections on projective modules.

Two arithmetic routes are provided and compared:

  * direct:   M^2 - N, with M the product operator and N its square lift;
  * formula:  P [Dt, P][Dt, P] P + A_D^2 + (P [Dt, A_D]_+ P - A_D2),

with Dt = Gamma (x) D.  The last bracket is the represented differential of
the connection form, obtained from the one-form/two-form identity; it is
compressed to the range of P, where the whole calculus lives.  The sign
convention is R = M^2 - N (the square of the product operator minus the
lifted square); reports carry an explicit note so results can be matched to
the opposite convention by a global sign flip.

Curvature is well defined modulo junk.  Junk forms are an A-bimodule (Connes,
Noncommutative Geometry, 1994, VI.1) and P has entries in A, so C(X) = PXP
maps V = M_m (x) Junk into itself: C and proj_V are commuting orthogonal
projectors, and proj_V o C projects onto C(V) = span{P (E_kl (x) J) P}.  It
is applied block by block, each n x n block of PXP projected onto the
orthonormal junk basis, with no lift and no SVD.

A :class:`CurvatureReport` computes R, both routes and the four residuals
when it is made; its spectral ``norm`` and its ``junk_canonical``
representative (with the junk space, if none was given) are computed on first
read and then cached, so a caller that only checks the route identity pays
for neither.

The module also evaluates the correspondence curvature with a vertical
operator S and its decomposition R + [S (x) 1, M]_+ (a CorrespondenceReport),
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
    commutator,
    frobenius_norm,
    parity_residual,
    relative_distance,
    spectral_norm,
    support_residual,
)
from .triple import DEFAULT_TOL, Check, SpectralTriple, _require

__all__ = [
    "CorrespondenceReport",
    "CurvatureReport",
    "SIGN_CONVENTION_NOTE",
    "VerticalOperator",
    "correspondence_curvature",
    "correspondence_report",
    "correspondence_decomposition_residual",
    "curvature_direct",
    "curvature_formula",
    "curvature_report",
    "external_product_defect",
    "external_product_defect_ungraded",
    "junk_coset_residual",
    "validate_vertical",
    "wac_diagnostic",
]

SIGN_CONVENTION_NOTE = (
    "curvature sign convention: R = (product operator)^2 - (lifted square); "
    "flip the global sign to match the opposite convention"
)


def curvature_direct(module: ProjectiveModule,
                     a: ConnectionForm | ConnectionOperators | None = None,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """R = M^2 - N with M = P(Gamma (x) D)P + A_D, N = P(1 (x) D^2)P + A_D2."""
    ops = connection_operators(module, a, tol)
    return ops.m_op @ ops.m_op - ops.n_op


def curvature_formula(module: ProjectiveModule,
                      a: ConnectionForm | ConnectionOperators | None = None,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """Closed form P[Dt,P][Dt,P]P + A_D^2 + (P[Dt, A_D]_+ P - A_D2)."""
    ops = connection_operators(module, a, tol)
    P = module.projector
    dt = module.dirac_lift
    dp = commutator(dt, P)
    base = P @ dp @ dp @ P
    d_a = P @ anticommutator(dt, ops.a_d) @ P - ops.a_d2
    return base + ops.a_d @ ops.a_d + d_a


def _junk_projection(x: np.ndarray, module: ProjectiveModule,
                     junk: FormSpace) -> np.ndarray:
    """proj_V(P x P): each n x n block of P x P projected onto the junk basis."""
    if junk.dim == 0:
        return np.zeros_like(x)
    P = module.projector
    m, n = module.m, module.triple.n
    blocks = (P @ x @ P).reshape(m, n, m, n)
    coeffs = np.einsum("qab,iajb->ijq", junk.basis.conj(), blocks)
    return np.einsum("ijq,qab->iajb", coeffs, junk.basis).reshape(module.dim, module.dim)


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Curvature of a connection with residual diagnostics.

    R is supported on range(P) and even for the module grading; the junk
    canonical representative is R minus its Frobenius projection onto the
    lifted junk span C(V) = P (M_m (x) Junk) P, taken blockwise as
    proj_V(P R P) (see the module docstring).

    R and the four residuals are computed by :func:`curvature_report`.
    ``norm`` and ``junk_canonical`` are computed on first read and cached;
    ``junk_canonical`` reads ``junk_space(module.triple)`` only when the
    report was given no junk.
    """

    R: np.ndarray
    route_residual: float
    symmetry_residual: float
    evenness_residual: float
    support_residual: float
    module: ProjectiveModule = field(repr=False)
    junk: FormSpace | None = field(repr=False)

    @cached_property
    def norm(self) -> float:
        """Spectral norm of R."""
        return spectral_norm(self.R)

    @cached_property
    def junk_canonical(self) -> np.ndarray:
        """R minus its projection onto the lifted junk span."""
        junk = self.junk if self.junk is not None else junk_space(self.module.triple)
        return self.R - _junk_projection(self.R, self.module, junk)


def curvature_report(module: ProjectiveModule, a: ConnectionForm | None = None,
                     junk: FormSpace | None = None,
                     tol: float = DEFAULT_TOL) -> CurvatureReport:
    """Both curvature routes and their defect; norm and junk representative on read."""
    ops = connection_operators(module, a, tol)
    direct = curvature_direct(module, ops)
    formula = curvature_formula(module, ops)
    return CurvatureReport(
        R=direct,
        route_residual=frobenius_norm(direct - formula) / max(1.0, frobenius_norm(direct)),
        symmetry_residual=relative_distance(direct, direct.conj().T),
        evenness_residual=parity_residual(module.grading, direct, odd=False),
        support_residual=support_residual(module.projector, direct),
        module=module,
        junk=junk,
    )


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
    return frobenius_norm(x - _junk_projection(x, module, junk)) / max(1.0, frobenius_norm(x))


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


def validate_vertical(s: VerticalOperator, tol: float = DEFAULT_TOL) -> list[Check]:
    mat = s.matrix
    return [
        Check("vertical_selfadjoint", relative_distance(mat, mat.conj().T), tol),
        Check("vertical_compressed", support_residual(s.module.projector, mat), tol),
        Check("vertical_odd", parity_residual(s.module.grading, mat, odd=True), tol),
    ]


@dataclass(frozen=True, eq=False)
class CorrespondenceReport:
    """(S + M)^2 - S^2 - N with its defect ||corr - (R + [S, M]_+)||_F (exact
    algebra) and the checks S passed; ``wac`` is computed on first read."""

    curvature: np.ndarray
    decomposition_residual: float
    vertical_checks: list[Check]
    s_mat: np.ndarray = field(repr=False)
    m_op: np.ndarray = field(repr=False)

    @cached_property
    def wac(self) -> float:
        """||[S, M]_+|| / (||S|| + 1), echoing the relative-bound condition."""
        return (spectral_norm(anticommutator(self.s_mat, self.m_op))
                / (spectral_norm(self.s_mat) + 1.0))


def correspondence_report(module: ProjectiveModule,
                          a: ConnectionForm | ConnectionOperators | None,
                          s: VerticalOperator, tol: float = DEFAULT_TOL) -> CorrespondenceReport:
    """S checked and the connection evaluated, once each; a bad S raises first."""
    _require_same_module(module, s)
    checks = validate_vertical(s, tol)
    _require(checks)
    ops = connection_operators(module, a, tol)
    total = s.matrix + ops.m_op
    corr = total @ total - s.matrix @ s.matrix - ops.n_op
    residual = frobenius_norm(corr - curvature_direct(module, ops)
                              - anticommutator(s.matrix, ops.m_op))
    return CorrespondenceReport(corr, residual, checks, s.matrix, ops.m_op)


def correspondence_curvature(module: ProjectiveModule,
                             a: ConnectionForm | ConnectionOperators | None,
                             s: VerticalOperator, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(S + M)^2 - S^2 - N: the defect of the tensor sum from respecting squares."""
    return correspondence_report(module, a, s, tol).curvature


def correspondence_decomposition_residual(module: ProjectiveModule,
                                          a: ConnectionForm | ConnectionOperators | None,
                                          s: VerticalOperator,
                                          tol: float = DEFAULT_TOL) -> float:
    """||corr - (R + [S, M]_+)||_F: the decomposition is exact algebra."""
    return correspondence_report(module, a, s, tol).decomposition_residual


def wac_diagnostic(module: ProjectiveModule,
                   a: ConnectionForm | ConnectionOperators | None,
                   s: VerticalOperator, tol: float = DEFAULT_TOL) -> float:
    """||[S, M]_+|| / (||S|| + 1), echoing the relative-bound condition."""
    return correspondence_report(module, a, s, tol).wac


def _tensor_sum_defect(st1: SpectralTriple, st2: SpectralTriple,
                       left: np.ndarray) -> np.ndarray:
    """(D1 (x) 1 + left (x) D2)^2 - D1^2 (x) 1 - 1 (x) D2^2, left acting on H1."""
    eye1 = np.eye(st1.n)
    eye2 = np.eye(st2.n)
    tensor_sum = np.kron(st1.dirac, eye2) + np.kron(left, st2.dirac)
    return (tensor_sum @ tensor_sum
            - np.kron(st1.dirac_sq, eye2) - np.kron(eye1, st2.dirac_sq))


def external_product_defect(st1: SpectralTriple, st2: SpectralTriple) -> np.ndarray:
    """(D1 (x) 1 + gamma1 (x) D2)^2 - D1^2 (x) 1 - 1 (x) D2^2 on H1 (x) H2."""
    return _tensor_sum_defect(st1, st2, st1.gamma)


def external_product_defect_ungraded(st1: SpectralTriple, st2: SpectralTriple) -> np.ndarray:
    """Negative control: the same defect with the ungraded lift 1 (x) D2."""
    return _tensor_sum_defect(st1, st2, np.eye(st1.n))
