"""Universal and represented differential forms over a spectral triple.

Universal one-forms are coefficient tables c over basis pairs, standing for
sum_{ij} c[i,j] b_i (x) b_j inside the kernel ker(m) of the multiplication map.
They are represented on the Hilbert space by

    pi_d : b_i (x) b_j  ->  b_i [D, b_j]          (one-forms)
    pi_d2: b_i (x) b_j  ->  b_i [D^2, b_j]

and the associated two-form is sum c[i,j] [D, b_i][D, b_j].  The three are
tied together exactly by

    sum c[i,j] [D, b_i][D, b_j] = [D, pi_d(w)]_+ - pi_d2(w),

whose defect over max(1, ||left side||_F) is
:meth:`UniversalOneForm.two_form_defect`; :meth:`UniversalOneForm.two_form`
cross-checks it on every call.

With b_0 = 1 the forms b_i delta(b_j), j >= 1, are a basis of ker(m) (the
delta basis, not orthonormal) with pi_d = b_i [D, b_j], pi_d2 = b_i [D^2, b_j].
The kernel of the n^2 x d(d-1) matrix of the b_i [D, b_j] gives the forms that
represent to zero; junk two-forms are its pi_d2 image.  Each call solves the
kernel afresh: the module keeps no state between calls.  A basis[0] that is not
the identity raises InvariantViolation (``basis_unit_first``).  Over
:attr:`SpectralTriple.points` (every fixture and ``diag`` triple) both take
closed forms, stated at :func:`kernel_one_forms` and :func:`junk_space`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glinalg import (
    DEFAULT_RANK_TOL,
    anticommutator,
    frobenius_norm,
    solve_kernel,
    subspace_basis,
)
from .triple import DEFAULT_TOL, SpectralTriple, _require, _unit_first_check

__all__ = [
    "FormSpace",
    "InternalConsistencyError",
    "UniversalOneForm",
    "delta",
    "junk_space",
    "kernel_one_forms",
    "one_form_space",
    "two_form_space",
]


class InternalConsistencyError(RuntimeError):
    """An identity that holds exactly in the calculus failed numerically."""


@dataclass(frozen=True, eq=False)
class UniversalOneForm:
    """Coefficient table over basis pairs: sum c[i,j] b_i (x) b_j."""

    triple: SpectralTriple
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        d = self.triple.d
        if c.shape != (d, d):
            raise ValueError(f"coefficient table must be {d}x{d}, got {c.shape}")
        if c.size and not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def mult_residual(self) -> float:
        """||sum c[i,j] b_i b_j||_F: membership defect in ker(m)."""
        return frobenius_norm(self._paired(self.triple.basis))

    def pi_d(self) -> np.ndarray:
        """Represented one-form sum c[i,j] b_i [D, b_j]."""
        return self._paired(self.triple.dirac_commutators)

    def pi_d2(self) -> np.ndarray:
        """sum c[i,j] b_i [D^2, b_j]."""
        return self._paired(self.triple.dirac_sq_commutators)

    def _paired(self, right: np.ndarray) -> np.ndarray:
        return np.tensordot(self.coeffs, self.triple.pair_products(right), axes=2)

    def _two_form(self) -> tuple[np.ndarray, float]:
        """sum c[i,j] [D, b_i][D, b_j] and its :meth:`two_form_defect`."""
        st = self.triple
        direct = np.einsum("ij,iab,jbc->ac", self.coeffs, st.dirac_commutators,
                           st.dirac_commutators)
        other = anticommutator(st.dirac, self.pi_d()) - self.pi_d2()
        return direct, frobenius_norm(direct - other) / max(1.0, frobenius_norm(direct))

    def two_form_defect(self) -> float:
        """||T - ([D, pi_d]_+ - pi_d2)||_F / max(1, ||T||_F), T = sum c[i,j] [D, b_i][D, b_j]."""
        return self._two_form()[1]

    def two_form(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Represented two-form sum c[i,j] [D, b_i][D, b_j].

        Raises InternalConsistencyError when :meth:`two_form_defect` (exactly
        0 in the calculus) exceeds ``tol``.
        """
        direct, defect = self._two_form()
        if defect > tol:
            raise InternalConsistencyError(
                f"two-form identity defect {defect:.3e} exceeds {tol:.3e}")
        return direct

    def third_junk_residual(self) -> float:
        """||sum c[i,j] [D, b_i] b_j||_F (the redundant junk condition)."""
        st = self.triple
        out = np.einsum("ij,iab,jbc->ac", self.coeffs, st.dirac_commutators,
                        st.basis)
        return frobenius_norm(out)


def delta(st: SpectralTriple, b_coeffs) -> UniversalOneForm:
    """Universal differential delta(b) = 1 (x) b - b (x) 1."""
    b = np.asarray(b_coeffs, dtype=complex)
    if b.shape != (st.d,):
        raise ValueError(f"expected a coefficient vector of length {st.d}")
    c = np.zeros((st.d, st.d), dtype=complex)
    c[0, :] += b
    c[:, 0] -= b
    return UniversalOneForm(st, c)


@dataclass(frozen=True, eq=False)
class FormSpace:
    """Frobenius-orthonormal basis of a space of represented forms.

    ``basis`` is a (dim, n, n) stack, as returned by :func:`subspace_basis`.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def one_form_space(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> FormSpace:
    """Span of {b_k [D, b_j]} as an orthonormal FormSpace."""
    mats = st.pair_products(st.dirac_commutators).reshape(st.d * st.d, st.n, st.n)
    return FormSpace(subspace_basis(mats, rank_tol))


def two_form_space(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> FormSpace:
    """Span of {b_k [D, b_i][D, b_j]}."""
    mats = st.pair_products(st.dirac_commutators)[:, :, None] @ st.dirac_commutators
    return FormSpace(subspace_basis(mats.reshape(-1, st.n, st.n), rank_tol))


def _delta_tables(st: SpectralTriple, xs) -> np.ndarray:
    """(k, d, d) tables of the forms sum x[i, j] b_i delta(b_j), j >= 1, one per
    row x: e_ij - T[i, j] e_0."""
    x = np.reshape(xs, (len(xs), st.d, st.d - 1))
    c = np.zeros((len(x), st.d, st.d), dtype=complex)
    c[:, :, 1:] = x
    c[:, :, 0] = -np.einsum("kij,ijl->kl", x, st.mult_tensor[:, 1:])
    return c


def _delta_forms(st: SpectralTriple, xs) -> list[UniversalOneForm]:
    """Forms sum x[i, j] b_i delta(b_j), j >= 1, one per row x."""
    return [UniversalOneForm(st, t) for t in _delta_tables(st, xs)]


def _universal_tables(st: SpectralTriple) -> np.ndarray:
    """(d(d-1), d, d) tables of the delta basis b_i delta(b_j), j >= 1, of ker(m)."""
    _require([_unit_first_check(st)])
    return _delta_tables(st, np.eye(st.d * (st.d - 1)))


def _delta_kernel(st: SpectralTriple, rank_tol: float) -> list[np.ndarray]:
    """Kernel of the n^2 x d(d-1) matrix of b_i [D, b_j]."""
    _require([_unit_first_check(st)])
    # j >= 1 only: [D, 1] = 0 would put b_i (x) 1 in the kernel, whose
    # round-off pi_d2 images subspace_basis would normalize into unit "junk"
    pi_d = st.pair_products(st.dirac_commutators[1:]).reshape(st.d * (st.d - 1), st.n * st.n)
    return solve_kernel(pi_d.T, rank_tol)


def _point_pairs(st: SpectralTriple, rank_tol: float):
    """Over :attr:`SpectralTriple.points`: the pairs k != l with e_k D e_l = 0,
    those of them with e_k D^2 e_l != 0, D^2 rescaled by a power of two, and its
    squared block norms.  None without points, or when a nonzero block of D or
    D^2 falls under sqrt(rank_tol) times its Frobenius norm: too near the cut
    to decide, so junk and kernel both take the SVD route."""
    e = st.points
    if e is None:
        return None
    keep = ~np.eye(st.d, dtype=bool)
    kept = []
    for m, kept_if_nonzero in ((st.dirac, False), (st.dirac_sq, True)):
        nonzero = e @ (m != 0) @ e.T > 0  # exact where sq may underflow
        m = m * np.ldexp(1.0, -np.frexp(np.abs(m).max())[1])  # exact rescale: max |m| < 1
        sq = e @ np.abs(m) ** 2 @ e.T  # squared block norms, summing to ||m||_F^2
        if np.any(keep & nonzero & (sq < rank_tol * sq.sum())):
            return None
        keep = keep & (nonzero == kept_if_nonzero)
        kept.append(keep)
    kernel_pairs, junk_pairs = kept
    return kernel_pairs, junk_pairs, m, sq


def kernel_one_forms(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> list[UniversalOneForm]:
    """Basis of ker(m) intersect ker(pi_d), orthonormal in delta-basis coordinates.

    Over points, with minimal projections e_k, the d(d-1) forms e_k delta(e_l),
    k != l, are a basis of ker(m), and those with e_k D e_l exactly 0 span
    ker(m) intersect ker(pi_d) (Krajewski, arXiv:hep-th/9701081): one QR of
    their delta coordinates orthonormalizes them, with no rank cut.
    """
    pairs = _point_pairs(st, rank_tol)
    if pairs is None:
        return _delta_forms(st, _delta_kernel(st, rank_tol))
    kernel_pairs = pairs[0]
    k, l = np.nonzero(kernel_pairs)  # row-major
    if not len(k):
        return []
    e_in_b = np.eye(st.d)  # e_k = sum_i e_in_b[k, i] b_i, and delta(1) = 0
    e_in_b[0, 1:] = -1.0
    x = e_in_b[k, :, None] * e_in_b[l, None, 1:]  # e_k delta(e_l) over b_i delta(b_j), j >= 1
    q, _ = np.linalg.qr(x.reshape(len(k), -1).T)
    return _delta_forms(st, q.T)


def junk_space(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> FormSpace:
    """Junk two-forms, the pi_d2 image of ker(m) intersect ker(pi_d).  Over points
    the span of the images e_k D^2 e_l of :func:`kernel_one_forms`' pairs,
    normalized, with no SVD; else, or near the cut (:func:`_point_pairs`), an SVD."""
    pairs = _point_pairs(st, rank_tol)
    if pairs is None:
        return _junk_space_svd(st, rank_tol)
    _, keep, d2, sq = pairs
    e = st.points
    k, l = np.nonzero(keep)  # row-major
    return FormSpace(e[k, :, None] * e[l, None, :] * d2 / np.sqrt(sq[k, l])[:, None, None])


def _junk_space_svd(st: SpectralTriple, rank_tol: float) -> FormSpace:
    kernel = _delta_kernel(st, rank_tol)
    pi_d2 = st.pair_products(st.dirac_sq_commutators[1:]).reshape(st.d * (st.d - 1), st.n * st.n)
    # form by form, so each image has the bits of that form's own pi_d2
    # (one stacked matmul rounds differently)
    images = np.reshape([x @ pi_d2 for x in kernel], (len(kernel), st.n, st.n))
    return FormSpace(subspace_basis(images, rank_tol))
