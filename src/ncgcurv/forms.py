"""Universal and represented differential forms over a spectral triple.

Universal one-forms are coefficient tables c over basis pairs, standing for
sum_{ij} c[i,j] b_i (x) b_j inside the kernel ker(m) of the multiplication map.
They are represented on the Hilbert space by

    pi_d : b_i (x) b_j  ->  b_i [D, b_j]          (one-forms)
    pi_d2: b_i (x) b_j  ->  b_i [D^2, b_j]

and the associated two-form is sum c[i,j] [D, b_i][D, b_j].  The three are
tied together exactly by

    sum c[i,j] [D, b_i][D, b_j] = [D, pi_d(w)]_+ - pi_d2(w),

which :meth:`UniversalOneForm.two_form` cross-checks on every call.

With b_0 = 1 the forms b_i delta(b_j), j >= 1, are a basis of ker(m) (the
delta basis, not orthonormal) with pi_d = b_i [D, b_j], pi_d2 = b_i [D^2, b_j].
The kernel of the n^2 x d(d-1) matrix of the b_i [D, b_j] gives the forms that
represent to zero; junk two-forms are its pi_d2 image.  The kernel alone is
solved once per (triple, rank_tol) and kept while the triple lives;
:func:`junk_space` forms the pi_d2 images on each call.  A basis[0] that is not
the identity raises InvariantViolation (``basis_unit_first``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .glinalg import (
    DEFAULT_RANK_TOL,
    anticommutator,
    frobenius_norm,
    relative_distance,
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
    "universal_form_basis",
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

    def two_form(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Represented two-form sum c[i,j] [D, b_i][D, b_j].

        Cross-checked against [D, pi_d]_+ - pi_d2, which must agree exactly;
        a relative defect above ``tol`` raises InternalConsistencyError.
        """
        st = self.triple
        direct = np.einsum("ij,iab,jbc->ac", self.coeffs, st.dirac_commutators,
                           st.dirac_commutators)
        via_anticom = anticommutator(st.dirac, self.pi_d()) - self.pi_d2()
        defect = relative_distance(direct, via_anticom)
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


def _delta_forms(st: SpectralTriple, xs) -> list[UniversalOneForm]:
    """Forms sum x[i, j] b_i delta(b_j), j >= 1, one per row x (tables e_ij - T[i, j] e_0)."""
    x = np.reshape(xs, (len(xs), st.d, st.d - 1))
    c = np.zeros((len(x), st.d, st.d), dtype=complex)
    c[:, :, 1:] = x
    c[:, :, 0] = -np.einsum("kij,ijl->kl", x, st.mult_tensor[:, 1:])
    return [UniversalOneForm(st, t) for t in c]


def universal_form_basis(st: SpectralTriple) -> list[UniversalOneForm]:
    """The delta basis b_i delta(b_j), j >= 1, of ker(m); not orthonormal."""
    _require([_unit_first_check(st)])
    return _delta_forms(st, np.eye(st.d * (st.d - 1)))


# kernel vectors per triple and rank_tol; keyed by identity (eq=False), so an
# entry goes with its triple and a copy.copy starts cold.  junk_space forms the
# pi_d2 images itself, so a kernel-only caller never pays for them.
_KERNELS = weakref.WeakKeyDictionary()


def _delta_kernel(st: SpectralTriple, rank_tol: float) -> list[np.ndarray]:
    """Kernel of the n^2 x d(d-1) matrix of b_i [D, b_j], solved once."""
    kernel = _KERNELS.get(st, {}).get(rank_tol)
    if kernel is None:
        _require([_unit_first_check(st)])
        # j >= 1 only: [D, 1] = 0 would put b_i (x) 1 in the kernel, whose
        # round-off pi_d2 images subspace_basis would normalize into unit "junk"
        pi_d = st.pair_products(st.dirac_commutators[1:]).reshape(st.d * (st.d - 1), st.n * st.n)
        kernel = _KERNELS.setdefault(st, {})[rank_tol] = solve_kernel(pi_d.T, rank_tol)
    return kernel


def kernel_one_forms(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> list[UniversalOneForm]:
    """Basis of ker(m) intersect ker(pi_d), orthonormal in delta-basis coordinates."""
    return _delta_forms(st, _delta_kernel(st, rank_tol))


def junk_space(st: SpectralTriple, rank_tol: float = DEFAULT_RANK_TOL) -> FormSpace:
    """Junk two-forms: the pi_d2 image of ker(m) intersect ker(pi_d)."""
    kernel = _delta_kernel(st, rank_tol)
    pi_d2 = st.pair_products(st.dirac_sq_commutators[1:]).reshape(st.d * (st.d - 1), st.n * st.n)
    # form by form, so each image has the bits of that form's own pi_d2
    # (one stacked matmul rounds differently)
    images = np.reshape([x @ pi_d2 for x in kernel], (len(kernel), st.n, st.n))
    return FormSpace(subspace_basis(images, rank_tol))
