"""Finite-dimensional spectral triples with Z/2-grading.

A triple bundles a grading matrix, a matrix basis of the represented algebra
(first basis element the identity) and a self-adjoint odd Dirac matrix.
Algebra elements are coefficient vectors over the declared basis; products
and adjoints are re-expanded through least squares, failing loudly when the
basis was not closed.

A basis of exactly 1 followed by diagonal 0/1 projections with disjoint
supports is the algebra of d points (:attr:`SpectralTriple.points`), the
one basis on which tables and commutators take closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .glinalg import (
    DEFAULT_RANK_TOL,
    as_complex_matrix,
    commutator,
    relative_distance,
    spectral_norm,
)

__all__ = [
    "Check",
    "InvariantViolation",
    "NotInAlgebraError",
    "SpectralTriple",
    "c1_norm",
    "c2_norm",
    "pi1_block",
    "pi2_block",
    "validate",
]

DEFAULT_TOL = 1e-8


class NotInAlgebraError(ValueError):
    """A matrix could not be expressed in the algebra basis; carries the residual."""

    def __init__(self, residual: float, context: str = ""):
        self.residual = residual
        msg = f"matrix is not in the algebra span (residual {residual:.3e})"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


@dataclass(frozen=True)
class Check:
    """One validated invariant: measured value against a threshold."""

    name: str
    value: float
    threshold: float
    op: str = "<="  # "<=" for residuals, ">=" for e.g. independence margins

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return bool(self.value <= self.threshold)
        return bool(self.value >= self.threshold)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status:4s}  {self.name:<28s} {self.value:.3e} {self.op} {self.threshold:.3e}"


class InvariantViolation(ValueError):
    """A structural invariant of a triple, module, connection or operator failed."""

    def __init__(self, check: Check):
        self.check = check
        super().__init__(f"invariant violated: {check}")


def _require(checks: list[Check]) -> None:
    for c in checks:
        if not c.passed:
            raise InvariantViolation(c)


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """(algebra basis, grading, Dirac) on a Hilbert space of dimension n.

    Fields:
        gamma: n x n self-adjoint involution.
        basis: (d, n, n) complex array of the matrices spanning the algebra,
            basis[0] = identity.
        dirac: n x n self-adjoint matrix, odd with respect to gamma.

    Shape consistency is enforced at construction; the numerical invariants
    (self-adjointness, parity, algebra closure, independence) are checked by
    :func:`validate`.
    """

    gamma: np.ndarray
    basis: np.ndarray
    dirac: np.ndarray

    def __post_init__(self):
        gamma = as_complex_matrix(self.gamma)
        dirac = as_complex_matrix(self.dirac)
        basis = as_complex_matrix(self.basis)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise ValueError("gamma must be square")
        n = gamma.shape[0]
        if dirac.shape != (n, n):
            raise ValueError(f"dirac must be {n}x{n}, got {dirac.shape}")
        if basis.ndim != 3 or basis.shape[1:] != (n, n) or not len(basis):
            raise ValueError(f"basis must be a nonempty (d, {n}, {n}) stack, "
                             f"got {basis.shape}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "dirac", dirac)
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def d(self) -> int:
        return len(self.basis)

    # -- cached derived arrays -------------------------------------------

    @cached_property
    def dirac_sq(self) -> np.ndarray:
        return self.dirac @ self.dirac

    @cached_property
    def dirac_commutators(self) -> np.ndarray:
        """(d, n, n) stack of [D, b_k]."""
        return self._commutators(self.dirac)

    @cached_property
    def dirac_sq_commutators(self) -> np.ndarray:
        """(d, n, n) stack of [D^2, b_k]."""
        return self._commutators(self.dirac_sq)

    def _commutators(self, x: np.ndarray) -> np.ndarray:
        """(d, n, n) stack of [x, b_k].  Over :attr:`points` columns and rows
        scale, in place of 2d matmuls whose sums are one term plus exact zeros."""
        if self.points is None:
            return np.stack([commutator(x, b) for b in self.basis])
        b = self.basis_diagonal
        return x * b[:, None, :] - b[:, :, None] * x

    @cached_property
    def gamma_signs(self) -> np.ndarray | None:
        """diag(gamma) when gamma is exactly diagonal with entries +/-1, else None."""
        g = np.diagonal(self.gamma).real
        return g if (self.gamma == np.diag(g)).all() and (abs(g) == 1).all() else None

    @cached_property
    def basis_diagonal(self) -> np.ndarray | None:
        """(d, n) diagonals when every basis matrix is exactly diagonal and real, else None."""
        diag = np.diagonal(self.basis, axis1=1, axis2=2)
        # nothing off the diagonal is nonzero, and nothing on it is imaginary
        exact = np.count_nonzero(self.basis) == np.count_nonzero(diag) and not diag.imag.any()
        return diag.real if exact else None

    @cached_property
    def points(self) -> np.ndarray | None:
        """(d, n) 0/1 rows of the minimal projections e_0 = 1 - sum b_k, e_k = b_k.

        Set when basis[0] is exactly 1 and the rest are diagonal 0/1 projections
        with disjoint supports, none of the e_k empty: the algebra of d points,
        whose point k holds the slots where row k is 1.  Otherwise None.
        """
        diag = self.basis_diagonal
        if diag is None or not (diag[0] == 1).all():
            return None
        e = diag.copy()
        e[0] -= e[1:].sum(0)
        return e if ((e == 0) | (e == 1)).all() and e.any(axis=1).all() else None

    @cached_property
    def point_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(point of each slot, first slot of each point) over :attr:`points`."""
        e = self.points
        return None if e is None else (e.argmax(axis=0), e.argmax(axis=1))

    def pair_products(self, right: np.ndarray) -> np.ndarray:
        """(..., d, d, n, n) stack of b_p r_q for a (..., d, n, n) stack r, one batched
        matmul on every basis.  Not cached: it would cost d times the commutators' memory."""
        return self.basis[:, None] @ right[..., None, :, :, :]

    @cached_property
    def _vec_basis(self) -> np.ndarray:
        # (n^2, d) matrix with columns vec(b_k); used for coordinate solves.
        return self.basis.reshape(self.d, -1).T

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """(d, d, d) structure constants: b_i b_j = sum_k T[i,j,k] b_k.

        Exact over :attr:`points`, where b_0 = 1 and b_i b_j = delta_ij b_i for
        i, j >= 1; a least-squares solve on every other basis.
        """
        if self.points is not None:
            T = np.zeros((self.d,) * 3, dtype=complex)
            k = np.arange(self.d)
            T[0, k, k] = T[k, 0, k] = T[k, k, k] = 1.0
            return T
        prods = self.pair_products(self.basis).reshape(-1, self.n, self.n)
        T = self.coords(prods, context="b_i * b_j over flattened (i, j)")
        return T.reshape(self.d, self.d, self.d)

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """(d, d) matrix S with b_k^* = sum_j S[j,k] b_j: the identity over :attr:`points`."""
        if self.points is not None:
            return np.eye(self.d, dtype=complex)
        adjoints = self.basis.conj().transpose(0, 2, 1)
        return self.coords(adjoints, context="b_k^* over k").T.copy()  # C order, see coords

    # -- algebra coordinates ---------------------------------------------

    def assemble(self, coeffs) -> np.ndarray:
        """Algebra element of a coefficient vector, or (k, n, n) of a (k, d) stack."""
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim not in (1, 2) or c.shape[-1] != self.d:
            raise ValueError(f"coefficient vectors must have length {self.d}, got {c.shape}")
        return np.einsum("...k,kab->...ab", c, self.basis)

    def coords(self, mat, tol: float = DEFAULT_TOL, context: str = "") -> np.ndarray:
        """Least-squares coefficients of ``mat`` in the algebra basis.

        ``mat`` is an n x n matrix, giving d coefficients, or a (k, n, n)
        stack, giving (k, d) from one ``lstsq``.  Raises NotInAlgebraError
        (carrying the relative residual, and for a stack the index of the
        first failing matrix) when a matrix is not in the span within ``tol``.
        """
        mat = as_complex_matrix(mat)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrices, got shape {mat.shape}")
        vecs = mat.reshape(-1, self.n * self.n)
        c, *_ = np.linalg.lstsq(self._vec_basis, vecs.T, rcond=None)
        # C order: einsum and matmul round differently on strided operands,
        # and the generated scenarios depend on these bits
        c = c.T.copy()
        defect = np.linalg.norm((self.assemble(c) - mat).reshape(vecs.shape), axis=1)
        residual = defect / np.maximum(1.0, np.linalg.norm(vecs, axis=1))
        bad = np.flatnonzero(residual > tol)
        if bad.size:
            where = f"index {bad[0]}" if mat.ndim == 3 else ""
            raise NotInAlgebraError(float(residual[bad[0]]),
                                    ", ".join(filter(None, (context, where))))
        return c if mat.ndim == 3 else c[0]

    def star_coords(self, coeffs) -> np.ndarray:
        """Coefficients of the adjoint of the element with coefficients ``coeffs``."""
        c = np.asarray(coeffs, dtype=complex)
        return self.star_matrix @ np.conj(c)

    @cached_property
    def _resolvent(self) -> np.ndarray:
        # (D + i)^{-1}; always defined since D is (meant to be) self-adjoint.
        return np.linalg.inv(self.dirac + 1j * np.eye(self.n))


# -- C^1 / C^2 block representations and norms ---------------------------


def pi1_block(st: SpectralTriple, a: np.ndarray) -> np.ndarray:
    """2n x 2n block matrix [[a, 0], [[D, a], a]]; one per matrix of a (k, n, n) stack."""
    n = st.n
    out = np.zeros((*a.shape[:-2], 2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = a
    out[..., n:, n:] = a
    out[..., n:, :n] = commutator(st.dirac, a)
    return out


def pi2_block(st: SpectralTriple, a: np.ndarray) -> np.ndarray:
    """2n x 2n block matrix [[(D+i) a (D+i)^-1, 0], [[D^2, a](D+i)^-1, a]]."""
    n = st.n
    res = st._resolvent
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = (st.dirac + 1j * np.eye(n)) @ a @ res
    out[n:, n:] = a
    out[n:, :n] = commutator(st.dirac_sq, a) @ res
    return out


def c1_norm(st: SpectralTriple, coeffs) -> float | np.ndarray:
    """Operator norm of the first-derivative block representation; for a
    (k, d) stack of coefficient vectors, the k norms from one batched SVD."""
    return spectral_norm(pi1_block(st, st.assemble(coeffs)))


def c2_norm(st: SpectralTriple, coeffs) -> float:
    """max of the pi1 norm and the pi2 norms of the element and its adjoint."""
    a = st.assemble(coeffs)
    blocks = np.stack([pi1_block(st, a), pi2_block(st, a), pi2_block(st, a.conj().T)])
    return float(spectral_norm(blocks).max())


# -- validation ----------------------------------------------------------


def _unit_first_check(st: SpectralTriple, tol: float = DEFAULT_TOL) -> Check:
    """basis[0] is the identity, which the delta coordinates of forms rely on."""
    return Check("basis_unit_first", relative_distance(st.basis[0], np.eye(st.n)), tol)


def validate(st: SpectralTriple, tol: float = DEFAULT_TOL,
             rank_tol: float = DEFAULT_RANK_TOL) -> list[Check]:
    """Check every triple invariant, reporting one residual per check."""
    checks: list[Check] = []
    g = st.gamma
    checks.append(Check("grading_involution", relative_distance(g @ g, np.eye(st.n)), tol))
    checks.append(Check("grading_selfadjoint", relative_distance(g, g.conj().T), tol))
    checks.append(Check("dirac_selfadjoint",
                        relative_distance(st.dirac, st.dirac.conj().T), tol))
    checks.append(Check("dirac_odd",
                        relative_distance(g @ st.dirac @ g, -st.dirac), tol))
    checks.append(_unit_first_check(st, tol))

    even_res = float(np.max([relative_distance(g @ b @ g, b) for b in st.basis], initial=0.0))
    checks.append(Check("basis_even", even_res, tol))

    stacked = st.basis.reshape(st.d, -1)
    s = np.linalg.svd(stacked, compute_uv=False)
    margin = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    checks.append(Check("basis_independent", margin, rank_tol, op=">="))

    def span_residual(mats: np.ndarray) -> float:
        fits = st.assemble(st.coords(mats, tol=np.inf))
        return float(np.max([relative_distance(f, m) for f, m in zip(fits, mats)], initial=0.0))

    mult_res = span_residual(st.pair_products(st.basis).reshape(-1, st.n, st.n))
    star_res = span_residual(st.basis.conj().transpose(0, 2, 1))
    checks.append(Check("algebra_closed_mult", mult_res, tol))
    checks.append(Check("algebra_closed_star", star_res, tol))

    return checks
