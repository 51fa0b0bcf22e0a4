"""Dense complex matrix algebra.

Operators are plain complex128 numpy arrays.  This module supplies
commutators, norms, grading checks and the rank-revealing subspace machinery
(Frobenius inner product) on which all form-space computations are built.

Every function is pure and never mutates its arguments, so independent calls
are safe to evaluate in parallel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Default relative rank threshold for SVD-based subspace computations.
DEFAULT_RANK_TOL = 1e-9

__all__ = [
    "DEFAULT_RANK_TOL",
    "anticommutator",
    "as_complex_matrix",
    "commutator",
    "frobenius_norm",
    "membership_residual",
    "orthonormality_defect",
    "parity_residual",
    "project_off",
    "relative_distance",
    "solve_kernel",
    "spectral_norm",
    "subspace_basis",
    "support_residual",
]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


def spectral_norm(a) -> float | np.ndarray:
    """Largest singular value (operator norm), 0.0 when empty; for a (..., p, q)
    stack, the array of its matrices' norms from one batched SVD."""
    m = as_complex_matrix(a)
    if m.size == 0:
        norms = np.zeros(m.shape[:-2])
    else:  # descending singular values: the one LAPACK call norm(m, 2) makes
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def relative_distance(a, b) -> float:
    """Frobenius distance with floor 1 in the denominator."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) / scale


def support_residual(p, x) -> float:
    """||p x p - x||_F / max(1, ||x||_F): how far x is from living on range(p)."""
    return frobenius_norm(p @ x @ p - x) / max(1.0, frobenius_norm(x))


def parity_residual(g, x, odd: bool) -> float:
    """||g x g + x||_F (odd) or ||g x g - x||_F (even), over max(1, ||x||_F)."""
    gxg = g @ x @ g
    return frobenius_norm(gxg + x if odd else gxg - x) / max(1.0, frobenius_norm(x))


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: first nonzero component made real positive.
    mags = np.abs(v)
    peak = mags.max()
    if peak == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-8 * peak))
    phase = v[idx] / abs(v[idx])
    return v * np.conj(phase)


def _kept_rank(s: np.ndarray, rank_tol: float) -> int:
    """Number of singular values (descending) above rank_tol * sigma_max."""
    return int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0.0 else 0


def subspace_basis(mats, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Frobenius-orthonormal basis of the span of a (k, ...) stack ``mats``.

    Vectorizes the matrices row-major, takes a singular value decomposition,
    and keeps the right-singular directions with sigma > rank_tol * sigma_max.
    Returns a (rank, ...) stack of the input's matrix shape, possibly with
    rank 0, pairwise orthonormal for trace(a^* b).
    """
    mats = as_complex_matrix(mats)
    if not len(mats):
        return mats
    _, s, vh = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    rank = _kept_rank(s, rank_tol)
    rows = np.array([_normalize_phase(v) for v in vh[:rank]], dtype=complex)
    return rows.reshape(rank, *mats.shape[1:])


def project_off(a, basis: Sequence[np.ndarray]) -> np.ndarray:
    """``a`` minus its Frobenius projection onto span(basis).

    ``basis`` must be Frobenius-orthonormal (as produced by subspace_basis).
    """
    a = as_complex_matrix(a)
    r = a.copy()
    for b in basis:
        if np.shape(b) != a.shape:
            raise ValueError(f"shape mismatch in project_off: {np.shape(b)} vs {a.shape}")
        r -= complex(np.vdot(np.asarray(b, dtype=complex), a)) * np.asarray(b)
    return r


def membership_residual(a, basis: Sequence[np.ndarray]) -> float:
    """Distance of ``a`` from span(basis), normalized by max(1, ||a||_F).

    ``basis`` must be Frobenius-orthonormal (as produced by subspace_basis).
    """
    return frobenius_norm(project_off(a, basis)) / max(1.0, frobenius_norm(a))


def orthonormality_defect(basis: Sequence[np.ndarray]) -> float:
    """Largest entry of |Gram(basis) - 1| for the Frobenius inner product (NaN if any is)."""
    return float(np.max([abs(np.vdot(b1, b2) - (1.0 if i == j else 0.0))
                         for i, b1 in enumerate(basis) for j, b2 in enumerate(basis)],
                        initial=0.0))


def solve_kernel(L, rank_tol: float = DEFAULT_RANK_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of the matrix ``L``.

    ``L`` is the matrix of a linear map between coefficient spaces; the
    kernel is cut at the threshold rank_tol * sigma_max.
    """
    L = as_complex_matrix(L)
    if L.ndim != 2:
        raise ValueError("solve_kernel expects a 2-d matrix")
    q = L.shape[1]
    if q == 0:
        return []
    if L.shape[0] == 0:
        return [np.eye(q, dtype=complex)[k] for k in range(q)]
    # A tall L gives the full q x q vh without full_matrices; a wide L needs it.
    _, s, vh = np.linalg.svd(L, full_matrices=L.shape[0] < q)
    # Null vectors are columns of V, i.e. conjugated rows of vh.
    return [_normalize_phase(np.conj(vh[k])) for k in range(_kept_rank(s, rank_tol), q)]
