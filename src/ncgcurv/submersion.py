"""Pointwise Riemannian-submersion invariants from frame structure constants.

Input is a single point's bracket table for an orthonormal frame ordered
vertical-first: e_1 .. e_dF span the fibre directions, f_1 .. f_{dM-dF} the
horizontal lifts, with [E_i, E_j] = sum_k c[k, i, j] E_k.  Because the frame
is orthonormal, all frame-derivative terms vanish and the three invariants
are plain contractions of c:

    S[a, b, i]     second fundamental form, symmetric in (a, b)
    k[i]           mean curvature (vertical trace of S)
    Omega[i, j, a] fibration curvature, antisymmetric in (i, j)

Index conventions: a, b run over vertical directions, i, j over horizontal
ones, all 0-based.  Real arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FramePoint",
    "SubmersionInvariants",
    "canned_frame",
    "fibration_curvature",
    "heisenberg_frame",
    "hopf_frame",
    "jacobi_residual",
    "mean_curvature",
    "second_fundamental_form",
    "submersion_invariants",
    "warped_torus_frame",
]

ANTISYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FramePoint:
    """Structure constants of an orthonormal frame split vertical/horizontal."""

    dim_total: int
    dim_fiber: int
    c: np.ndarray  # (dim, dim, dim) real: [E_i, E_j] = sum_k c[k, i, j] E_k

    def __post_init__(self):
        if not 0 < self.dim_fiber < self.dim_total:
            raise ValueError("need 0 < dim_fiber < dim_total")
        c = np.asarray(self.c, dtype=float)
        n = self.dim_total
        if c.shape != (n, n, n):
            raise ValueError(f"c must have shape ({n}, {n}, {n}), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        skew = np.max(np.abs(c + np.swapaxes(c, 1, 2)))
        if skew > ANTISYM_TOL:
            raise ValueError(f"bracket table not antisymmetric (defect {skew:.3e})")
        object.__setattr__(self, "c", c)

    @property
    def dim_horizontal(self) -> int:
        return self.dim_total - self.dim_fiber


def second_fundamental_form(fp: FramePoint) -> np.ndarray:
    """S[a, b, i] = -1/2 (<[f_i, e_a], e_b> + <[f_i, e_b], e_a>).

    The frame-derivative term of the defining formula vanishes for an
    orthonormal frame, leaving the symmetrized vertical bracket components.
    """
    dF = fp.dim_fiber
    # <[f_i, e_a], e_b> = c[b, dF + i, a]
    brack = fp.c[:dF, dF:, :dF]            # (b, i, a)
    brack = np.transpose(brack, (2, 0, 1))  # (a, b, i)
    return -0.5 * (brack + np.transpose(brack, (1, 0, 2)))


def mean_curvature(fp: FramePoint) -> np.ndarray:
    """k[i] = trace over the vertical slots of the second fundamental form."""
    s = second_fundamental_form(fp)
    return np.einsum("aai->i", s)


def fibration_curvature(fp: FramePoint) -> np.ndarray:
    """Omega[i, j, a] = -<[f_i, f_j], e_a>: the vertical bracket of horizontals."""
    dF = fp.dim_fiber
    omega = -fp.c[:dF, dF:, dF:]           # (a, i, j)
    return np.transpose(omega, (1, 2, 0))  # (i, j, a)


@dataclass(frozen=True, eq=False)
class SubmersionInvariants:
    S_pi: np.ndarray
    k: np.ndarray
    Omega: np.ndarray


def submersion_invariants(fp: FramePoint) -> SubmersionInvariants:
    return SubmersionInvariants(
        S_pi=second_fundamental_form(fp),
        k=mean_curvature(fp),
        Omega=fibration_curvature(fp),
    )


def jacobi_residual(fp: FramePoint) -> float:
    """Max cyclic Jacobi contraction; a sanity diagnostic for constant tables."""
    c = fp.c
    # [[E_i, E_j], E_k] picks up sum_m c[m, i, j] c[l, m, k].
    term = np.einsum("mij,lmk->lijk", c, c)
    cyc = term + np.transpose(term, (0, 2, 3, 1)) + np.transpose(term, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc))) if cyc.size else 0.0


# -- canned example frames -------------------------------------------------


def heisenberg_frame() -> FramePoint:
    """Heisenberg group: [f_1, f_2] = e_1, everything else flat."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[0, 2, 1] = -1.0
    return FramePoint(3, 1, c)


def hopf_frame(lam: float = 1.0) -> FramePoint:
    """Berger-sphere frame: su(2) with the vertical direction rescaled by lam.

    With e = X3 / lam vertical and f_1 = X1, f_2 = X2 horizontal:
    [f_1, f_2] = 2 lam e, [e, f_1] = (2/lam) f_2, [f_2, e] = (2/lam) f_1.
    The round case is lam = 1.
    """
    if lam <= 0:
        raise ValueError("hopf frame requires lam > 0")
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 2.0 * lam
    c[0, 2, 1] = -2.0 * lam
    c[2, 0, 1] = 2.0 / lam
    c[2, 1, 0] = -2.0 / lam
    c[1, 2, 0] = 2.0 / lam
    c[1, 0, 2] = -2.0 / lam
    return FramePoint(3, 1, c)


def warped_torus_frame(f: float, fprime: float) -> FramePoint:
    """Warped 2-torus dt^2 + f(t)^2 ds^2 at a point with given f, f'.

    The unit vertical field is e = (1/f) d/ds and the horizontal one
    f_1 = d/dt, so [f_1, e] = -(f'/f) e.
    """
    if f <= 0:
        raise ValueError("warped torus requires f > 0")
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = -fprime / f
    c[0, 0, 1] = fprime / f
    return FramePoint(2, 1, c)


_CANNED: dict[str, Callable[..., FramePoint]] = {
    "heisenberg": heisenberg_frame,
    "hopf": hopf_frame,
    "warped_torus": warped_torus_frame,
}


def canned_frame(name: str, **params) -> FramePoint:
    """Catalog lookup: heisenberg, hopf(lam), warped_torus(f, fprime)."""
    try:
        builder = _CANNED[name]
    except KeyError:
        raise ValueError(f"unknown canned frame {name!r}; "
                         f"available: {sorted(_CANNED)}") from None
    return builder(**params)
