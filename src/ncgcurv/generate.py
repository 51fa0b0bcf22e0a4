"""Seeded random scenario generation for the property-test harness.

All draws come from one ``numpy.random.Generator`` (PCG64) seeded once, so a
scenario stream is fully reproducible from its seed.  The documented
distribution:

  * Hilbert dimension n uniform in {2..6}; grading diag(+1 ... , -1 ...) with
    an even split (ceil(n/2) plus signs).
  * Dirac matrix: off-diagonal block W with entries uniform in the complex
    unit disc, assembled to the self-adjoint odd matrix [[0, W], [W*, 0]].
  * Algebra: the span of the identity and d-1 diagonal projections over a
    random partition of the n diagonal slots (d uniform in 1..min(4, n));
    when n = 4, with probability 0.3 the amplified 2x2 matrix algebra
    acting diagonally (d = 4).
  * Module: m uniform in 1..4, generator signs uniform (re-rolled so both
    signs appear when m >= 2, with probability 0.8); the projection is a
    spectral cut of a random self-adjoint element of M_m(A) at its largest
    interior eigenvalue gap, or the free module with probability 0.2.
  * Connection tables: unit-disc combinations of the delta basis
    b_i delta(b_j), j >= 1, of ker(m) (not orthonormal) on the grading-even
    positions, pairing-symmetrized when Hermitian is requested, then
    compressed by the projection.
  * Vertical operators: grading-odd algebra tables, symmetrized and
    compressed.
"""

from __future__ import annotations

import numpy as np

from .curvature import VerticalOperator
from .fgpmod import ConnectionForm, ProjectiveModule, symmetrize_connection
from .forms import UniversalOneForm, kernel_one_forms, universal_form_basis
from .triple import NotInAlgebraError, SpectralTriple

__all__ = [
    "junk_lift_pair",
    "random_connection",
    "random_module",
    "random_triple",
    "random_universal_form",
    "random_vertical",
    "rng_for",
    "unit_disc",
]


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def unit_disc(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries uniform in the complex unit disc."""
    r = np.sqrt(rng.uniform(0.0, 1.0, shape))
    theta = rng.uniform(0.0, 2.0 * np.pi, shape)
    return r * np.exp(1j * theta)


def _diag_projection_basis(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=d - 1, replace=False)) if d > 1 else []
    basis = np.zeros((d, n, n), dtype=complex)
    basis[0] = np.eye(n)
    for k, g in enumerate(np.split(perm, cuts)[1:], start=1):
        basis[k, g, g] = 1.0
    return basis


def _amplified_m2_basis() -> np.ndarray:
    units = np.zeros((4, 2, 2), dtype=complex)
    units[0] = np.eye(2)
    units[1, 0, 0] = units[2, 0, 1] = units[3, 1, 0] = 1.0  # E11, E12, E21
    return np.kron(np.eye(2), units)  # 1 (x) unit, one 4x4 matrix per unit


def random_triple(rng: np.random.Generator, n: int | None = None,
                  d: int | None = None, kind: str | None = None) -> SpectralTriple:
    """Random finite spectral triple; see the module docstring for the law."""
    if n is None:
        n = int(rng.integers(2, 7))
    n_plus = (n + 1) // 2
    gamma = np.diag(np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)]))
    w = unit_disc(rng, (n_plus, n - n_plus))
    dirac = np.zeros((n, n), dtype=complex)
    dirac[:n_plus, n_plus:] = w
    dirac[n_plus:, :n_plus] = w.conj().T

    if kind is None:
        kind = "amp2" if (n == 4 and d in (None, 4) and rng.random() < 0.3) else "diag"
    if kind == "amp2":
        if n != 4:
            raise ValueError("the amplified 2x2 algebra requires n = 4")
        basis = _amplified_m2_basis()
    elif kind == "diag":
        if d is None:
            d = int(rng.integers(1, min(4, n) + 1))
        basis = _diag_projection_basis(rng, n, d)
    else:
        raise ValueError(f"unknown triple kind {kind!r}")
    return SpectralTriple(gamma, basis, dirac)


def _random_signs(rng: np.random.Generator, m: int) -> np.ndarray:
    signs = rng.choice([1.0, -1.0], size=m)
    if m >= 2 and np.all(signs == signs[0]) and rng.random() < 0.8:
        signs[int(rng.integers(0, m))] *= -1.0
    return signs


def _free_table(m: int, d: int) -> np.ndarray:
    p = np.zeros((m, m, d), dtype=complex)
    p[np.arange(m), np.arange(m), 0] = 1.0
    return p


def random_module(rng: np.random.Generator, st: SpectralTriple,
                  m: int | None = None, allow_free: bool = True) -> ProjectiveModule:
    """Random projective module: spectral-cut projection in M_m(algebra)."""
    if m is None:
        m = int(rng.integers(1, 5))
    signs = _random_signs(rng, m)
    if allow_free and rng.random() < 0.2:
        return ProjectiveModule(st, _free_table(m, st.d), signs)

    n, d = st.n, st.d
    even = np.outer(signs, signs) > 0
    for _ in range(8):
        table = np.zeros((m, m, d), dtype=complex)
        for i in range(m):
            for j in range(i, m):
                if not even[i, j]:
                    continue
                c = unit_disc(rng, (d,))
                if i == j:
                    table[i, i] = 0.5 * (c + st.star_coords(c))
                else:
                    table[i, j] = c
                    table[j, i] = st.star_coords(c)
        blocks = np.einsum("ijk,kab->iajb", table, st.basis)
        h = blocks.reshape(m * n, m * n)
        h = 0.5 * (h + h.conj().T)
        vals, vecs = np.linalg.eigh(h)
        gaps = np.diff(vals)
        if gaps.size == 0 or gaps.max() < 1e-5:
            continue
        cut = int(np.argmax(gaps)) + 1
        cols = vecs[:, cut:]
        proj = cols @ cols.conj().T
        blocks = proj.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n, n)
        try:
            p = st.coords(blocks, tol=1e-7).reshape(m, m, d)
        except NotInAlgebraError:
            continue
        return ProjectiveModule(st, p, signs)
    return ProjectiveModule(st, _free_table(m, st.d), signs)


def random_universal_form(rng: np.random.Generator, st: SpectralTriple) -> UniversalOneForm:
    """Random element of ker(m): unit-disc weights on its basis b_i delta(b_j)."""
    basis = universal_form_basis(st)
    weights = unit_disc(rng, (len(basis),))
    return UniversalOneForm(st, sum((w * f.coeffs for w, f in zip(weights, basis)),
                                    np.zeros((st.d, st.d), dtype=complex)))


def _random_table_over(rng: np.random.Generator, module: ProjectiveModule,
                       form_basis: list[UniversalOneForm]) -> np.ndarray:
    m, d = module.m, module.triple.d
    entries = np.zeros((m, m, d, d), dtype=complex)
    for i, j in zip(*np.nonzero(module.even_mask)):  # row-major draw order
        weights = unit_disc(rng, (len(form_basis),))
        for w, form in zip(weights, form_basis):
            entries[i, j] += w * form.coeffs
    return entries


def _compress_connection(module: ProjectiveModule, entries: np.ndarray) -> np.ndarray:
    """P . C . P at the universal level: generated connection tables are compressed."""
    p = module.p
    T = module.triple.mult_tensor
    right = np.einsum("klrq,ljm,qms->kjrs", entries, p, T)
    return np.einsum("ikl,lqr,kjqs->ijrs", p, T, right)


def _compress_algebra_table(module: ProjectiveModule, table: np.ndarray) -> np.ndarray:
    """Coordinates of P . table . P for an (m, m, d) algebra table."""
    T = module.triple.mult_tensor
    right = np.einsum("kla,ljb,abc->kjc", table, module.p, T)
    return np.einsum("ika,kjb,abc->ijc", module.p, right, T)


def _star_algebra_table(module: ProjectiveModule, table: np.ndarray) -> np.ndarray:
    """Blockwise adjoint of an (m, m, d) algebra table (star + transpose)."""
    return np.einsum("jia,ba->ijb", np.conj(table), module.triple.star_matrix)


def random_connection(rng: np.random.Generator, module: ProjectiveModule,
                      hermitian: bool = True) -> ConnectionForm:
    """Random connection form, grading-even, ker(m)-valued, compressed by P."""
    entries = _random_table_over(rng, module, universal_form_basis(module.triple))
    if hermitian:
        entries = symmetrize_connection(ConnectionForm(module, entries)).entries
    return ConnectionForm(module, _compress_connection(module, entries), hermitian)


def random_vertical(rng: np.random.Generator, module: ProjectiveModule) -> VerticalOperator:
    """Random vertical operator: odd self-adjoint compressed algebra table."""
    m, d = module.m, module.triple.d
    table = np.zeros((m, m, d), dtype=complex)
    odd = ~module.even_mask
    if odd.any():
        for i, j in zip(*np.nonzero(odd)):
            table[i, j] = unit_disc(rng, (d,))
        table = 0.5 * (table + _star_algebra_table(module, table))
        table = _compress_algebra_table(module, table)
    return VerticalOperator(module, table)


def junk_lift_pair(rng: np.random.Generator,
                   module: ProjectiveModule) -> tuple[ConnectionForm, ConnectionForm]:
    """A random Hermitian connection and a second universal lift of it.

    The second lift differs by a compressed combination of forms in
    ker(m) intersect ker(pi_d), whose pi_d2 image is junk.  If that kernel is
    empty the pair is ``(a, a)``, which checks nothing: draw another triple.
    """
    kernel = kernel_one_forms(module.triple)
    a = random_connection(rng, module, hermitian=True)
    if not kernel:
        return a, a
    bump = _compress_connection(module, _random_table_over(rng, module, kernel))
    return a, ConnectionForm(module, a.entries + bump)
