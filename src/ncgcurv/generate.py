"""Seeded random scenario generation for the property-test harness.

All draws come from one ``numpy.random.Generator`` (PCG64) seeded once, so a
scenario stream is fully reproducible from its seed.  Each table comes from
one array draw: ``rng.uniform(0, 1, (P, 2, k))`` holds, bit for bit, the radii
and angles of P successive ``unit_disc(rng, (k,))`` calls, in the stream's
order, so the draws are those of one call per position.  The documented
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

Over ``SpectralTriple.points`` the steps take closed forms, drawing what the
general code draws: :func:`_point_cut`, :func:`_delta_combinations`,
:func:`ncgcurv.fgpmod.pairing_adjoint_entries` and :func:`_compress_connection`.
"""

from __future__ import annotations

import numpy as np

from .curvature import VerticalOperator
from .fgpmod import ConnectionForm, ProjectiveModule, symmetrized_entries
from .forms import UniversalOneForm, _universal_tables, kernel_one_forms
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


def _unit_disc_rows(rng: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """(rows, k) array whose row p is, bit for bit, the p-th of ``rows``
    successive ``unit_disc(rng, (k,))`` draws, from one draw of the stream."""
    u = rng.uniform(0.0, 1.0, (rows, 2, k))  # per row: k radii, then k angles
    return np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))


def _weighted_tables(weights: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """(rows, d, d) sums of weights[p, k] * tables[k], accumulated k by k over
    all rows at once: the rounding of one sum per row, form by form."""
    out = np.zeros((len(weights), *tables.shape[1:]), dtype=complex)
    for w, table in zip(weights.T, tables):
        out += w[:, None, None] * table
    return out


def _diag_projection_basis(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=d - 1, replace=False)) if d > 1 else []
    group = np.empty(n, dtype=int)  # slot perm[t] joins the group counted by the cuts <= t
    group[perm] = np.searchsorted(cuts, np.arange(n), side="right")
    basis = np.zeros((d, n, n), dtype=complex)
    basis[0] = np.eye(n)
    slots = np.flatnonzero(group)
    basis[group[slots], slots, slots] = 1.0
    return basis


def _amplified_m2_basis() -> np.ndarray:
    units = np.zeros((4, 2, 2), dtype=complex)
    units[0] = np.eye(2)
    units[1, 0, 0] = units[2, 0, 1] = units[3, 1, 0] = 1.0  # E11, E12, E21
    return np.kron(np.eye(2), units)  # 1 (x) unit, one 4x4 matrix per unit


_AMP2_BASIS = _amplified_m2_basis()  # each amp2 triple takes a copy


def random_triple(rng: np.random.Generator, n: int | None = None,
                  d: int | None = None, kind: str | None = None) -> SpectralTriple:
    """Random finite spectral triple; see the module docstring for the law.

    Raises ValueError, before any draw once n is known, for an unknown kind
    or a d that the kind cannot have: 1 <= d <= n for ``diag``, d = 4 (or
    None) for ``amp2``.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    if kind not in (None, "diag", "amp2"):
        raise ValueError(f"unknown triple kind {kind!r}")
    if kind == "amp2":
        if n != 4:
            raise ValueError("the amplified 2x2 algebra requires n = 4")
        if d not in (None, 4):
            raise ValueError(f"the amplified 2x2 algebra has d = 4, got d = {d}")
    elif d is not None and not 1 <= d <= n:
        raise ValueError(f"a diagonal projection algebra needs 1 <= d <= n = {n}, got d = {d}")
    n_plus = (n + 1) // 2
    gamma = np.diag(np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)]))
    w = unit_disc(rng, (n_plus, n - n_plus))
    dirac = np.zeros((n, n), dtype=complex)
    dirac[:n_plus, n_plus:] = w
    dirac[n_plus:, :n_plus] = w.conj().T

    if kind is None:
        kind = "amp2" if (n == 4 and d in (None, 4) and rng.random() < 0.3) else "diag"
    if kind == "amp2":
        basis = _AMP2_BASIS.copy()
    else:
        if d is None:
            d = int(rng.integers(1, min(4, n) + 1))
        basis = _diag_projection_basis(rng, n, d)
    return SpectralTriple(gamma, basis, dirac)


def _random_signs(rng: np.random.Generator, m: int) -> np.ndarray:
    signs = 1.0 - 2.0 * rng.integers(0, 2, m)  # the draw of rng.choice([1.0, -1.0], m)
    if m >= 2 and np.all(signs == signs[0]) and rng.random() < 0.8:
        signs[int(rng.integers(0, m))] *= -1.0
    return signs


def _free_table(m: int, d: int) -> np.ndarray:
    p = np.zeros((m, m, d), dtype=complex)
    p[np.arange(m), np.arange(m), 0] = 1.0
    return p


def _dense_cut(st: SpectralTriple, table: np.ndarray) -> np.ndarray | None:
    """Table of the spectral cut of the assembled mn x mn h, or None."""
    m, n, d = len(table), st.n, st.d
    blocks = np.einsum("ijk,kab->iajb", table, st.basis)
    h = blocks.reshape(m * n, m * n)
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    gaps = np.diff(vals)
    if gaps.size == 0 or gaps.max() < 1e-5:
        return None
    cut = int(np.argmax(gaps)) + 1
    cols = vecs[:, cut:]
    proj = cols @ cols.conj().T
    blocks = proj.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n, n)
    try:
        return st.coords(blocks, tol=1e-7).reshape(m, m, d)
    except NotInAlgebraError:
        return None


def _point_cut(table: np.ndarray) -> np.ndarray | None:
    """The dense cut over points, one m x m block per point, or None.

    Point q holds h_q = table[..., 0] + table[..., q] (q >= 1), and h is the
    direct sum of these blocks, each repeated once per slot of its point: the
    repeats only add zero gaps, so the largest gap of the pooled point
    eigenvalues is the dense one.  The table reads p[..., 0] = P_0 and
    p[..., q] = P_q - P_0 from the point projections P_q.
    """
    h = table.transpose(2, 0, 1).copy()
    h[1:] += h[0]
    h = 0.5 * (h + h.conj().transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(h)
    pooled = np.sort(vals, axis=None)
    gaps = np.diff(pooled)
    if gaps.size == 0 or gaps.max() < 1e-5:
        return None
    kept = vecs * (vals >= pooled[int(np.argmax(gaps)) + 1])[:, None, :]
    proj = kept @ kept.conj().transpose(0, 2, 1)
    proj[1:] -= proj[0]
    return proj.transpose(1, 2, 0)


def random_module(rng: np.random.Generator, st: SpectralTriple,
                  m: int | None = None, allow_free: bool = True) -> ProjectiveModule:
    """Random projective module: spectral-cut projection in M_m(algebra),
    per point block over :attr:`SpectralTriple.points` (:func:`_point_cut`)."""
    if m is None:
        m = int(rng.integers(1, 5))
    signs = _random_signs(rng, m)
    if allow_free and rng.random() < 0.2:
        return ProjectiveModule(st, _free_table(m, st.d), signs)

    d = st.d
    k = np.arange(m)
    i, j = np.nonzero((np.outer(signs, signs) > 0) & (k[:, None] <= k))  # even, i <= j, row-major
    for _ in range(8):
        c = _unit_disc_rows(rng, len(i), d)
        table = np.zeros((m, m, d), dtype=complex)
        table[i, j] = c
        # star_coords of each row: a stack of matrix-vector products keeps
        # their bits, where one matrix-matrix product rounds differently
        table[j, i] += (st.star_matrix @ np.conj(c)[:, :, None])[:, :, 0]
        table[k, k] *= 0.5  # the diagonal is the average of c and its star
        p = _point_cut(table) if st.points is not None else _dense_cut(st, table)
        if p is not None:
            return ProjectiveModule(st, p, signs)
    return ProjectiveModule(st, _free_table(m, st.d), signs)


def _delta_combinations(rng: np.random.Generator, st: SpectralTriple,
                        rows: int) -> np.ndarray:
    """(rows, d, d) unit-disc combinations of the delta basis b_i delta(b_j),
    j >= 1, of ker(m), from one (rows, d(d-1)) draw of weights w.

    Over :attr:`SpectralTriple.points` the table of b_i delta(b_j) is e_ij,
    minus e_j0 when i = 0 or i = j (b_0 b_j = b_j b_j = b_j), so the sums are
    out[..., 1:] = w and out[:, j, 0] = -(w[0, j] + w[j, j]): the bits of the
    k-step :func:`_weighted_tables`, whose other terms are exact zeros.
    """
    if st.points is None:
        tables = _universal_tables(st)
        return _weighted_tables(_unit_disc_rows(rng, rows, len(tables)), tables)
    d = st.d
    w = _unit_disc_rows(rng, rows, d * (d - 1)).reshape(rows, d, d - 1)
    out = np.zeros((rows, d, d), dtype=complex)
    out[:, :, 1:] = w
    q = np.arange(1, d)
    out[:, q, 0] = -(w[:, 0, q - 1] + w[:, q, q - 1])
    return out


def random_universal_form(rng: np.random.Generator, st: SpectralTriple) -> UniversalOneForm:
    """Random element of ker(m): unit-disc weights on its basis b_i delta(b_j)."""
    return UniversalOneForm(st, _delta_combinations(rng, st, 1)[0])


def _random_table_over(rng: np.random.Generator, module: ProjectiveModule,
                       tables: np.ndarray | None = None) -> np.ndarray:
    """Unit-disc combinations of the (k, d, d) form tables (the delta basis when
    None) on the grading-even positions, drawn in row-major order."""
    m, d = module.m, module.triple.d
    i, j = np.nonzero(module.even_mask)
    entries = np.zeros((m, m, d, d), dtype=complex)
    entries[i, j] = (_delta_combinations(rng, module.triple, len(i)) if tables is None
                     else _weighted_tables(_unit_disc_rows(rng, len(i), len(tables)), tables))
    return entries


def _compress_connection(module: ProjectiveModule, entries: np.ndarray) -> np.ndarray:
    """P . C . P at the universal level: generated connection tables are compressed.

    Over points T is symmetric and Y[l, j, q, s] = sum_m p[l, j, m] T[q, m, s]
    is closed form: Y[..., 0, s] = p[..., s] and Y[..., q, s] = delta_qs
    (p[..., 0] + p[..., q]) for q >= 1, and both sides contract with Y.
    """
    p = module.p
    if module.triple.points is not None:
        q = np.arange(1, module.triple.d)
        Y = np.zeros(p.shape + p.shape[-1:], dtype=complex)
        Y[..., 0, :] = p
        Y[..., q, q] = p[..., :1] + p[..., 1:]
        right = np.einsum("klrq,ljqs->kjrs", entries, Y)
        return np.einsum("ikqr,kjqs->ijrs", Y, right)
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
    entries = _random_table_over(rng, module)
    if hermitian:
        entries = symmetrized_entries(module, entries)
    return ConnectionForm(module, _compress_connection(module, entries), hermitian)


def random_vertical(rng: np.random.Generator, module: ProjectiveModule) -> VerticalOperator:
    """Random vertical operator: odd self-adjoint compressed algebra table."""
    m, d = module.m, module.triple.d
    table = np.zeros((m, m, d), dtype=complex)
    i, j = np.nonzero(~module.even_mask)
    if len(i):
        table[i, j] = _unit_disc_rows(rng, len(i), d)
        table = 0.5 * (table + _star_algebra_table(module, table))
        table = _compress_algebra_table(module, table)
    return VerticalOperator(module, table)


def junk_lift_pair(rng: np.random.Generator, module: ProjectiveModule,
                   kernel: list[UniversalOneForm] | None = None
                   ) -> tuple[ConnectionForm, ConnectionForm]:
    """A random Hermitian connection and a second universal lift of it.

    The second lift differs by a compressed combination of forms in
    ker(m) intersect ker(pi_d), whose pi_d2 image is junk.  If that kernel is
    empty the pair is ``(a, a)``, which checks nothing: draw another triple.
    ``kernel`` is ``kernel_one_forms(module.triple)`` when a caller already
    holds it; otherwise it is computed here.
    """
    if kernel is None:
        kernel = kernel_one_forms(module.triple)
    a = random_connection(rng, module, hermitian=True)
    if not kernel:
        return a, a
    tables = np.array([w.coeffs for w in kernel])
    bump = _compress_connection(module, _random_table_over(rng, module, tables))
    return a, ConnectionForm(module, a.entries + bump)
