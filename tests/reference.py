"""The dense textbook calculus that the library's fast paths are tested against.

Every differential test takes its reference from here: np.kron lifts, the
d^2 matmuls of the pair stack, full-SVD kernels, least-squares structure
tables, the dense junk projection, the eager curvature report and the
per-entry draw loops that the array draws replaced.  None of it is fast, and
the library imports none of it.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ncgcurv import ProjectiveModule, SpectralTriple, generate
from ncgcurv.fgpmod import symmetrized_entries
from ncgcurv.forms import UniversalOneForm, _universal_tables, junk_space, kernel_one_forms
from ncgcurv.generate import unit_disc
from ncgcurv.glinalg import (anticommutator, commutator, frobenius_norm, relative_distance,
                             spectral_norm)

ORACLES = Path(__file__).resolve().parents[1] / "oracles"


def run_oracle(name: str) -> dict:
    """Run one of the shipped brute-force oracle scripts and parse its JSON."""
    out = subprocess.run([sys.executable, str(ORACLES / name)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def pair_stack(st_, right):
    """(..., d, d, n, n) stack of b_p r_q from d^2 matmuls, on any basis."""
    return st_.basis[:, None] @ right[..., None, :, :, :]


def loop_commutators(st_, x):
    """The 2d matmuls [x, b_k], one per basis element."""
    return np.stack([x @ b - b @ x for b in st_.basis])


def lstsq_tables(st_):
    """T and S from the least-squares solve that a basis without points takes."""
    d, n = st_.d, st_.n
    products = st_.coords(st_.pair_products(st_.basis).reshape(-1, n, n))
    return products.reshape(d, d, d), st_.coords(st_.basis.conj().transpose(0, 2, 1)).T


def delta_basis(st_) -> list[UniversalOneForm]:
    """The delta basis b_i delta(b_j), j >= 1, of ker(m) as forms; not orthonormal."""
    return [UniversalOneForm(st_, t) for t in _universal_tables(st_)]


def full_svd_kernel(st_, rank_tol=1e-9) -> np.ndarray:
    """Rows spanning ker(m) intersect ker(pi_d), from the full SVD of its 2n^2 x d^2
    map: column (i, j) stacks vec(b_i b_j) over vec(b_i [D, b_j]).  Rows are
    flattened d x d coefficient tables."""
    pairs = pair_stack(st_, np.stack([st_.basis, st_.dirac_commutators]))
    return _full_svd_null_rows(pairs.transpose(1, 2, 0, 3, 4).reshape(st_.d ** 2, -1).T, rank_tol)


def svd_universal_form_basis(st_, rank_tol=1e-9) -> np.ndarray:
    """Rows spanning ker(m), from the full SVD of the n^2 x d^2 matrix of m."""
    return _full_svd_null_rows(pair_stack(st_, st_.basis).reshape(st_.d ** 2, -1).T, rank_tol)


def _full_svd_null_rows(L: np.ndarray, rank_tol: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(L, full_matrices=True)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0.0 else 0
    return vh[rank:].conj()


def form_tables(forms, d: int) -> np.ndarray:
    """(k, d^2) array of the flattened coefficient tables of k universal forms."""
    return np.reshape([w.coeffs for w in forms], (len(forms), d * d))


def span_projector(rows) -> np.ndarray:
    """Orthogonal projector onto the span of the k flattened rows of a (k, ...)
    array, orthonormalised by a QR first."""
    a = np.asarray(rows)
    q, _ = np.linalg.qr(a.reshape(len(a), int(np.prod(a.shape[1:]))).T)
    return q @ q.conj().T


def span_gap(rows, reference) -> float:
    """Spectral norm of the difference of the projectors onto two row spans."""
    return float(np.linalg.norm(span_projector(rows) - span_projector(reference), 2))


def even_unitary(rng, gamma: np.ndarray) -> np.ndarray:
    """Random unitary commuting with the grading: exp(iH) for an even Hermitian H."""
    n = len(gamma)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    h = h + gamma @ h @ gamma
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def conjugated(st_: SpectralTriple, u: np.ndarray) -> SpectralTriple:
    """U st U*: the same grading, basis and Dirac conjugated by an even unitary U;
    basis[0] is the identity only up to rounding, so junk_space takes its SVD route."""
    return SpectralTriple(st_.gamma, u @ st_.basis @ u.conj().T, u @ st_.dirac @ u.conj().T)


def unitary_twin(module, a, rng):
    """U (gamma, basis, D) U* for a random unitary U, with the same tables, and
    U: no longer diagonal, so the range isometry comes from eigh(P)."""
    n = module.triple.n
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    st_ = module.triple
    st_u = SpectralTriple(*(u @ x @ u.conj().T for x in (st_.gamma, st_.basis, st_.dirac)))
    module_u = ProjectiveModule(st_u, module.p, module.signs)
    return module_u, None if a is None else replace(a, module=module_u), u


def rebased_twin(module, a, mat):
    """The same triple, module and form over the algebra basis b' = M b.

    M is real and invertible with first row e_0, so b'_0 = 1; over a diagonal
    basis b' is diagonal but not 0/1.  Tables follow the basis: p -> p M^-1
    and c -> M^-T c M^-1."""
    st_, inv = module.triple, np.linalg.inv(mat)
    st_b = SpectralTriple(st_.gamma, np.einsum("jk,kab->jab", mat, st_.basis), st_.dirac)
    module_b = ProjectiveModule(st_b, module.p @ inv, module.signs)
    return module_b, None if a is None else replace(a, module=module_b,
                                                    entries=inv.T @ a.entries @ inv)


def kron_lifts(module):
    """Gamma (x) 1, Gamma (x) D and 1 (x) D on C^m (x) C^n, as np.kron products."""
    st_, signs = module.triple, np.diag(module.signs)
    return (np.kron(signs, np.eye(st_.n)), np.kron(signs, st_.dirac),
            np.kron(np.eye(module.m), st_.dirac))


def kron_projector_even(module) -> float:
    """||G P G - P||_F / max(1, ||P||_F) for G = Gamma (x) 1."""
    G, P = kron_lifts(module)[0], module.projector
    return relative_distance(G @ P @ G, P)


def kron_hermitian_residual(module, a=None) -> float:
    """G P W - G W* P - [1 (x) D, P] with W = [Gamma (x) D, P] + A_D from the
    lifts, and the largest spectral norm of its m^2 blocks, one at a time."""
    G, dt, e = kron_lifts(module)
    P, m, n = module.projector, module.m, module.triple.n
    W = commutator(dt, P)
    if a is not None:
        W = W + a.represented()[0]
    res = (G @ P @ W - G @ W.conj().T @ P - commutator(e, P)).reshape(m, n, m, n)
    return max(spectral_norm(res[i, :, j, :]) for i in range(m) for j in range(m))


def symmetrized(a):
    """A connection form averaged with its pairing adjoint, marked Hermitian."""
    return replace(a, entries=symmetrized_entries(a.module, a.entries), hermitian=True)


def tensordot_reference(a):
    """(A_D, A_D2) and the ker(m) defect through the d^2 pair stack, contracted
    by np.tensordot: the route every basis took before the point kernel."""
    st_, m, n = a.module.triple, a.module.m, a.module.triple.n
    pairs = pair_stack(st_, np.stack([st_.dirac_commutators, st_.dirac_sq_commutators]))
    blocks = np.tensordot(a.entries, pairs, axes=([2, 3], [1, 2]))
    represented = blocks.transpose(2, 0, 3, 1, 4).reshape(2, m * n, m * n)
    prods = np.tensordot(a.entries, pair_stack(st_, st_.basis), axes=2)
    return represented, float(np.linalg.norm(prods.reshape(m * m, -1), axis=1).max(initial=0.0))


def lifted_svd_canonical(r, module, junk, rank_tol=1e-9):
    """R minus its projection onto an SVD basis of the lifts P (E_kl (x) J) P,
    as the junk quotient was once computed."""
    P, m = module.projector, module.m
    lifts = []
    for k in range(m):
        for l in range(m):
            e_kl = np.zeros((m, m))
            e_kl[k, l] = 1.0
            lifts += [(P @ np.kron(e_kl, j) @ P).ravel() for j in junk.basis]
    _, s, vh = np.linalg.svd(np.stack(lifts), full_matrices=False)
    vh = vh[:int(np.sum(s > rank_tol * s[0]))]
    return r - (vh.T @ (vh.conj() @ r.ravel())).reshape(r.shape)


def dense_junk_projection(x, module, junk):
    """proj_L(P x P), with P x P formed from the assembled projector."""
    P, m, n = module.projector, module.m, module.triple.n
    blocks = (P @ x @ P).reshape(m, n, m, n)
    coeffs = np.einsum("qab,iajb->ijq", junk.basis.conj(), blocks)
    return np.einsum("ijq,qab->iajb", coeffs, junk.basis).reshape(module.dim, module.dim)


def hermitian(a) -> bool:
    """Whether the product operator of ``a`` is self-adjoint, so has a spectrum."""
    return a is None or a.hermitian


def eager_reference(module, a, junk=None):
    """Every curvature quantity from dense mn x mn operators: np.kron lifts,
    P X P compressions, the formula route as P[Dt,P][Dt,P]P + ..., and the
    spectrum on the eigenvectors of P above 1/2."""
    st_ = module.triple
    P = module.projector
    dt = kron_lifts(module)[1]
    raw, raw2 = (np.zeros_like(P),) * 2 if a is None else a.represented()[:2]
    a_d, a_d2 = P @ raw @ P, P @ raw2 @ P
    m_op = P @ dt @ P + a_d
    n_op = P @ np.kron(np.eye(module.m), st_.dirac_sq) @ P + a_d2
    r = m_op @ m_op - n_op
    dp = commutator(dt, P)
    formula = P @ dp @ dp @ P + a_d @ a_d + P @ anticommutator(dt, a_d) @ P - a_d2
    vals, vecs = np.linalg.eigh(P)
    cols = vecs[:, vals > 0.5]
    junk = junk_space(st_) if junk is None else junk
    return {
        "R": r,
        "formula": formula,
        "route_residual": frobenius_norm(r - formula) / max(1.0, frobenius_norm(r)),
        "symmetry_residual": relative_distance(r, r.conj().T),
        "m_op": m_op,
        "n_op": n_op,
        "norm": spectral_norm(r),
        "junk_canonical": r - dense_junk_projection(r, module, junk),
    } | ({"spectrum": np.linalg.eigvalsh(cols.conj().T @ m_op @ cols)} if hermitian(a) else {})


def loop_random_triple(rng, n=None, d=None, kind=None):
    """The generate draws with one unit_disc call per position, one sum term per form."""
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
        return SpectralTriple(gamma, generate._amplified_m2_basis(), dirac)
    if d is None:
        d = int(rng.integers(1, min(4, n) + 1))
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=d - 1, replace=False)) if d > 1 else []
    basis = np.zeros((d, n, n), dtype=complex)
    basis[0] = np.eye(n)
    for k, g in enumerate(np.split(perm, cuts)[1:], start=1):
        basis[k, g, g] = 1.0
    return SpectralTriple(gamma, basis, dirac)


def loop_random_module(rng, st, m=None, allow_free=True):
    if m is None:
        m = int(rng.integers(1, 5))
    signs = generate._random_signs(rng, m)
    if allow_free and rng.random() < 0.2:
        return ProjectiveModule(st, generate._free_table(m, st.d), signs)
    d = st.d
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
        p = generate._dense_cut(st, table)
        if p is not None:
            return ProjectiveModule(st, p, signs)
    return ProjectiveModule(st, generate._free_table(m, st.d), signs)


def dense_compress(module, entries):
    """P . C . P through the structure constants T, as two einsums."""
    p, T = module.p, module.triple.mult_tensor
    right = np.einsum("klrq,ljm,qms->kjrs", entries, p, T)
    return np.einsum("ikl,lqr,kjqs->ijrs", p, T, right)


def loop_universal_form(rng, st):
    basis = delta_basis(st)
    weights = unit_disc(rng, (len(basis),))
    return sum((w * f.coeffs for w, f in zip(weights, basis)),
               np.zeros((st.d, st.d), dtype=complex))


def loop_table_over(rng, module, form_basis):
    m, d = module.m, module.triple.d
    entries = np.zeros((m, m, d, d), dtype=complex)
    for i, j in zip(*np.nonzero(module.even_mask)):
        weights = unit_disc(rng, (len(form_basis),))
        for w, form in zip(weights, form_basis):
            entries[i, j] += w * form.coeffs
    return entries


def loop_connection(rng, module):
    entries = loop_table_over(rng, module, delta_basis(module.triple))
    entries = symmetrized_entries(module, entries)
    return generate._compress_connection(module, entries)


def loop_vertical(rng, module):
    m, d = module.m, module.triple.d
    table = np.zeros((m, m, d), dtype=complex)
    odd = ~module.even_mask
    if odd.any():
        for i, j in zip(*np.nonzero(odd)):
            table[i, j] = unit_disc(rng, (d,))
        table = 0.5 * (table + generate._star_algebra_table(module, table))
        table = generate._compress_algebra_table(module, table)
    return table


def loop_lift_pair(rng, module):
    kernel = kernel_one_forms(module.triple)
    a = loop_connection(rng, module)
    if not kernel:
        return a, a
    return a, a + generate._compress_connection(module, loop_table_over(rng, module, kernel))
