"""Reproducible property suite over seeded random scenarios.

Each runner draws its scenarios from a single PCG64 stream (see
:mod:`ncgcurv.generate` for the documented distribution), evaluates one
identity family, and returns the per-scenario residuals.  ``selftest``
aggregates all families into pass/fail checks at their pinned tolerances.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import generate
from .curvature import (
    correspondence_decomposition_residual,
    curvature_report,
    external_product_defect,
    junk_coset_residual,
)
from .fgpmod import (
    ConnectionForm,
    ProjectiveModule,
    connection_operators,
    hermitian_residual,
)
from .forms import junk_space, kernel_one_forms, one_form_space, two_form_space
from .glinalg import anticommutator, frobenius_norm, orthonormality_defect, spectral_norm
from .triple import Check, SpectralTriple, c1_norm, c2_norm

__all__ = [
    "ajunkie_residuals",
    "correspondence_residuals",
    "curvature_structure_residuals",
    "external_defect_ratios",
    "grassmann_residuals",
    "hermitian_identity_residuals",
    "iter_connection_scenarios",
    "junk_invariance_residuals",
    "junk_membership_residuals",
    "norm_chain_violations",
    "route_equality_residuals",
    "selftest",
]

#: Scenarios drawn per identity family by ``selftest``.
SCENARIOS_PER_FAMILY = 20


def iter_connection_scenarios(seed: int, count: int
                              ) -> Iterator[tuple[SpectralTriple, ProjectiveModule, ConnectionForm]]:
    """Seeded (triple, module, Hermitian connection) scenarios."""
    rng = generate.rng_for(seed)
    for _ in range(count):
        st = generate.random_triple(rng)
        module = generate.random_module(rng, st)
        a = generate.random_connection(rng, module, hermitian=True)
        yield st, module, a


def route_equality_residuals(seed: int, count: int) -> list[float]:
    """Relative defect between the direct and closed-formula curvature routes."""
    out = []
    for _, module, a in iter_connection_scenarios(seed, count):
        report = curvature_report(module, a)
        out.append(report.route_residual)
    return out


def curvature_structure_residuals(seed: int, count: int) -> dict[str, list[float]]:
    """Evenness, support and symmetry residuals of seeded curvature outputs."""
    out = {"even": [], "support": [], "symmetric": []}
    for _, module, a in iter_connection_scenarios(seed, count):
        report = curvature_report(module, a)
        out["even"].append(report.evenness_residual)
        out["support"].append(report.support_residual)
        out["symmetric"].append(report.symmetry_residual)
    return out


def ajunkie_residuals(seed: int, count: int) -> list[float]:
    """Defect of sum c [D,b_i][D,b_j] = [D, pi_d(w)]_+ - pi_d2(w), relative."""
    rng = generate.rng_for(seed)
    out = []
    for _ in range(count):
        st = generate.random_triple(rng)
        omega = generate.random_universal_form(rng, st)
        direct = np.einsum("ij,iab,jbc->ac", omega.coeffs, st.dirac_commutators,
                           st.dirac_commutators)
        other = anticommutator(st.dirac, omega.pi_d()) - omega.pi_d2()
        scale = max(1.0, frobenius_norm(direct))
        out.append(frobenius_norm(direct - other) / scale)
    return out


def junk_invariance_residuals(seed: int, count: int) -> tuple[list[float], list[float]]:
    """(coset membership, canonical-representative difference) over lift pairs.

    Triples are drawn junk-rich (algebra dimension at the cap, or the
    amplified 2x2 algebra), and drawn again while ker(m) intersect ker(pi_d)
    is empty, so that the two lifts genuinely differ.
    """
    rng = generate.rng_for(seed)
    coset, canonical = [], []
    for k in range(count):
        kernel = []
        while not kernel:
            if k % 3 == 2:
                st = generate.random_triple(rng, n=4, kind="amp2")
            else:
                n = int(rng.integers(3, 7))
                st = generate.random_triple(rng, n=n, d=min(4, n), kind="diag")
            kernel = kernel_one_forms(st)  # solved once, then read from the memo
        module = generate.random_module(rng, st)
        a1, a2 = generate.junk_lift_pair(rng, module)
        junk = junk_space(st)
        rep1 = curvature_report(module, a1, junk=junk)
        rep2 = curvature_report(module, a2, junk=junk)
        coset.append(junk_coset_residual(rep1.R, rep2.R, module, junk=junk))
        scale = max(1.0, frobenius_norm(rep1.junk_canonical))
        canonical.append(frobenius_norm(rep1.junk_canonical - rep2.junk_canonical) / scale)
    return coset, canonical


def correspondence_residuals(seed: int, count: int) -> list[float]:
    """Defect of R_(S, nabla) = R + [S, M]_+ over seeded (A, S) pairs."""
    rng = generate.rng_for(seed)
    out = []
    for _ in range(count):
        st = generate.random_triple(rng)
        module = generate.random_module(rng, st)
        a = generate.random_connection(rng, module)
        s = generate.random_vertical(rng, module)
        out.append(correspondence_decomposition_residual(module, a, s))
    return out


def external_defect_ratios(seed: int, count: int) -> list[float]:
    """Defect spectral norm divided by (||D1|| + ||D2||)^2 for triple pairs."""
    rng = generate.rng_for(seed)
    out = []
    for _ in range(count):
        st1 = generate.random_triple(rng)
        st2 = generate.random_triple(rng)
        defect = spectral_norm(external_product_defect(st1, st2))
        bound = (spectral_norm(st1.dirac) + spectral_norm(st2.dirac)) ** 2
        out.append(defect / max(bound, 1e-300))
    return out


def grassmann_residuals(seed: int, count: int) -> tuple[list[float], list[float]]:
    """(symmetry, grading-anticommutation) of seeded product operators.

    Half the scenarios use the bare Grassmann operator, half add a Hermitian
    connection form.
    """
    rng = generate.rng_for(seed)
    sym, odd = [], []
    for k in range(count):
        st = generate.random_triple(rng)
        module = generate.random_module(rng, st)
        a = None if k % 2 == 0 else generate.random_connection(rng, module, hermitian=True)
        m_op = connection_operators(module, a).m_op
        g = module.grading
        sym.append(frobenius_norm(m_op - m_op.conj().T))
        odd.append(frobenius_norm(g @ m_op + m_op @ g))
    return sym, odd


def hermitian_identity_residuals(seed: int, count: int) -> list[float]:
    """Hermitian-connection identity defect for symmetrized random forms."""
    out = []
    for _, module, a in iter_connection_scenarios(seed, count):
        out.append(hermitian_residual(module, a))
    return out


def junk_membership_residuals(seed: int, count: int) -> tuple[list[float], list[float]]:
    """(junk in two-form span, third junk condition) over random triples."""
    rng = generate.rng_for(seed)
    membership, third = [], []
    for _ in range(count):
        st = generate.random_triple(rng)
        two = two_form_space(st)
        junk = junk_space(st)
        worst = 0.0
        for j_mat in junk.basis:
            worst = max(worst, two.membership(j_mat))
        membership.append(worst)
        worst3 = 0.0
        for omega in kernel_one_forms(st):
            worst3 = max(worst3, omega.third_junk_residual())
        third.append(worst3)
    return membership, third


def norm_chain_violations(seed: int, count: int) -> list[float]:
    """Violation of c2 >= c1 >= operator norm over random algebra elements."""
    rng = generate.rng_for(seed)
    out = []
    for _ in range(count):
        st = generate.random_triple(rng)
        coeffs = generate.unit_disc(rng, (st.d,))
        base = spectral_norm(st.assemble(coeffs))
        c1 = c1_norm(st, coeffs)
        c2 = c2_norm(st, coeffs)
        star = c1_norm(st, st.star_coords(coeffs))
        out.append(max(c1 - c2, base - c1, abs(c1 - star), 0.0))
    return out


def _max(values: list[float]) -> float:
    return max(values) if values else 0.0


def selftest(seed: int) -> list[Check]:
    """Run every invariant family at its pinned tolerance; one check per line."""
    count = SCENARIOS_PER_FAMILY
    route = route_equality_residuals(seed, count)
    structure = curvature_structure_residuals(seed + 1, count)
    ajunkie = ajunkie_residuals(seed + 2, 2 * count)
    coset, canonical = junk_invariance_residuals(seed + 3, max(count // 2, 5))
    corr = correspondence_residuals(seed + 4, count)
    external = external_defect_ratios(seed + 5, count)
    sym, odd = grassmann_residuals(seed + 6, count)
    herm = hermitian_identity_residuals(seed + 7, max(count // 2, 5))
    member, third = junk_membership_residuals(seed + 8, max(count // 2, 5))
    chain = norm_chain_violations(seed + 9, 2 * count)
    rng = generate.rng_for(seed + 10)
    one_dims = [orthonormality_defect(one_form_space(generate.random_triple(rng)).basis)
                for _ in range(max(count // 2, 5))]

    return [
        Check("route_equality", _max(route), 1e-9),
        Check("curvature_even", _max(structure["even"]), 1e-10),
        Check("curvature_support", _max(structure["support"]), 1e-10),
        Check("curvature_symmetric", _max(structure["symmetric"]), 1e-10),
        Check("ajunkie_identity", _max(ajunkie), 1e-9),
        Check("junk_coset", _max(coset), 1e-8),
        Check("junk_canonical_unique", _max(canonical), 1e-8),
        Check("correspondence_decomposition", _max(corr), 1e-10),
        Check("external_product_ratio", _max(external), 1e-12),
        Check("grassmann_symmetric", _max(sym), 1e-10),
        Check("grassmann_odd", _max(odd), 1e-10),
        Check("hermitian_identity", _max(herm), 1e-10),
        Check("junk_in_two_forms", _max(member), 1e-8),
        Check("third_junk_condition", _max(third), 1e-8),
        Check("norm_chain", _max(chain), 1e-10),
        Check("form_basis_orthonormal", _max(one_dims), 1e-10),
    ]
