"""Reproducible property suite: one table of seeded identity families.

``FAMILIES`` maps each family name, in selftest order, to its checks and
thresholds, its selftest scenario count, ``draw(rng, k)`` for the k-th
scenario of one PCG64 stream (see :mod:`ncgcurv.generate`) and
``measure(*scenario)``, one residual per check.  A draw reads no measurement.
``selftest`` runs the k-th family at seed + k, so a new family goes at the
end.  Library functions are looked up by name at call time, so wrappers on
those names (a tracer, a monkeypatch) see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generate
from .curvature import (
    correspondence_decomposition_residual,
    curvature_report,
    external_product_defect,
    junk_coset_residual,
)
from .fgpmod import connection_operators, hermitian_residual
from .forms import junk_space, kernel_one_forms, one_form_space, two_form_space
from .glinalg import (
    frobenius_norm,
    membership_residual,
    orthonormality_defect,
    spectral_norm,
)
from .triple import Check, c1_norm, c2_norm

__all__ = ["FAMILIES", "Family", "SCENARIOS_PER_FAMILY", "residuals", "selftest"]

#: Base scenario count per family in ``selftest``; a family draws 2x or 1/2x of it.
SCENARIOS_PER_FAMILY = 20


@dataclass(frozen=True)
class Family:
    """(check name, selftest threshold) pairs, scenario count, draw and measure."""

    checks: tuple[tuple[str, float], ...]
    count: int
    draw: Callable[[np.random.Generator, int], tuple]
    measure: Callable[..., tuple[float, ...]]


def _draw_hermitian(rng, k):
    module = generate.random_module(rng, generate.random_triple(rng))
    return module, generate.random_connection(rng, module, hermitian=True)


def _measure_route(module, a):
    return (curvature_report(module, a).route_residual,)


def _measure_structure(module, a):
    report = curvature_report(module, a)
    return report.evenness_residual, report.support_residual, report.symmetry_residual


def _draw_universal_form(rng, k):
    st = generate.random_triple(rng)
    return st, generate.random_universal_form(rng, st)


def _measure_ajunkie(st, omega):
    return (omega.two_form_defect(),)


def _draw_lift_pair(rng, k):
    """Two connections differing by a lifted junk form, over a junk-rich triple
    (d at its cap, or amp2) redrawn while ker(m) and ker(pi_d) meet only in 0."""
    kernel = []
    while not kernel:
        if k % 3 == 2:
            st = generate.random_triple(rng, n=4, kind="amp2")
        else:
            n = int(rng.integers(3, 7))
            st = generate.random_triple(rng, n=n, d=min(4, n), kind="diag")
        kernel = kernel_one_forms(st)
    module = generate.random_module(rng, st)
    return (module, *generate.junk_lift_pair(rng, module, kernel))


def _measure_junk_invariance(module, a1, a2):
    junk = junk_space(module.triple)
    rep1 = curvature_report(module, a1, junk=junk)
    rep2 = curvature_report(module, a2, junk=junk)
    coset = junk_coset_residual(rep1.R, rep2.R, module, junk=junk)
    scale = max(1.0, frobenius_norm(rep1.junk_canonical))
    return coset, frobenius_norm(rep1.junk_canonical - rep2.junk_canonical) / scale


def _draw_correspondence(rng, k):
    module = generate.random_module(rng, generate.random_triple(rng))
    a = generate.random_connection(rng, module)
    return module, a, generate.random_vertical(rng, module)


def _measure_correspondence(module, a, s):
    return (correspondence_decomposition_residual(module, a, s),)


def _draw_triple_pair(rng, k):
    return generate.random_triple(rng), generate.random_triple(rng)


def _measure_external(st1, st2):
    """Defect spectral norm divided by (||D1|| + ||D2||)^2."""
    defect = spectral_norm(external_product_defect(st1, st2))
    bound = (spectral_norm(st1.dirac) + spectral_norm(st2.dirac)) ** 2
    return (defect / max(bound, 1e-300),)


def _draw_grassmann(rng, k):
    """The Grassmann connection at even k, a Hermitian form added at odd k."""
    if k % 2 == 0:
        return generate.random_module(rng, generate.random_triple(rng)), None
    return _draw_hermitian(rng, k)


def _measure_grassmann(module, a):
    m_op = connection_operators(module, a).m_op
    g = module.grading
    return frobenius_norm(m_op - m_op.conj().T), frobenius_norm(g @ m_op + m_op @ g)


def _measure_hermitian(module, a):
    return (hermitian_residual(module, a),)


def _draw_triple(rng, k):
    return (generate.random_triple(rng),)


def _measure_junk_membership(st):
    two = two_form_space(st)
    return (float(np.max([membership_residual(j, two.basis) for j in junk_space(st).basis],
                         initial=0.0)),
            float(np.max([omega.third_junk_residual() for omega in kernel_one_forms(st)],
                         initial=0.0)))


def _draw_algebra_element(rng, k):
    st = generate.random_triple(rng)
    return st, generate.unit_disc(rng, (st.d,))


def _measure_norm_chain(st, coeffs):
    """Violation of c2 >= c1 >= operator norm, and of c1 star-invariance."""
    base = spectral_norm(st.assemble(coeffs))
    c1, star = c1_norm(st, np.stack([coeffs, st.star_coords(coeffs)]))
    c2 = c2_norm(st, coeffs)
    return (float(np.max([c1 - c2, base - c1, abs(c1 - star)], initial=0.0)),)


def _measure_form_basis(st):
    return (orthonormality_defect(one_form_space(st).basis),)


_FEW, _MANY = SCENARIOS_PER_FAMILY // 2, 2 * SCENARIOS_PER_FAMILY

#: Every identity family in selftest order; the k-th runs at ``seed + k``.
FAMILIES: dict[str, Family] = {
    "route_equality": Family((("route_equality", 1e-9),), SCENARIOS_PER_FAMILY,
                             _draw_hermitian, _measure_route),
    "curvature_structure": Family(
        (("curvature_even", 1e-10), ("curvature_support", 1e-10),
         ("curvature_symmetric", 1e-10)),
        SCENARIOS_PER_FAMILY, _draw_hermitian, _measure_structure),
    "ajunkie": Family((("ajunkie_identity", 1e-9),), _MANY,
                      _draw_universal_form, _measure_ajunkie),
    "junk_invariance": Family((("junk_coset", 1e-8), ("junk_canonical_unique", 1e-8)),
                              _FEW, _draw_lift_pair, _measure_junk_invariance),
    "correspondence": Family((("correspondence_decomposition", 1e-10),),
                             SCENARIOS_PER_FAMILY, _draw_correspondence,
                             _measure_correspondence),
    "external_product": Family((("external_product_ratio", 1e-12),), SCENARIOS_PER_FAMILY,
                               _draw_triple_pair, _measure_external),
    "grassmann": Family((("grassmann_symmetric", 1e-10), ("grassmann_odd", 1e-10)),
                        SCENARIOS_PER_FAMILY, _draw_grassmann, _measure_grassmann),
    "hermitian_identity": Family((("hermitian_identity", 1e-10),), _FEW,
                                 _draw_hermitian, _measure_hermitian),
    "junk_membership": Family((("junk_in_two_forms", 1e-8), ("third_junk_condition", 1e-8)),
                              _FEW, _draw_triple, _measure_junk_membership),
    "norm_chain": Family((("norm_chain", 1e-10),), _MANY,
                         _draw_algebra_element, _measure_norm_chain),
    "form_basis": Family((("form_basis_orthonormal", 1e-10),), _FEW,
                         _draw_triple, _measure_form_basis),
}


def residuals(name: str, seed: int, count: int) -> list[list[float]]:
    """One list of per-scenario residuals for each check of family ``name``."""
    family = FAMILIES[name]
    rng = generate.rng_for(seed)
    rows = [family.measure(*family.draw(rng, k)) for k in range(count)]
    return [[row[i] for row in rows] for i in range(len(family.checks))]


def selftest(seed: int) -> list[Check]:
    """Run the k-th family at ``seed + k``; one check, its worst residual, per line."""
    checks = []
    for k, (name, family) in enumerate(FAMILIES.items()):
        lists = residuals(name, seed + k, family.count)
        checks += [Check(check, float(np.max(values, initial=0.0)), threshold)
                   for (check, threshold), values in zip(family.checks, lists)]
    return checks
