"""The registry of invariant families that selftest and the acceptance tests read."""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ncgcurv import generate, harness

# selftest's checks in order, written out so that a moved, renamed or
# re-thresholded check fails here and not only in a report diff
SELFTEST_CHECKS = [
    ("route_equality", 1e-9, "<="),
    ("curvature_even", 1e-10, "<="),
    ("curvature_support", 1e-10, "<="),
    ("curvature_symmetric", 1e-10, "<="),
    ("ajunkie_identity", 1e-9, "<="),
    ("junk_coset", 1e-8, "<="),
    ("junk_canonical_unique", 1e-8, "<="),
    ("correspondence_decomposition", 1e-10, "<="),
    ("external_product_ratio", 1e-12, "<="),
    ("grassmann_symmetric", 1e-10, "<="),
    ("grassmann_odd", 1e-10, "<="),
    ("hermitian_identity", 1e-10, "<="),
    ("junk_in_two_forms", 1e-8, "<="),
    ("third_junk_condition", 1e-8, "<="),
    ("norm_chain", 1e-10, "<="),
    ("form_basis_orthonormal", 1e-10, "<="),
]
SELFTEST_COUNTS = [20, 20, 40, 10, 20, 20, 20, 10, 10, 40, 10]


def test_selftest_checks_in_order():
    checks = harness.selftest(0)
    assert [(c.name, c.threshold, c.op) for c in checks] == SELFTEST_CHECKS
    assert all(c.passed for c in checks)
    table = [(name, threshold, "<=") for family in harness.FAMILIES.values()
             for name, threshold in family.checks]
    assert table == SELFTEST_CHECKS


def test_selftest_counts():
    assert harness.SCENARIOS_PER_FAMILY == 20
    assert [family.count for family in harness.FAMILIES.values()] == SELFTEST_COUNTS


@pytest.mark.parametrize("name", list(harness.FAMILIES))
def test_draw_all_then_measure_repeats_residuals(name):
    # a draw reads no measurement, so every input can be drawn before any
    # is measured (as a benchmark that times measure alone does), bit for bit
    family = harness.FAMILIES[name]
    rng = generate.rng_for(5)
    scenarios = [family.draw(rng, k) for k in range(family.count)]
    rows = [family.measure(*scenario) for scenario in scenarios]
    drawn_first = [[row[i].hex() for row in rows] for i in range(len(family.checks))]
    interleaved = harness.residuals(name, 5, family.count)
    assert drawn_first == [[v.hex() for v in values] for values in interleaved]


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("name", list(harness.FAMILIES))
def test_residuals_shape(name, count):
    lists = harness.residuals(name, 1, count)
    assert len(lists) == len(harness.FAMILIES[name].checks)
    assert [len(values) for values in lists] == [count] * len(lists)
    assert all(isinstance(v, float) for values in lists for v in values)


def test_table_holds_harness_functions_only():
    # a library function stored in the table would bypass a wrapper installed
    # on its module-level name (a tracer, a monkeypatch); harness functions
    # look the library names up at call time
    for family in harness.FAMILIES.values():
        assert {family.draw.__module__, family.measure.__module__} == {"ncgcurv.harness"}


def test_lift_pair_draw_computes_each_kernel_once(monkeypatch):
    # the draw tests ker(m) intersect ker(pi_d) for emptiness and hands the
    # same kernel to junk_lift_pair, which then computes none of its own
    from ncgcurv import forms

    triples = []
    kernel = forms.kernel_one_forms

    def recording(st, *args, **kwargs):
        triples.append(st)
        return kernel(st, *args, **kwargs)

    monkeypatch.setattr(harness, "kernel_one_forms", recording)
    monkeypatch.setattr(generate, "kernel_one_forms", recording)
    family = harness.FAMILIES["junk_invariance"]
    rng = generate.rng_for(7)
    modules = [family.draw(rng, k)[0] for k in range(family.count)]
    assert len({id(st) for st in triples}) == len(triples)
    assert [st for st in triples if kernel(st)] == [module.triple for module in modules]


def test_lift_pair_from_a_held_kernel_repeats_its_own_draw():
    from ncgcurv.forms import kernel_one_forms

    for seed in range(20):
        rng = generate.rng_for(seed)
        st = generate.random_triple(rng, n=4, kind="amp2" if seed % 2 else "diag")
        module = generate.random_module(rng, st)
        held, own = generate.rng_for(seed), generate.rng_for(seed)
        for a, b in zip(generate.junk_lift_pair(held, module, kernel_one_forms(st)),
                        generate.junk_lift_pair(own, module)):
            assert a.entries.tobytes() == b.entries.tobytes()
        assert held.bit_generator.state == own.bit_generator.state


# -- a NaN residual is the worst case, wherever it falls ---------------------


def nan_at(calls: list, index: int, real):
    """``real``, except that call number ``index`` (from 0) returns NaN."""
    def planted(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) - 1 == index else real(*args, **kwargs)
    return planted


def test_a_nan_scenario_fails_selftest(monkeypatch):
    # a running Python max dropped a NaN that did not come first: with NaN
    # at scenario 3, route_equality reported the worst of the others and passed
    family = harness.FAMILIES["route_equality"]
    calls = []
    measure = nan_at(calls, 3, lambda *scenario: family.measure(*scenario)[0])
    monkeypatch.setitem(harness.FAMILIES, "route_equality",
                        replace(family, measure=lambda *scenario: (measure(*scenario),)))
    checks = harness.selftest(7)
    assert len(calls) == family.count
    assert [c.name for c in checks if not c.passed] == ["route_equality"]
    assert math.isnan(checks[0].value)


def test_a_nan_junk_residual_is_the_worst(monkeypatch):
    st = generate.random_triple(generate.rng_for(3), n=4, d=4, kind="diag")
    assert len(harness.junk_space(st).basis) >= 2
    calls = []
    monkeypatch.setattr(harness, "membership_residual",
                        nan_at(calls, 1, harness.membership_residual))
    forms = [SimpleNamespace(third_junk_residual=lambda v=v: v) for v in (0.5, math.nan, 0.25)]
    monkeypatch.setattr(harness, "kernel_one_forms", lambda st_: forms)
    member, third = harness._measure_junk_membership(st)
    assert len(calls) >= 2 and math.isnan(member) and math.isnan(third)


def test_a_nan_operator_norm_breaks_the_norm_chain(monkeypatch):
    rng = generate.rng_for(4)
    st, coeffs = harness._draw_algebra_element(rng, 0)
    monkeypatch.setattr(harness, "spectral_norm", lambda a: float("nan"))
    (value,) = harness._measure_norm_chain(st, coeffs)
    assert math.isnan(value)
