"""The registry of invariant families that selftest and the acceptance tests read."""

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
