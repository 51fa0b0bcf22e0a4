import numpy as np
import pytest

from ncgcurv import SpectralTriple, validate
from ncgcurv.curvature import (
    VerticalOperator,
    correspondence_decomposition_residual,
    correspondence_report,
    curvature_direct,
    curvature_formula,
    curvature_report,
    external_product_defect,
    external_product_defect_ungraded,
    junk_coset_residual,
    validate_vertical,
)
from ncgcurv import cli, curvature, fgpmod, generate, harness
from ncgcurv.fgpmod import (
    ConnectionForm,
    ProjectiveModule,
    connection_operators,
    hermitian_residual,
    validate_connection,
    validate_module,
)
from ncgcurv.forms import junk_space
from ncgcurv.generate import (
    junk_lift_pair,
    random_connection,
    random_module,
    random_triple,
    random_vertical,
    rng_for,
)
from ncgcurv.glinalg import (
    anticommutator,
    commutator,
    frobenius_norm,
    relative_residual,
    spectral_norm,
    support_residual,
)
from ncgcurv.scenario import parse_scenario
from ncgcurv.triple import InvariantViolation

from reference import (eager_reference, hermitian, kron_graded, kron_lifts, lifted_svd_canonical,
                       rebased_twin, symmetrized, unitary_twin)
from test_fgpmod import delta_connection


class TestDirectRoute:
    def test_free_module_flat(self, free_module):
        assert frobenius_norm(curvature_report(free_module).R) <= 1e-14

    def test_two_point_module(self, two_point_module, two_point_oracle):
        r = curvature_report(two_point_module).R
        expected = np.diag(two_point_oracle["curvature_diag"]).astype(complex)
        assert np.allclose(r, expected, atol=1e-12)
        assert np.allclose(r, np.diag([-1.0, 0.0, 0.0, -1.0]))
        assert spectral_norm(r) == pytest.approx(two_point_oracle["curvature_norm"],
                                                 abs=1e-10)

    def test_grassmann_curvature_is_compressed_square(self):
        # with A = 0 the curvature is P [Dt, P][Dt, P] P
        for seed in range(25):
            rng = np.random.default_rng(seed)
            module = random_module(rng, random_triple(rng))
            proj = module.projector
            dp = commutator(kron_lifts(module)[1], proj)
            assert np.allclose(curvature_report(module).R, proj @ dp @ dp @ proj,
                               atol=1e-11)


class TestFormulaRoute:
    def test_matches_direct_without_connection(self, two_point_module):
        ops = connection_operators(two_point_module)
        assert np.allclose(curvature_formula(ops), curvature_direct(ops), atol=1e-12)

    def test_free_module_with_delta_form(self, free_module):
        # on a free module P = 1 and the formula is A^2 + [Dt, A]_+ - A_D2
        a = symmetrized(delta_connection(free_module))
        ops = connection_operators(free_module, a)
        a_d, a_d2 = ops.expand(ops.a_r), ops.expand(ops.a2_r)
        dt = kron_lifts(free_module)[1]
        expected = a_d @ a_d + anticommutator(dt, a_d) - a_d2
        assert np.allclose(ops.expand(curvature_formula(ops)), expected, atol=1e-12)
        assert np.allclose(ops.expand(curvature_direct(ops)), expected, atol=1e-12)

    def test_route_equality_seeded(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            st_ = random_triple(rng)
            module = random_module(rng, st_)
            a = random_connection(rng, module, hermitian=True)
            ops = connection_operators(module, a)
            direct, formula = ops.expand(curvature_direct(ops)), ops.expand(curvature_formula(ops))
            scale = max(1.0, frobenius_norm(direct))
            assert frobenius_norm(direct - formula) <= 1e-9 * scale


class TestReport:
    def test_two_point_report(self, two_point_module):
        report = curvature_report(two_point_module)
        assert report.route_residual <= 1e-12
        assert report.symmetry_residual <= 1e-12
        assert report.evenness_residual <= 1e-12
        assert report.support_residual <= 1e-12
        assert report.norm == pytest.approx(1.0, abs=1e-12)
        # no junk on the two-point triple: the canonical representative is R
        assert np.allclose(report.junk_canonical, report.R)

    def test_uneven_projector_gives_uneven_curvature(self, uneven_module):
        report = curvature_report(uneven_module)
        assert report.route_residual <= 1e-12
        assert report.support_residual <= 1e-12
        assert report.evenness_residual == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_unitarily_conjugated_triple_takes_dense_paths(self, monkeypatch):
        # U (gamma, basis, D) U* for a random U: neither gamma nor the basis is
        # diagonal, so pair_products takes the dense route and every parity check
        # the block products of graded
        dense_parity = []
        graded = ProjectiveModule.graded
        monkeypatch.setattr(ProjectiveModule, "graded", lambda self, x: dense_parity.append(
            self.triple.gamma_signs is None) or graded(self, x))
        rng = rng_for(67)
        module = random_module(rng, random_triple(rng, n=6, d=3, kind="diag"), m=3,
                               allow_free=False)
        a = random_connection(rng, module)
        module_u, a_u, u = unitary_twin(module, a, rng)
        st_u = module_u.triple
        assert st_u.gamma_signs is None and st_u.points is None
        assert all(c.passed for c in validate(st_u) + validate_module(module_u))
        report = curvature_report(module_u, a_u)
        for residual in ("route", "symmetry", "evenness", "support"):
            assert getattr(report, residual + "_residual") <= 1e-10
        assert dense_parity == [True, True]  # connection_odd and curvature evenness
        lift = np.kron(np.eye(module.m), u)
        expected = lift @ curvature_report(module, a).R @ lift.conj().T
        assert frobenius_norm(report.R - expected) <= 1e-10 * frobenius_norm(expected)
        assert dense_parity == [True, True, False]  # the diagonal original's connection_odd

    def test_structure_invariants_seeded(self):
        rng = rng_for(31)
        for _ in range(5):
            st_ = random_triple(rng)
            module = random_module(rng, st_)
            a = random_connection(rng, module, hermitian=True)
            report = curvature_report(module, a)
            assert np.allclose(kron_graded(module, report.R), report.R, atol=1e-10)
            proj = module.projector
            assert np.allclose(proj @ report.R @ proj, report.R, atol=1e-10)
            assert report.symmetry_residual <= 1e-10


class TestJunkCoset:
    def test_equal_curvatures(self, two_point_module):
        r = curvature_report(two_point_module).R
        assert junk_coset_residual(r, r, two_point_module) <= 1e-14

    def test_lift_pairs_agree_modulo_junk(self):
        rng = rng_for(37)
        for _ in range(4):
            st_ = random_triple(rng, n=4, kind="amp2")
            module = random_module(rng, st_)
            a1, a2 = junk_lift_pair(rng, module)
            junk = junk_space(st_)
            r1 = curvature_report(module, a1, junk=junk)
            r2 = curvature_report(module, a2, junk=junk)
            assert junk_coset_residual(r1.R, r2.R, module, junk=junk) <= 1e-8
            scale = max(1.0, frobenius_norm(r1.junk_canonical))
            assert frobenius_norm(r1.junk_canonical - r2.junk_canonical) <= 1e-8 * scale

    def test_lift_pair_with_distinct_representatives(self):
        # the pair must genuinely differ before quotienting for the test to bite
        rng = rng_for(41)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, m=2, allow_free=False)
        a1, a2 = junk_lift_pair(rng, module)
        r1 = curvature_report(module, a1).R
        r2 = curvature_report(module, a2).R
        assert frobenius_norm(r1 - r2) > 1e-3

    def test_non_junk_shift_detected(self, two_point_module):
        # junk is empty here, so any nonzero difference is fully visible
        r = curvature_report(two_point_module).R
        shifted = r + two_point_module.projector
        assert junk_coset_residual(r, shifted, two_point_module) >= 0.1

    def test_non_junk_shift_detected_with_junk_present(self):
        rng = rng_for(43)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, m=2, allow_free=False)
        junk = junk_space(st_)
        assert junk.dim > 0
        r = curvature_report(module).R
        shifted = r + module.projector  # P is even and not a junk combination
        assert junk_coset_residual(r, shifted, module, junk=junk) >= 0.1

    def test_shape_mismatch(self, two_point_module):
        with pytest.raises(ValueError):
            junk_coset_residual(np.eye(2), np.eye(2), two_point_module)

    def test_harness_lift_pairs_differ(self, monkeypatch):
        # an empty ker(pi_d) makes junk_lift_pair return (a, a), which checks nothing;
        # the harness redraws the triple until the kernel is non-empty
        pairs = []
        draw = generate.junk_lift_pair

        def recording(*args, **kwargs):
            pairs.append(draw(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(generate, "junk_lift_pair", recording)
        harness.residuals("junk_invariance", 10, 10)
        assert len(pairs) == 10
        for a1, a2 in pairs:
            assert a1 is not a2

    def test_lifted_basis_empty_without_junk(self, two_point_module):
        assert junk_space(two_point_module.triple).dim == 0
        report = curvature_report(two_point_module)
        assert np.array_equal(report.junk_canonical, report.R)


def bimodule_defect(st_, junk):
    """Largest distance of b_i J b_j from span Junk, over max(1, ||b_i J b_j||)."""
    j, b = junk.basis, st_.basis
    vecs = (b[:, None, None] @ j[None, :, None] @ b[None, None, :]).reshape(-1, j[0].size)
    basis = j.reshape(junk.dim, -1)
    off = vecs - (vecs @ basis.conj().T) @ basis
    return float(np.max(np.linalg.norm(off, axis=1)
                        / np.maximum(1.0, np.linalg.norm(vecs, axis=1))))


class TestBlockwiseJunkProjection:
    def _check_agrees(self, module, a):
        junk = junk_space(module.triple)
        assert junk.dim > 0
        report = curvature_report(module, a, junk=junk)
        expected = lifted_svd_canonical(report.R, module, junk)
        scale = frobenius_norm(report.R)
        assert frobenius_norm(report.junk_canonical - expected) <= 1e-12 * scale
        # the quotient is not trivial here: junk moves R
        assert frobenius_norm(report.junk_canonical - report.R) >= 1e-3 * scale

    def test_matches_lifted_svd_on_amp2(self):
        rng = rng_for(59)
        for _ in range(4):
            module = random_module(rng, random_triple(rng, n=4, kind="amp2"),
                                   m=2, allow_free=False)
            self._check_agrees(module, random_connection(rng, module))

    def test_matches_lifted_svd_on_ladder_rung(self, ladder_modules):
        module = ladder_modules[1]
        self._check_agrees(module, random_connection(rng_for(61), module))

    def test_numerically_zero_lifted_span_leaves_r(self, ladder_modules):
        # every lift P (E_kl (x) J) P is ~1e-17 here; an SVD cut relative to
        # sigma_max once kept 23 noise directions and moved R by 0.76 ||R||
        module = ladder_modules[2]
        junk = junk_space(module.triple)
        assert junk.dim > 0
        report = curvature_report(module, random_connection(rng_for(61), module),
                                  junk=junk)
        r = report.R
        assert frobenius_norm(report.junk_canonical - r) <= 1e-12 * frobenius_norm(r)
        assert junk_coset_residual(r, 2 * r, module, junk=junk) == pytest.approx(1.0)

    def test_coset_residual_matches_lifted_svd(self):
        rng = rng_for(67)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, m=2, allow_free=False)
        junk = junk_space(st_)
        r1 = curvature_report(module, random_connection(rng, module)).R
        r2 = curvature_report(module, random_connection(rng, module)).R
        x = r1 - r2
        expected = frobenius_norm(lifted_svd_canonical(x, module, junk))
        assert junk_coset_residual(r1, r2, module, junk=junk) == pytest.approx(
            expected / max(1.0, frobenius_norm(x)), abs=1e-12)

    def test_junk_is_a_bimodule(self, ladder_modules):
        # the hypothesis of the blockwise projection: b_i J b_j stays in Junk
        rng = rng_for(71)
        triples = [random_triple(rng, kind="diag") for _ in range(25)]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(25)]
        triples += [module.triple for module in ladder_modules]
        worst, with_junk = 0.0, 0
        for st_ in triples:
            junk = junk_space(st_)
            if junk.dim:
                with_junk += 1
                worst = max(worst, bimodule_defect(st_, junk))
        assert with_junk >= 30
        assert worst <= 1e-12


class TestCorrespondence:
    def test_zero_vertical_reduces_to_curvature(self, two_point_module):
        s = VerticalOperator(two_point_module, np.zeros((2, 2, 2)))
        corr = correspondence_report(two_point_module, None, s).curvature
        assert np.allclose(corr, curvature_report(two_point_module).R, atol=1e-12)

    def test_anticommuting_vertical_on_free_module(self, free_module):
        # S = antidiag(1, 1) anticommutes with diag(D, -D): the squares add
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0
        entries[1, 0, 0] = 1.0
        s = VerticalOperator(free_module, entries)
        report = correspondence_report(free_module, None, s)
        assert frobenius_norm(report.curvature) <= 1e-12
        assert report.wac <= 1e-12

    def test_generic_decomposition(self):
        rng = rng_for(47)
        for _ in range(5):
            st_ = random_triple(rng)
            module = random_module(rng, st_)
            a = random_connection(rng, module)
            s = random_vertical(rng, module)
            assert correspondence_decomposition_residual(module, a, s) <= 1e-10

    def test_expansion_against_direct(self):
        rng = rng_for(53)
        st_ = random_triple(rng, n=4)
        module = random_module(rng, st_, m=2)
        a = random_connection(rng, module)
        s = random_vertical(rng, module)
        report = correspondence_report(module, a, s)
        m_op = eager_reference(module, a)["m_op"]
        s_m = anticommutator(s.matrix, m_op)
        assert frobenius_norm(report.s_m - s_m) <= 1e-12 * max(1.0, frobenius_norm(s_m))
        expected = curvature_report(module, a).R + report.s_m
        assert np.allclose(report.curvature, expected, atol=1e-10)

    def test_invalid_vertical_rejected(self, free_module):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0  # not self-adjoint: missing the (1, 0) block
        s = VerticalOperator(free_module, entries)
        with pytest.raises(InvariantViolation):
            correspondence_report(free_module, None, s)

    # each id names the report value the correspondence command prints
    @pytest.mark.parametrize("function", [
        pytest.param(lambda *args: correspondence_report(*args).curvature,
                     id="correspondence_curvature"),
        correspondence_decomposition_residual,
        pytest.param(lambda *args: correspondence_report(*args).wac, id="wac_diagnostic"),
    ])
    def test_each_function_rejects_raw_bad_vertical(self, free_module, function):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0  # not self-adjoint: missing the (1, 0) block
        s = VerticalOperator(free_module, entries)
        with pytest.raises(InvariantViolation) as exc:
            function(free_module, None, s)
        assert exc.value.check.name == "vertical_selfadjoint"

    def test_even_vertical_fails_oddness(self, free_module):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 0, 0] = 1.0  # a Gamma-even slot holding the even identity
        s = VerticalOperator(free_module, entries)
        failed = [c.name for c in validate_vertical(s) if not c.passed]
        assert failed == ["vertical_odd"]
        with pytest.raises(InvariantViolation) as exc:
            correspondence_report(free_module, None, s)
        assert exc.value.check.name == "vertical_odd"

    def test_vertical_off_range_fails_compression(self, two_point_module):
        # P = diag(q, 1 - q) and q (1 - q) = 0, so P S P drops this odd block
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0
        entries[1, 0, 0] = 1.0
        s = VerticalOperator(two_point_module, entries)
        failed = [c.name for c in validate_vertical(s) if not c.passed]
        assert failed == ["vertical_compressed"]
        with pytest.raises(InvariantViolation) as exc:
            correspondence_report(two_point_module, None, s).wac
        assert exc.value.check.name == "vertical_compressed"


class TestSingleEvaluation:
    def test_connection_validated_once_per_call(self, connection_evaluations):
        calls = connection_evaluations
        rng = rng_for(23)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"))
        a = random_connection(rng, module)
        s = random_vertical(rng, module)
        assert not a.is_zero() and calls == []
        curvature_report(module, a)
        assert calls == ["represented", "checks"]
        correspondence_decomposition_residual(module, a, s)
        assert calls == ["represented", "checks"] * 2
        ops = connection_operators(module, a)
        assert calls == ["represented", "checks"] * 3
        # the routes read the bundle alone and evaluate nothing
        assert np.array_equal(curvature_direct(ops), curvature_report(module, a).R_r)
        curvature_formula(ops)
        assert calls == ["represented", "checks"] * 4

    def test_reading_r_runs_no_formula_route(self, monkeypatch):
        calls = []
        formula = curvature.curvature_formula
        monkeypatch.setattr(curvature, "curvature_formula",
                            lambda *args, **kw: calls.append(1) or formula(*args, **kw))
        rng = rng_for(71)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"))
        report = curvature_report(module, random_connection(rng, module))
        assert report.R.shape == (module.dim, module.dim) and calls == []
        assert report.route_residual == report.route_residual <= 1e-10
        assert calls == [1]

    def test_compression_shared_by_check_and_bundle(self, monkeypatch):
        checks = []
        connection_checks = fgpmod._connection_checks
        monkeypatch.setattr(fgpmod, "_connection_checks",
                            lambda *args: checks.append(connection_checks(*args)) or checks[-1])
        rng = rng_for(73)
        for kind in ("amp2", "diag"):
            module = random_module(rng, random_triple(rng, n=4, kind=kind))
            a = random_connection(rng, module)
            P, raw = module.projector, a.represented()[0]
            ops = connection_operators(module, a)
            a_d = ops.expand(ops.a_r)
            assert frobenius_norm(a_d - P @ raw @ P) <= 1e-12 * frobenius_norm(raw)
            compressed = {c.name: c.value for c in checks.pop()}["connection_compressed"]
            # the check reads the bundle's compression, V a_r V*
            assert compressed == frobenius_norm(a_d - raw) / max(1.0, frobenius_norm(raw))
            validated = {c.name: c.value for c in validate_connection(module, a)}
            assert validated["connection_compressed"] == support_residual(P, raw)
            assert abs(validated["connection_compressed"] - compressed) <= 1e-12

    def test_correspondence_anticommutator_once(self, fixtures_dir, monkeypatch):
        # the residual and wac both read the report's one [S, M]_+
        calls = []
        anticommutator = curvature.anticommutator
        monkeypatch.setattr(curvature, "anticommutator",
                            lambda *args: calls.append(1) or anticommutator(*args))
        scen = parse_scenario(fixtures_dir / "two_point_free_module.json")
        assert cli.run("correspondence", scen).passed
        assert len(calls) == 1


# each call reads a connection form or a vertical operator against a module
MODULE_READS = {
    "connection_operators": lambda m, a, s: connection_operators(m, a),
    "zero_form": lambda m, a, s: connection_operators(
        m, ConnectionForm(a.module, np.zeros_like(a.entries))),
    "validate_connection": lambda m, a, s: validate_connection(m, a),
    "hermitian_residual": lambda m, a, s: hermitian_residual(m, a),
    "curvature_report": lambda m, a, s: curvature_report(m, a),
    "correspondence_curvature": lambda m, a, s: correspondence_report(m, None, s).curvature,
    "correspondence_decomposition_residual":
        lambda m, a, s: correspondence_decomposition_residual(m, None, s),
    "wac_diagnostic": lambda m, a, s: correspondence_report(m, None, s).wac,
}


@pytest.mark.parametrize("name", sorted(MODULE_READS))
def test_form_over_another_module_raises(name):
    # the same projection table over a triple with D doubled: a connection
    # over it passed every check against the first module, with the wrong R
    st1 = random_triple(rng_for(5), n=4, kind="amp2")
    st2 = SpectralTriple(st1.gamma, st1.basis, 2 * st1.dirac)
    m1 = random_module(rng_for(5), st1, m=2, allow_free=False)
    m2 = ProjectiveModule(st2, m1.p, m1.signs)
    rng = rng_for(6)
    a2, s2 = random_connection(rng, m2), random_vertical(rng, m2)
    read = MODULE_READS[name]
    read(m2, a2, s2)  # over its own module
    with pytest.raises(ValueError, match="lives over another module"):
        read(m1, a2, s2)


@pytest.fixture
def curvature_calls(monkeypatch) -> dict[str, int]:
    """Calls of junk_space and spectral_norm made through the curvature module."""
    calls = {"junk_space": 0, "spectral_norm": 0}
    for name in calls:
        real = getattr(curvature, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(curvature, name, counted)
    return calls


def range_coordinate_values(module, a, junk=None):
    """The same quantities as eager_reference, from the library."""
    report = curvature_report(module, a, junk=junk)
    ops = report.ops
    return {
        "R": report.R,
        "formula": ops.expand(curvature_formula(ops)),
        "route_residual": report.route_residual,
        "symmetry_residual": report.symmetry_residual,
        "m_op": ops.m_op,
        "n_op": ops.expand(ops.n_r),
        "norm": report.norm,
        "junk_canonical": report.junk_canonical,
    } | ({"spectrum": np.array(fgpmod.spectrum(ops))} if hermitian(a) else {})


def worst_relative_gap(got: dict, want: dict) -> float:
    """max over the quantities of ||got - want||_F / max(1, ||want||_F)."""
    assert got.keys() == want.keys()
    return max(frobenius_norm(np.subtract(got[k], want[k])) / max(1.0, frobenius_norm(want[k]))
               for k in want)


class TestLazyReport:
    def _module_and_connection(self):
        rng = rng_for(59)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"),
                               m=2, allow_free=False)
        return module, random_connection(rng, module)

    def test_route_residual_needs_no_junk_and_no_norm(self, curvature_calls):
        module, a = self._module_and_connection()
        report = curvature_report(module, a)
        assert report.route_residual <= 1e-10
        assert report.symmetry_residual <= 1e-10
        assert report.evenness_residual <= 1e-10
        assert report.support_residual <= 1e-10
        assert curvature_calls == {"junk_space": 0, "spectral_norm": 0}

    def test_junk_space_built_once_on_first_read(self, curvature_calls):
        module, a = self._module_and_connection()
        report = curvature_report(module, a)
        assert curvature_calls["junk_space"] == 0
        first = report.junk_canonical
        assert curvature_calls["junk_space"] == 1
        assert report.junk_canonical is first
        assert curvature_calls["junk_space"] == 1

        junk = junk_space(module.triple)
        given = curvature_report(module, a, junk=junk)
        assert np.array_equal(given.junk_canonical, first)
        assert curvature_calls == {"junk_space": 1, "spectral_norm": 0}

    def test_norm_computed_once_on_first_read(self, curvature_calls):
        module, a = self._module_and_connection()
        report = curvature_report(module, a)
        assert curvature_calls["spectral_norm"] == 0
        assert report.norm == report.norm
        assert curvature_calls == {"junk_space": 0, "spectral_norm": 1}

    def test_lazy_fields_match_eager_reference(self, ladder_modules):
        rng = rng_for(59)
        cases = []
        for _ in range(4):
            module = random_module(rng, random_triple(rng, n=4, kind="amp2"),
                                   m=2, allow_free=False)
            cases.append((module, random_connection(rng, module)))
        cases += [(module, random_connection(rng_for(61), module))
                  for module in ladder_modules]
        moved = 0
        for module, a in cases:
            want = eager_reference(module, a)
            r, canonical = want["R"], want["junk_canonical"]
            report = curvature_report(module, a)
            assert frobenius_norm(report.R - r) <= 1e-12 * frobenius_norm(r)
            assert report.norm == pytest.approx(want["norm"], rel=1e-12)
            assert frobenius_norm(report.junk_canonical - canonical) <= 1e-12 * frobenius_norm(r)
            moved += frobenius_norm(canonical - r) >= 1e-3 * frobenius_norm(r)
        # junk moves R in the amp2 cases and on two ladder rungs
        assert moved == 6


class TestAlgebraBasisCovariance:
    """Curvature does not depend on the basis the algebra is written in."""

    def test_rebased_diag_scenarios_match_the_point_route(self):
        # b' = M b is diagonal but not 0/1, so it has no points and takes the
        # dense route; R, its norm, the product spectrum and the junk dim
        # match the point route
        rng = rng_for(131)
        worst, count = 0.0, 0
        while count < 150:
            module = random_module(rng, random_triple(rng, kind="diag"))
            a = random_connection(rng, module, hermitian=True) if count % 4 else None
            d = module.triple.d
            mat = np.eye(d)
            mat[1:] += 0.5 * rng.normal(size=(d - 1, d))
            if d == 1 or np.linalg.cond(mat) > 1e2:  # one basis element: nothing to rewrite
                continue
            module_b, a_b = rebased_twin(module, a, mat)
            assert module_b.triple.points is None and module.triple.points is not None
            want, got = curvature_report(module, a), curvature_report(module_b, a_b)
            scale = max(1.0, frobenius_norm(want.R))
            worst = max(worst, frobenius_norm(got.R - want.R) / scale,
                        abs(got.norm - want.norm) / max(1.0, want.norm))
            spec, spec_b = (fgpmod.spectrum(x.ops) for x in (want, got))
            worst = max(worst, np.abs(np.subtract(spec_b, spec)).max(initial=0.0)
                        / max(1.0, np.abs(spec).max(initial=0.0)))
            assert junk_space(module_b.triple).dim == junk_space(module.triple).dim
            count += 1
        assert worst <= 1e-12


class TestExternalProduct:
    def test_graded_sum_respects_squares(self, two_point):
        defect = external_product_defect(two_point, two_point)
        assert spectral_norm(defect) <= 1e-12 * (2.0) ** 2

    def test_ungraded_control(self, two_point):
        control = external_product_defect_ungraded(two_point, two_point)
        # 2 D (x) D has spectral norm 2 for the flip matrix
        assert np.allclose(control, 2.0 * np.kron(two_point.dirac, two_point.dirac))
        assert spectral_norm(control) == pytest.approx(2.0, rel=1e-12)

    def test_zero_second_dirac(self, two_point):
        st2 = SpectralTriple(two_point.gamma, two_point.basis, np.zeros((2, 2)))
        assert not np.any(external_product_defect(two_point, st2))

    def test_seeded_pairs(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            st1 = random_triple(rng)
            st2 = random_triple(rng)
            bound = (spectral_norm(st1.dirac) + spectral_norm(st2.dirac)) ** 2
            assert spectral_norm(external_product_defect(st1, st2)) <= 1e-12 * bound


class TestRangeCoordinates:
    """The range(P) evaluation against the dense reference it replaced."""

    def test_matches_dense_reference_on_seeded_modules(self):
        rng = rng_for(97)
        worst, twins, kinds = 0.0, 0, {"diag": 0, "amp2": 0, "free": 0, "default": 0}
        for k in range(1000):
            kind = ("diag", "amp2", None)[k % 3]
            st_ = random_triple(rng, n=4 if kind == "amp2" else None, kind=kind)
            module = random_module(rng, st_)
            free = np.array_equal(module.projector, np.eye(module.dim))
            kinds["free" if free else kind or "default"] += 1
            a = None if k % 7 == 0 else random_connection(rng, module, hermitian=k % 2 == 0)
            junk = junk_space(st_)
            want = eager_reference(module, a, junk)
            got = range_coordinate_values(module, a, junk)
            assert len(got.get("spectrum", ())) == len(want.get("spectrum", ()))
            worst = max(worst, worst_relative_gap(got, want))
            if kind == "diag" and k % 2 == 0:
                twins += 1
                module_u, a_u, _ = unitary_twin(module, a, rng)
                assert module_u.triple.points is None
                got_u = range_coordinate_values(module_u, a_u)
                worst = max(worst, worst_relative_gap(got_u, eager_reference(module_u, a_u)))
                assert got_u["norm"] == pytest.approx(got["norm"], rel=1e-12, abs=1e-12)
                if hermitian(a):
                    assert np.allclose(got_u["spectrum"], got["spectrum"], rtol=0, atol=1e-12)
        assert worst <= 1e-12
        assert twins >= 150 and min(kinds.values()) >= 150, kinds

    def test_fields_read_from_r_r_expand_nothing(self, monkeypatch):
        expanded = []
        expand = fgpmod.ConnectionOperators.expand
        monkeypatch.setattr(fgpmod.ConnectionOperators, "expand",
                            lambda self, x_r: expanded.append(x_r.shape) or expand(self, x_r))
        rng = rng_for(103)
        for kind in ("diag", "amp2"):
            module = random_module(rng, random_triple(rng, n=4, kind=kind), allow_free=False)
            report = curvature_report(module, random_connection(rng, module))
            assert report.route_residual <= 1e-10 and report.symmetry_residual <= 1e-10
            assert report.norm > 0 and expanded == []
            r = report.R
            assert r.shape == (module.dim, module.dim) and expanded == [report.R_r.shape]
            assert report.R is r
            assert report.evenness_residual <= 1e-10 and report.support_residual <= 1e-10
            assert report.junk_canonical.shape == r.shape
            assert len(expanded) == 1
            expanded.clear()

    def test_flipped_first_formula_term_fails_route_residual(self, ladder_modules,
                                                               monkeypatch):
        # +(W*W - T*T) in place of -(W*W - T*T): P[Dt,P][Dt,P]P with its sign flipped
        def flipped(ops):
            t, w, a_r = ops.t, ops.w, ops.a_r
            base = w.conj().T @ w - t.conj().T @ t
            return base + a_r @ a_r + anticommutator(t, a_r) - ops.a2_r

        cases = [(module, random_connection(rng_for(61), module)) for module in ladder_modules]
        assert all(curvature_report(*case).route_residual <= 1e-10 for case in cases)
        monkeypatch.setattr(curvature, "curvature_formula", flipped)
        for case in cases:
            assert curvature_report(*case).route_residual > 1e-3

    def test_range_blocks_are_what_the_routes_expand(self, ladder_modules):
        for module in ladder_modules:
            a = random_connection(rng_for(62), module)
            ops = connection_operators(module, a)
            report = curvature_report(module, a)
            r_r, f_r = curvature_direct(ops), curvature_formula(ops)
            rank = module.range_isometry.shape[1]
            assert r_r.shape == f_r.shape == (rank, rank)
            assert np.array_equal(report.R_r, r_r)
            assert np.array_equal(ops.expand(r_r), report.R)
            assert report.route_residual == relative_residual(r_r - f_r, r_r)

    def test_negated_direct_route_fails_route_residual(self, ladder_modules, monkeypatch):
        # the report and the correspondence decomposition take R_r from the
        # public direct route, so a plant there reaches both
        direct = curvature.curvature_direct
        cases = [(module, random_connection(rng_for(63), module)) for module in ladder_modules]
        verticals = [random_vertical(rng_for(64), module) for module, _ in cases]
        assert all(correspondence_report(*case, s).decomposition_residual <= 1e-10
                   for case, s in zip(cases, verticals))
        monkeypatch.setattr(curvature, "curvature_direct", lambda *a, **k: -direct(*a, **k))
        for case, s in zip(cases, verticals):
            assert curvature_report(*case).route_residual > 1e-3
            assert correspondence_report(*case, s).decomposition_residual > 1e-3
