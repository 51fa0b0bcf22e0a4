import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import SpectralTriple
from ncgcurv.curvature import (
    VerticalOperator,
    correspondence_curvature,
    correspondence_decomposition_residual,
    curvature_direct,
    curvature_formula,
    curvature_report,
    external_product_defect,
    external_product_defect_ungraded,
    junk_coset_residual,
    validate_vertical,
    wac_diagnostic,
)
from ncgcurv import curvature, forms, generate, glinalg, harness
from ncgcurv.fgpmod import (
    ConnectionForm,
    ProjectiveModule,
    connection_operators,
    hermitian_residual,
    symmetrize_connection,
    validate_connection,
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
from ncgcurv.glinalg import anticommutator, commutator, frobenius_norm, spectral_norm
from ncgcurv.triple import InvariantViolation

from test_fgpmod import delta_connection

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestDirectRoute:
    def test_free_module_flat(self, free_module):
        assert frobenius_norm(curvature_direct(free_module)) <= 1e-14

    def test_two_point_module(self, two_point_module, two_point_oracle):
        r = curvature_direct(two_point_module)
        expected = np.diag(two_point_oracle["curvature_diag"]).astype(complex)
        assert np.allclose(r, expected, atol=1e-12)
        assert np.allclose(r, np.diag([-1.0, 0.0, 0.0, -1.0]))
        assert spectral_norm(r) == pytest.approx(two_point_oracle["curvature_norm"],
                                                 abs=1e-10)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_grassmann_curvature_is_compressed_square(self, seed):
        # with A = 0 the curvature is P [Dt, P][Dt, P] P
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        proj = module.projector
        dp = commutator(module.dirac_lift, proj)
        assert np.allclose(curvature_direct(module), proj @ dp @ dp @ proj,
                           atol=1e-11)


class TestFormulaRoute:
    def test_matches_direct_without_connection(self, two_point_module):
        assert np.allclose(curvature_formula(two_point_module),
                           curvature_direct(two_point_module), atol=1e-12)

    def test_free_module_with_delta_form(self, free_module):
        # on a free module P = 1 and the formula is A^2 + [Dt, A]_+ - A_D2
        a = symmetrize_connection(delta_connection(free_module))
        ops = connection_operators(free_module, a)
        a_d, a_d2 = ops.a_d, ops.a_d2
        dt = free_module.dirac_lift
        expected = a_d @ a_d + anticommutator(dt, a_d) - a_d2
        assert np.allclose(curvature_formula(free_module, a), expected, atol=1e-12)
        assert np.allclose(curvature_direct(free_module, a), expected, atol=1e-12)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_route_equality_seeded(self, seed):
        rng = np.random.default_rng(seed)
        st_ = random_triple(rng)
        module = random_module(rng, st_)
        a = random_connection(rng, module, hermitian=True)
        direct = curvature_direct(module, a)
        formula = curvature_formula(module, a)
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

    def test_structure_invariants_seeded(self):
        rng = rng_for(31)
        for _ in range(5):
            st_ = random_triple(rng)
            module = random_module(rng, st_)
            a = random_connection(rng, module, hermitian=True)
            report = curvature_report(module, a)
            g = module.grading
            assert np.allclose(g @ report.R @ g, report.R, atol=1e-10)
            proj = module.projector
            assert np.allclose(proj @ report.R @ proj, report.R, atol=1e-10)
            assert report.symmetry_residual <= 1e-10


class TestJunkCoset:
    def test_equal_curvatures(self, two_point_module):
        r = curvature_direct(two_point_module)
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
        r1 = curvature_direct(module, a1)
        r2 = curvature_direct(module, a2)
        assert frobenius_norm(r1 - r2) > 1e-3

    def test_non_junk_shift_detected(self, two_point_module):
        # junk is empty here, so any nonzero difference is fully visible
        r = curvature_direct(two_point_module)
        shifted = r + two_point_module.projector
        assert junk_coset_residual(r, shifted, two_point_module) >= 0.1

    def test_non_junk_shift_detected_with_junk_present(self):
        rng = rng_for(43)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, m=2, allow_free=False)
        junk = junk_space(st_)
        assert junk.dim > 0
        r = curvature_direct(module)
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

    def test_harness_solves_each_kernel_once(self, monkeypatch):
        # one solve per drawn triple: the redraw test, the lift pair and the
        # junk space share it (three solves per scenario would be 15)
        calls = []
        solve = glinalg.solve_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(forms, "solve_kernel", counting)
        harness.residuals("junk_invariance", 0, 5)
        assert 5 <= len(calls) <= 10

    def test_junk_membership_solves_each_kernel_once(self, monkeypatch):
        # junk_space and kernel_one_forms of one triple share one solve
        calls = []
        solve = glinalg.solve_kernel
        monkeypatch.setattr(forms, "solve_kernel",
                            lambda *args: calls.append(1) or solve(*args))
        harness.residuals("junk_membership", 0, 5)
        assert len(calls) == 5

    def test_lifted_basis_empty_without_junk(self, two_point_module):
        assert junk_space(two_point_module.triple).dim == 0
        report = curvature_report(two_point_module)
        assert np.array_equal(report.junk_canonical, report.R)


def lifted_svd_canonical(r, module, junk, rank_tol=1e-9):
    """Reference: R minus its projection onto an SVD basis of the lifts
    P (E_kl (x) J) P, as the junk quotient was once computed."""
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
        r1 = curvature_direct(module, random_connection(rng, module))
        r2 = curvature_direct(module, random_connection(rng, module))
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
        corr = correspondence_curvature(two_point_module, None, s)
        assert np.allclose(corr, curvature_direct(two_point_module), atol=1e-12)

    def test_anticommuting_vertical_on_free_module(self, free_module):
        # S = antidiag(1, 1) anticommutes with diag(D, -D): the squares add
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0
        entries[1, 0, 0] = 1.0
        s = VerticalOperator(free_module, entries)
        corr = correspondence_curvature(free_module, None, s)
        assert frobenius_norm(corr) <= 1e-12
        assert wac_diagnostic(free_module, None, s) <= 1e-12

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
        corr = correspondence_curvature(module, a, s)
        m_op = connection_operators(module, a).m_op
        expected = curvature_direct(module, a) + anticommutator(s.matrix, m_op)
        assert np.allclose(corr, expected, atol=1e-10)

    def test_invalid_vertical_rejected(self, free_module):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0  # not self-adjoint: missing the (1, 0) block
        s = VerticalOperator(free_module, entries)
        with pytest.raises(InvariantViolation):
            correspondence_curvature(free_module, None, s)

    @pytest.mark.parametrize("function", [correspondence_curvature,
                                          correspondence_decomposition_residual,
                                          wac_diagnostic])
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
            correspondence_curvature(free_module, None, s)
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
            wac_diagnostic(two_point_module, None, s)
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
        assert connection_operators(module, ops) is ops
        assert np.array_equal(curvature_direct(module, ops), curvature_direct(module, a))
        assert calls == ["represented", "checks"] * 4


# each call reads a connection form or a vertical operator against a module
MODULE_READS = {
    "connection_operators": lambda m, a, s: connection_operators(m, a),
    "zero_form": lambda m, a, s: connection_operators(
        m, ConnectionForm(a.module, np.zeros_like(a.entries))),
    "validate_connection": lambda m, a, s: validate_connection(m, a),
    "hermitian_residual": lambda m, a, s: hermitian_residual(m, a),
    "curvature_direct": lambda m, a, s: curvature_direct(m, a),
    "correspondence_curvature": lambda m, a, s: correspondence_curvature(m, None, s),
    "correspondence_decomposition_residual":
        lambda m, a, s: correspondence_decomposition_residual(m, None, s),
    "wac_diagnostic": lambda m, a, s: wac_diagnostic(m, None, s),
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


def eager_reference(module, a):
    """R, its spectral norm and junk representative, with np.kron lifts."""
    st_ = module.triple
    ops = connection_operators(module, a)
    P = module.projector
    m_op = P @ np.kron(np.diag(module.signs), st_.dirac) @ P + ops.a_d
    n_op = P @ np.kron(np.eye(module.m), st_.dirac_sq) @ P + ops.a_d2
    r = m_op @ m_op - n_op
    junk = junk_space(st_)
    return r, spectral_norm(r), r - curvature._junk_projection(r, module, junk)


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
            r, norm, canonical = eager_reference(module, a)
            report = curvature_report(module, a)
            assert report.R.tobytes() == r.tobytes()
            assert report.norm == norm
            assert report.junk_canonical.tobytes() == canonical.tobytes()
            moved += frobenius_norm(canonical - r) >= 1e-3 * frobenius_norm(r)
        # junk moves R in the amp2 cases and on two ladder rungs
        assert moved == 6


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

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_seeded_pairs(self, seed):
        rng = np.random.default_rng(seed)
        st1 = random_triple(rng)
        st2 = random_triple(rng)
        bound = (spectral_norm(st1.dirac) + spectral_norm(st2.dirac)) ** 2
        assert spectral_norm(external_product_defect(st1, st2)) <= 1e-12 * bound
