import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import ProjectiveModule
from ncgcurv.curvature import curvature_report
from ncgcurv.fgpmod import (
    ConnectionForm,
    InvariantViolation,
    build_projector,
    connection_operators,
    hermitian_residual,
    product_operator,
    represent_connection,
    spectrum,
    symmetrize_connection,
    validate_connection,
    zero_connection,
)
from ncgcurv.forms import delta
from ncgcurv.generate import (
    random_connection,
    random_module,
    random_triple,
    rng_for,
)
from ncgcurv.glinalg import commutator, frobenius_norm

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def delta_connection(module, position=(0, 0), element=None):
    """Connection with a single universal-differential entry."""
    st_ = module.triple
    if element is None:
        element = np.zeros(st_.d)
        element[-1] = 1.0
    entries = np.zeros((module.m, module.m, st_.d, st_.d), dtype=complex)
    entries[position] = delta(st_, element).coeffs
    return ConnectionForm(module, entries)


class TestProjector:
    def test_free_module(self, free_module):
        assert np.allclose(build_projector(free_module), np.eye(4))

    def test_two_point_module(self, two_point_module):
        assert np.allclose(build_projector(two_point_module),
                           np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_non_idempotent_raises(self, two_point):
        p = np.zeros((1, 1, 2), dtype=complex)
        p[0, 0] = [2.0, 0.0]  # 2 * identity is not a projection
        module = ProjectiveModule(two_point, p, np.array([1.0]))
        with pytest.raises(InvariantViolation):
            build_projector(module)

    def test_shapes_enforced(self, two_point):
        with pytest.raises(ValueError):
            ProjectiveModule(two_point, np.zeros((2, 2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ProjectiveModule(two_point, np.zeros((2, 2, 2)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            ProjectiveModule(two_point, np.full((1, 1, 2), np.inf), np.array([1.0]))


class TestGrassmannOperator:
    def test_free_module_is_graded_lift(self, free_module, two_point):
        op = product_operator(free_module)
        expected = np.kron(np.diag([1.0, -1.0]), two_point.dirac)
        assert np.allclose(op.mat, expected)
        assert spectrum(op) == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_zero_module(self, two_point):
        p = np.zeros((2, 2, 2), dtype=complex)
        module = ProjectiveModule(two_point, p, np.array([1.0, -1.0]))
        op = product_operator(module)
        assert not np.any(op.mat)
        assert spectrum(op) == []

    def test_diagonal_module_matches_hand_assembly(self, two_point_module):
        # direct assembly oracle: compress the graded lift by the projector
        op = product_operator(two_point_module)
        proj = np.diag([1.0, 0.0, 0.0, 1.0])
        lift = np.kron(np.diag([1.0, -1.0]), two_point_module.triple.dirac)
        assert np.allclose(op.mat, proj @ lift @ proj)
        assert op.symmetry_residual() <= 1e-12

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_compressed(self, seed):
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        op = product_operator(module)
        assert op.symmetry_residual() <= 1e-10
        assert op.support_residual() <= 1e-10
        assert op.oddness_residual() <= 1e-10

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_pdp_identity(self, seed):
        # P [Dt, P] P = 0, the algebraic heart of the curvature formula
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        proj = module.projector
        inner = proj @ commutator(module.dirac_lift, proj) @ proj
        assert frobenius_norm(inner) <= 1e-12 * max(1.0, frobenius_norm(proj))

    def test_free_module_flat(self, free_module):
        assert not np.any(commutator(free_module.dirac_lift, free_module.projector))

    def test_scaling_dirac_scales_spectrum(self, two_point):
        from ncgcurv import SpectralTriple

        scaled = SpectralTriple(two_point.gamma, two_point.basis, 3.0 * two_point.dirac)
        p = np.zeros((2, 2, 2), dtype=complex)
        p[0, 0, 0] = 1
        p[1, 1, 0] = 1
        mod1 = ProjectiveModule(two_point, p, np.array([1.0, -1.0]))
        mod3 = ProjectiveModule(scaled, p, np.array([1.0, -1.0]))
        s1 = np.array(spectrum(product_operator(mod1)))
        s3 = np.array(spectrum(product_operator(mod3)))
        assert np.allclose(s3, 3.0 * s1)


class TestDiracLift:
    """Koszul sign of the graded lift Gamma (x) D of the odd Dirac matrix."""

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_odd_picks_up_grading(self, seed):
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        lift, grading = module.dirac_lift, module.grading
        assert np.linalg.norm(grading @ lift + lift @ grading) <= 1e-12 * max(
            1.0, np.linalg.norm(lift))


class TestRepresentConnection:
    def test_zero_connection(self, two_point_module):
        a_d, a_d2 = represent_connection(two_point_module,
                                         zero_connection(two_point_module))
        assert not np.any(a_d) and not np.any(a_d2)

    def test_delta_entries(self, free_module, two_point):
        a = delta_connection(free_module)
        a_d, a_d2 = a.represented()
        q = two_point.basis[1]
        assert np.allclose(a_d[:2, :2], commutator(two_point.dirac, q))
        assert np.allclose(a_d2[:2, :2],
                           commutator(two_point.dirac @ two_point.dirac, q))
        assert not np.any(a_d[2:, :]) and not np.any(a_d[:, 2:])

    def test_two_point_second_representation_vanishes(self, two_point_module):
        rng = rng_for(7)
        a = random_connection(rng, two_point_module)
        _, a_d2 = represent_connection(two_point_module, a)
        assert frobenius_norm(a_d2) <= 1e-12

    def test_grading_support_violation_raises(self, free_module):
        a = delta_connection(free_module, position=(0, 1))  # Gamma-odd slot
        with pytest.raises(InvariantViolation):
            represent_connection(free_module, a)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_compression_is_bimodule_map(self, seed):
        # represented(P C P) = P represented(C) P, also for a noncommutative
        # algebra (regression guard for the complex-kernel fix)
        rng = np.random.default_rng(seed)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, allow_free=False)
        a = random_connection(rng, module, hermitian=False)
        a_d, a_d2 = a.represented()
        c_d, c_d2 = a.compressed().represented()
        proj = module.projector
        assert np.allclose(c_d, proj @ a_d @ proj, atol=1e-10)
        assert np.allclose(c_d2, proj @ a_d2 @ proj, atol=1e-10)

    def test_compresses_the_represented_pair(self):
        rng = rng_for(17)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, allow_free=False)
        a = random_connection(rng, module)
        a_d, a_d2 = a.represented()
        proj = module.projector
        r_d, r_d2 = represent_connection(module, a)
        assert np.array_equal(r_d, proj @ a_d @ proj)
        assert np.array_equal(r_d2, proj @ a_d2 @ proj)

    def test_agrees_with_universal_compression(self, ladder_modules):
        # P pi(C) P against pi(P C P): equal on ker(m), up to rounding
        rng = rng_for(19)
        modules = [random_module(rng, random_triple(rng, kind="diag"), allow_free=False)
                   for _ in range(10)]
        modules += [random_module(rng, random_triple(rng, n=4, kind="amp2"),
                                  allow_free=False) for _ in range(10)]
        for module in modules + ladder_modules:
            a = random_connection(rng, module, hermitian=False)
            for got, want in zip(represent_connection(module, a),
                                 a.compressed().represented()):
                assert frobenius_norm(got - want) <= 1e-12 * max(1.0, frobenius_norm(want))

    def test_curvature_report_skips_universal_compression(self, monkeypatch):
        rng = rng_for(23)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"), allow_free=False)
        a = random_connection(rng, module)
        calls = []
        compressed = ConnectionForm.compressed
        monkeypatch.setattr(ConnectionForm, "compressed",
                            lambda self: calls.append(1) or compressed(self))
        curvature_report(module, a)
        assert calls == []

    def test_planted_bad_connections_still_raise(self, two_point_module):
        # pi_d(1 (x) 1) = 0 but 1 (x) 1 is not in ker(m)
        off_kernel = np.zeros((2, 2, 2, 2), dtype=complex)
        off_kernel[0, 0, 0, 0] = 1.0
        with pytest.raises(InvariantViolation) as err:
            represent_connection(two_point_module, ConnectionForm(two_point_module, off_kernel))
        assert err.value.check.name == "connection_ker_mult"
        # delta(q) at (0, 0) represents to [D, q], which P = diag(q, 1 - q) cuts
        with pytest.raises(InvariantViolation) as err:
            represent_connection(two_point_module, delta_connection(two_point_module))
        assert err.value.check.name == "connection_compressed"

    def test_validation_checks_pass_for_generated(self):
        rng = rng_for(11)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module)
        assert all(c.passed for c in validate_connection(module, a))


class TestProductOperator:
    def test_zero_form_reduces_to_grassmann(self, two_point_module):
        base = product_operator(two_point_module)
        op = product_operator(two_point_module, zero_connection(two_point_module))
        assert np.allclose(op.mat, base.mat)

    def test_hermitian_connection_gives_symmetric_operator(self):
        rng = rng_for(13)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module, hermitian=True)
        op = product_operator(module, a)
        assert op.symmetry_residual() <= 1e-10
        assert op.oddness_residual() <= 1e-10

    def test_free_module_additivity(self, free_module):
        a = symmetrize_connection(delta_connection(free_module))
        a_d, _ = represent_connection(free_module, a)
        base = product_operator(free_module).mat
        op = product_operator(free_module, a)
        assert np.allclose(op.mat, base + a_d)

    def test_sq_lift_free_module(self, free_module, two_point):
        n_op = connection_operators(free_module).n_op
        assert np.allclose(n_op, np.kron(np.eye(2), two_point.dirac @ two_point.dirac))

    def test_sq_lift_two_point_module(self, two_point_module):
        n_op = connection_operators(two_point_module).n_op
        assert np.allclose(n_op, two_point_module.projector)

    def test_sq_lift_with_delta_entries(self, free_module, two_point):
        a = delta_connection(free_module)
        n_op = connection_operators(free_module, a).n_op
        d2 = two_point.dirac @ two_point.dirac
        expected = np.kron(np.eye(2), d2).astype(complex)
        expected[:2, :2] += commutator(d2, two_point.basis[1])
        assert np.allclose(n_op, expected)

    def test_spectrum_rejects_nonsymmetric(self, free_module):
        op = product_operator(free_module)
        skew = type(op)(op.mat + 1j * np.eye(4), op.projector, op.grading)
        with pytest.raises(InvariantViolation):
            spectrum(skew)

    def test_spectrum_of_zero_operator(self, two_point_module):
        op = product_operator(two_point_module)
        # the compressed graded lift vanishes on this module; rank of P is 2
        assert spectrum(op) == pytest.approx([0.0, 0.0])


class TestHermitianResidual:
    def test_grassmann_is_hermitian(self, two_point_module):
        assert hermitian_residual(two_point_module) <= 1e-12

    def test_symmetrized_forms_pass(self):
        rng = rng_for(17)
        for _ in range(5):
            st_ = random_triple(rng)
            module = random_module(rng, st_)
            a = random_connection(rng, module, hermitian=True)
            assert hermitian_residual(module, a) <= 1e-10

    def test_deliberately_nonhermitian_fails(self):
        rng = rng_for(2)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, m=2, allow_free=False)
        a = random_connection(rng, module, hermitian=False)
        assert hermitian_residual(module, a) > 0.1

    def test_pairing_adjoint_is_involutive(self):
        rng = rng_for(19)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module, hermitian=False)
        again = a.pairing_adjoint().pairing_adjoint()
        assert np.allclose(again.entries, a.entries, atol=1e-10)

    def test_symmetrize_makes_represented_selfadjoint(self):
        rng = rng_for(23)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = symmetrize_connection(random_connection(rng, module, hermitian=False))
        a_d, _ = a.represented()
        assert frobenius_norm(a_d - a_d.conj().T) <= 1e-10
