from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import ProjectiveModule
from ncgcurv.curvature import curvature_report
from ncgcurv.fgpmod import (
    ConnectionForm,
    connection_operators,
    hermitian_residual,
    spectrum,
    symmetrize_connection,
    validate_connection,
    validate_module,
)
from ncgcurv.forms import delta
from ncgcurv import generate
from ncgcurv.generate import (
    junk_lift_pair,
    random_connection,
    random_module,
    random_triple,
    rng_for,
)
from ncgcurv.glinalg import (
    commutator,
    frobenius_norm,
    parity_residual,
    relative_distance,
    spectral_norm,
    support_residual,
)
from ncgcurv.triple import InvariantViolation

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
        assert all(c.passed for c in validate_module(free_module))
        assert np.allclose(free_module.projector, np.eye(4))

    def test_two_point_module(self, two_point_module):
        assert all(c.passed for c in validate_module(two_point_module))
        assert np.allclose(two_point_module.projector, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_non_idempotent_fails_validation(self, two_point):
        p = np.zeros((1, 1, 2), dtype=complex)
        p[0, 0] = [2.0, 0.0]  # 2 * identity is not a projection
        module = ProjectiveModule(two_point, p, np.array([1.0]))
        failed = [c.name for c in validate_module(module) if not c.passed]
        assert failed == ["projector_idempotent"]

    def test_uneven_projector_fails_only_evenness(self, uneven_module):
        checks = {c.name: c for c in validate_module(uneven_module)}
        assert checks["projector_idempotent"].value == 0.0
        assert checks["projector_selfadjoint"].value == 0.0
        # ||G P G - P||_F = ||[[0, -1], [-1, 0]] (x) 1||_F = 2 over ||P||_F = sqrt(2)
        assert checks["projector_even"].value == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert [name for name, c in checks.items() if not c.passed] == ["projector_even"]

    def test_shapes_enforced(self, two_point):
        with pytest.raises(ValueError):
            ProjectiveModule(two_point, np.zeros((2, 2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ProjectiveModule(two_point, np.zeros((2, 2, 2)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            ProjectiveModule(two_point, np.full((1, 1, 2), np.inf), np.array([1.0]))


class TestGrassmannOperator:
    def test_free_module_is_graded_lift(self, free_module, two_point):
        m_op = connection_operators(free_module).m_op
        expected = np.kron(np.diag([1.0, -1.0]), two_point.dirac)
        assert np.allclose(m_op, expected)
        assert spectrum(free_module) == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_zero_module(self, two_point):
        p = np.zeros((2, 2, 2), dtype=complex)
        module = ProjectiveModule(two_point, p, np.array([1.0, -1.0]))
        assert not np.any(connection_operators(module).m_op)
        assert spectrum(module) == []

    def test_diagonal_module_matches_hand_assembly(self, two_point_module):
        # direct assembly oracle: compress the graded lift by the projector
        m_op = connection_operators(two_point_module).m_op
        proj = np.diag([1.0, 0.0, 0.0, 1.0])
        lift = np.kron(np.diag([1.0, -1.0]), two_point_module.triple.dirac)
        assert np.allclose(m_op, proj @ lift @ proj)
        assert relative_distance(m_op, m_op.conj().T) <= 1e-12

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_compressed(self, seed):
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        m_op = connection_operators(module).m_op
        assert relative_distance(m_op, m_op.conj().T) <= 1e-10
        assert support_residual(module.projector, m_op) <= 1e-10
        assert parity_residual(module.grading, m_op, odd=True) <= 1e-10

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
        s1 = np.array(spectrum(mod1))
        s3 = np.array(spectrum(mod3))
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


def kron_lifts(module):
    """Each ProjectiveModule lift with its np.kron reference."""
    st_ = module.triple
    signs, eye_m = np.diag(module.signs), np.eye(module.m)
    return [
        (module.grading, np.kron(signs, st_.gamma)),
        (module.sign_lift, np.kron(signs, np.eye(st_.n))),
        (module.dirac_lift, np.kron(signs, st_.dirac)),
        (module.dirac_plain_lift, np.kron(eye_m, st_.dirac)),
        (module.dirac_sq_lift_free, np.kron(eye_m, st_.dirac_sq)),
    ]


def assert_lifts_are_kron(module):
    for lift, reference in kron_lifts(module):
        assert lift.dtype == reference.dtype
        assert np.array_equal(lift, reference)
        assert lift.tobytes() == reference.tobytes()


class TestBlockLifts:
    """The broadcast lifts hold exactly the entries of np.kron."""

    def test_free_and_single_generator_modules(self, free_module, two_point):
        assert_lifts_are_kron(free_module)
        for sign in (1.0, -1.0):
            p = np.zeros((1, 1, 2), dtype=complex)
            p[0, 0, 1] = 1.0
            assert_lifts_are_kron(ProjectiveModule(two_point, p, np.array([sign])))

    def test_seeded_mixed_sign_modules(self):
        rng = rng_for(71)
        mixed = 0
        for kind in ("diag", "amp2") * 10:
            module = random_module(rng, random_triple(rng, n=4, kind=kind),
                                   m=int(rng.integers(2, 5)))
            mixed += len(set(module.signs)) == 2
            assert_lifts_are_kron(module)
        assert mixed >= 10


class TestRepresentConnection:
    def test_zero_connection(self, two_point_module):
        # an all-zero table, as a parsed scenario can hold, is the Grassmann connection
        zero = ConnectionForm(two_point_module, np.zeros((2, 2, 2, 2)))
        ops = connection_operators(two_point_module, zero)
        assert not np.any(ops.a_d) and not np.any(ops.a_d2)

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
        a_d2 = connection_operators(two_point_module, a).a_d2
        assert frobenius_norm(a_d2) <= 1e-12

    def test_grading_support_violation_raises(self, free_module):
        a = delta_connection(free_module, position=(0, 1))  # Gamma-odd slot
        with pytest.raises(InvariantViolation):
            connection_operators(free_module, a)

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
        compressed = ConnectionForm(module, generate._compress_connection(module, a.entries))
        c_d, c_d2 = compressed.represented()
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
        ops = connection_operators(module, a)
        assert np.array_equal(ops.a_d, proj @ a_d @ proj)
        assert np.array_equal(ops.a_d2, proj @ a_d2 @ proj)

    def test_agrees_with_universal_compression(self, ladder_modules):
        # P pi(C) P against pi(P C P): equal on ker(m), up to rounding
        rng = rng_for(19)
        modules = [random_module(rng, random_triple(rng, kind="diag"), allow_free=False)
                   for _ in range(10)]
        modules += [random_module(rng, random_triple(rng, n=4, kind="amp2"),
                                  allow_free=False) for _ in range(10)]
        for module in modules + ladder_modules:
            a = random_connection(rng, module, hermitian=False)
            ops = connection_operators(module, a)
            compressed = ConnectionForm(module, generate._compress_connection(module, a.entries))
            for got, want in zip((ops.a_d, ops.a_d2), compressed.represented()):
                assert frobenius_norm(got - want) <= 1e-12 * max(1.0, frobenius_norm(want))

    def test_curvature_report_skips_universal_compression(self, monkeypatch):
        rng = rng_for(23)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"), allow_free=False)
        a = random_connection(rng, module)
        calls = []
        compressed = generate._compress_connection
        monkeypatch.setattr(generate, "_compress_connection",
                            lambda *args: calls.append(1) or compressed(*args))
        curvature_report(module, a)
        assert calls == []

    def test_planted_bad_connections_still_raise(self, two_point_module):
        # pi_d(1 (x) 1) = 0 but 1 (x) 1 is not in ker(m)
        off_kernel = np.zeros((2, 2, 2, 2), dtype=complex)
        off_kernel[0, 0, 0, 0] = 1.0
        with pytest.raises(InvariantViolation) as err:
            connection_operators(two_point_module, ConnectionForm(two_point_module, off_kernel))
        assert err.value.check.name == "connection_ker_mult"
        # delta(q) at (0, 0) represents to [D, q], which P = diag(q, 1 - q) cuts
        with pytest.raises(InvariantViolation) as err:
            connection_operators(two_point_module, delta_connection(two_point_module))
        assert err.value.check.name == "connection_compressed"

    def test_validation_checks_pass_for_generated(self):
        rng = rng_for(11)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module)
        assert all(c.passed for c in validate_connection(module, a))


class TestProductOperator:
    def test_zero_form_reduces_to_grassmann(self, two_point_module):
        base = connection_operators(two_point_module).m_op
        zero = ConnectionForm(two_point_module, np.zeros((2, 2, 2, 2)))
        m_op = connection_operators(two_point_module, zero).m_op
        assert np.allclose(m_op, base)

    def test_hermitian_connection_gives_symmetric_operator(self):
        rng = rng_for(13)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module, hermitian=True)
        m_op = connection_operators(module, a).m_op
        assert relative_distance(m_op, m_op.conj().T) <= 1e-10
        assert parity_residual(module.grading, m_op, odd=True) <= 1e-10

    def test_free_module_additivity(self, free_module):
        a = symmetrize_connection(delta_connection(free_module))
        ops = connection_operators(free_module, a)
        base = connection_operators(free_module).m_op
        assert np.allclose(ops.m_op, base + ops.a_d)

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
        ops = connection_operators(free_module)
        skew = replace(ops, m_op=ops.m_op + 1j * np.eye(4))
        with pytest.raises(InvariantViolation):
            spectrum(free_module, skew)

    def test_spectrum_of_zero_operator(self, two_point_module):
        # the compressed graded lift vanishes on this module; rank of P is 2
        assert spectrum(two_point_module) == pytest.approx([0.0, 0.0])


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

    def test_matches_blockwise_spectral_norms(self):
        # reference: the largest spectral norm over the m^2 blocks, one at a time
        def blockwise(module, a):
            P, n = module.projector, module.triple.n
            W = commutator(module.dirac_lift, P)
            if a is not None:
                W = W + a.represented()[0]
            res = (module.sign_lift @ P @ W - module.sign_lift @ W.conj().T @ P
                   - commutator(module.dirac_plain_lift, P))
            blocks = res.reshape(module.m, n, module.m, n)
            return max(spectral_norm(blocks[i, :, j, :])
                       for i in range(module.m) for j in range(module.m))

        rng = rng_for(73)
        for hermitian in (True, False) * 5:
            module = random_module(rng, random_triple(rng, n=4, kind="amp2"))
            a = random_connection(rng, module, hermitian=hermitian)
            assert hermitian_residual(module, a) == blockwise(module, a)
            assert hermitian_residual(module) == blockwise(module, None)

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


class TestGeneratedConnectionForms:
    """Generation composes tables as arrays and builds each returned form once."""

    def test_forms_built_per_generated_connection(self, monkeypatch):
        rng = rng_for(47)
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"), allow_free=False)
        built = []
        post_init = ConnectionForm.__post_init__
        monkeypatch.setattr(ConnectionForm, "__post_init__",
                            lambda self: built.append(self.hermitian) or post_init(self))
        # the table, its pairing adjoint, the average, the compressed result
        a = random_connection(rng, module, hermitian=True)
        assert a.hermitian and len(built) == 4
        built.clear()
        assert not random_connection(rng, module, hermitian=False).hermitian
        assert built == [False]
        built.clear()
        a1, a2 = junk_lift_pair(rng, module)
        assert a1.hermitian and not a2.hermitian
        assert not np.array_equal(a1.entries, a2.entries)
        assert len(built) == 4 + 1  # a Hermitian connection, then one second lift
