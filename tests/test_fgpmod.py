import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ncgcurv import ProjectiveModule, SpectralTriple
from ncgcurv import fgpmod, harness
from ncgcurv.curvature import _block_lift, curvature_report
from ncgcurv.fgpmod import (
    ConnectionForm,
    connection_operators,
    hermitian_residual,
    pairing_adjoint_entries,
    spectrum,
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
    unit_disc,
)
from ncgcurv.glinalg import (
    commutator,
    frobenius_norm,
    relative_distance,
    relative_residual,
    support_residual,
)
from ncgcurv.scenario import parse_scenario
from ncgcurv.triple import DEFAULT_TOL, InvariantViolation

from reference import (delta_basis, kron_graded, kron_hermitian_residual, kron_lifts,
                       kron_parity_residual, kron_projector_even, symmetrized,
                       tensordot_reference, unitary_twin)


def delta_connection(module, position=(0, 0), element=None):
    """Connection with a single universal-differential entry."""
    st_ = module.triple
    if element is None:
        element = np.zeros(st_.d)
        element[-1] = 1.0
    entries = np.zeros((module.m, module.m, st_.d, st_.d), dtype=complex)
    entries[position] = delta(st_, element).coeffs
    return ConnectionForm(module, entries)


def point_kernel_gap(a) -> float:
    """Largest relative gap of A_D, A_D2 and the ker(m) defect to the tensordot reference.

    Each gap is taken relative to the larger of the reference's norm and the
    size of its terms, ||c||_F ||X||_F max|b|^2 for X = D, D^2 and 1: an output
    that vanishes in exact arithmetic (A_D2 when D^2 is central, mult on ker(m))
    is round-off on both routes, and is compared at that scale.
    """
    st_ = a.module.triple
    want, want_mult = tensordot_reference(a)
    terms = np.linalg.norm(a.entries) * np.abs(st_.basis_diagonal).max(initial=0.0) ** 2
    gaps = []
    for got, ref, x in zip(a.represented(), [*want, want_mult],
                           (st_.dirac, st_.dirac_sq, 1.0)):
        scale = max(np.linalg.norm(ref), terms * np.linalg.norm(x))
        gap = np.linalg.norm(got - ref)
        gaps.append(gap / scale if scale else float(gap != 0.0) * np.inf)
    return max(gaps)


def raw_form(rng, module) -> ConnectionForm:
    """A form with a random entry table, off ker(m): its mult term is not round-off."""
    m, d = module.m, module.triple.d
    return ConnectionForm(module, unit_disc(rng, (m, m, d, d)) * (rng.random((m, m, d, d)) < 0.6))


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

    def test_projector_even_is_the_kron_reference_bit_for_bit(self, uneven_module):
        # (Gamma (x) 1) P (Gamma (x) 1) = (g g^T) o P: only signs flip
        rng = rng_for(67)
        modules = [uneven_module]
        for kind in ("diag", "amp2") * 20:
            module = random_module(rng, random_triple(rng, n=4, kind=kind))
            modules += [module, unitary_twin(module, None, rng)[0]]
        for module in modules:
            even = {c.name: c for c in validate_module(module)}["projector_even"]
            assert even.value == kron_projector_even(module)
            assert even.passed == (module is not uneven_module)

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
        assert spectrum(connection_operators(free_module)) == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_zero_module(self, two_point):
        p = np.zeros((2, 2, 2), dtype=complex)
        module = ProjectiveModule(two_point, p, np.array([1.0, -1.0]))
        assert not np.any(connection_operators(module).m_op)
        assert spectrum(connection_operators(module)) == []

    def test_diagonal_module_matches_hand_assembly(self, two_point_module):
        # direct assembly oracle: compress the graded lift by the projector
        m_op = connection_operators(two_point_module).m_op
        proj = np.diag([1.0, 0.0, 0.0, 1.0])
        lift = np.kron(np.diag([1.0, -1.0]), two_point_module.triple.dirac)
        assert np.allclose(m_op, proj @ lift @ proj)
        assert relative_distance(m_op, m_op.conj().T) <= 1e-12

    def test_symmetric_and_compressed(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            module = random_module(rng, random_triple(rng))
            m_op = connection_operators(module).m_op
            assert relative_distance(m_op, m_op.conj().T) <= 1e-10
            assert support_residual(module.projector, m_op) <= 1e-10
            assert kron_parity_residual(module, m_op, odd=True) <= 1e-10

    def test_pdp_identity(self):
        # P [Dt, P] P = 0, the algebraic heart of the curvature formula
        for seed in range(25):
            rng = np.random.default_rng(seed)
            module = random_module(rng, random_triple(rng))
            proj = module.projector
            inner = proj @ commutator(kron_lifts(module)[1], proj) @ proj
            assert frobenius_norm(inner) <= 1e-12 * max(1.0, frobenius_norm(proj))

    def test_free_module_flat(self, free_module):
        assert not np.any(commutator(kron_lifts(free_module)[1], free_module.projector))

    def test_scaling_dirac_scales_spectrum(self, free_module, two_point):
        scaled = SpectralTriple(two_point.gamma, two_point.basis, 3.0 * two_point.dirac)
        mod3 = ProjectiveModule(scaled, free_module.p, free_module.signs)
        spec3, spec = (spectrum(connection_operators(m)) for m in (mod3, free_module))
        assert np.allclose(spec3, 3.0 * np.array(spec))


def sparse_draw(rng, dim):
    """A dim x dim complex draw with about 30% of its entries zero."""
    return unit_disc(rng, (dim, dim)) * (rng.random((dim, dim)) < 0.7)


def assert_graded_is_kron(module, x):
    # over a diagonal gamma, the entries of G x G from np.kron lifts; only a
    # zero may differ in sign (the matmul sums signed zeros)
    got, want = module.graded(x), kron_graded(module, x)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestBlockLifts:
    """The grading G = Gamma (x) gamma is applied by ``graded``, never assembled, and the
    one remaining lift, the external product's, holds the bits of np.kron."""

    def test_free_and_single_generator_modules(self, free_module, two_point):
        rng = rng_for(37)
        assert_graded_is_kron(free_module, sparse_draw(rng, free_module.dim))
        for sign in (1.0, -1.0):
            p = np.zeros((1, 1, 2), dtype=complex)
            p[0, 0, 1] = 1.0
            assert_graded_is_kron(ProjectiveModule(two_point, p, np.array([sign])),
                                  sparse_draw(rng, 2))

    def test_seeded_mixed_sign_modules(self):
        rng = rng_for(71)
        mixed = 0
        for kind in ("diag", "amp2") * 10:
            module = random_module(rng, random_triple(rng, n=4, kind=kind),
                                   m=int(rng.integers(2, 5)))
            mixed += len(set(module.signs)) == 2
            assert_graded_is_kron(module, sparse_draw(rng, module.dim))
        assert mixed >= 10

    def test_grassmann_odd_residual_is_the_dense_one(self):
        # the harness's ||G M + M G||_F, against the two dense products it replaced
        family = harness.FAMILIES["grassmann"]
        rng = rng_for(83)
        for k in range(40):
            module, a = family.draw(rng, k)
            m_op = connection_operators(module, a).m_op
            g = np.kron(np.diag(module.signs), module.triple.gamma)
            assert family.measure(module, a)[1] == frobenius_norm(g @ m_op + m_op @ g)

    def test_block_lift_is_kron_bit_for_bit(self):
        # the factors of the external-product defect, the lift's one caller: real
        # and complex factors, either side, with signed zeros among the entries
        rng = rng_for(79)
        for _ in range(300):
            p, q = (int(k) for k in rng.integers(1, 7, size=2))
            left, x = unit_disc(rng, (p, p)), unit_disc(rng, (q, q))
            left[rng.random((p, p)) < 0.3] = complex(-0.0, 0.0)
            x[rng.random((q, q)) < 0.3] = -0.0
            for a, b in ((left, x), (left, np.eye(q)), (np.eye(p), x),
                         (np.diag(np.sign(rng.normal(size=p))), x), (left.real, x.real)):
                got = _block_lift(a, b)
                assert got.dtype == np.kron(a, b).dtype
                assert got.tobytes() == np.kron(a, b).tobytes()


class TestSigns:
    @pytest.mark.parametrize("bad", [0.0, -0.0, 2.0, -2.0, np.inf, -np.inf, np.nan, 1e-300,
                                     np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)])
    def test_abs_one_refuses_what_isin_refused(self, two_point, bad):
        p = np.zeros((2, 2, 2), dtype=complex)
        p[0, 0, 0] = p[1, 1, 0] = 1.0
        for signs in ([1.0, bad], [bad, -1.0]):
            assert not np.all(np.isin(signs, (-1.0, 1.0)))  # the replaced check
            with pytest.raises(ValueError, match="must be \\+1 or -1"):
                ProjectiveModule(two_point, p, np.array(signs))
        for signs in ([1.0, -1.0], [-1.0, -1.0], [1, 1], [True, -1]):
            assert np.all(np.isin(signs, (-1.0, 1.0)))
            assert ProjectiveModule(two_point, p, np.array(signs)).signs.dtype == float


class TestRepresentConnection:
    def test_zero_connection(self, two_point_module):
        # an all-zero table, as a parsed scenario can hold, is the Grassmann connection
        zero = ConnectionForm(two_point_module, np.zeros((2, 2, 2, 2)))
        ops = connection_operators(two_point_module, zero)
        assert not np.any(ops.a_r) and not np.any(ops.a2_r)

    def test_delta_entries(self, free_module, two_point):
        a = delta_connection(free_module)
        a_d, a_d2, _ = a.represented()
        q = two_point.basis[1]
        assert np.allclose(a_d[:2, :2], commutator(two_point.dirac, q))
        assert np.allclose(a_d2[:2, :2],
                           commutator(two_point.dirac @ two_point.dirac, q))
        assert not np.any(a_d[2:, :]) and not np.any(a_d[:, 2:])

    def test_matches_tensordot_bit_for_bit(self):
        # without points the pair-stack gemm is np.tensordot's contraction and
        # reshape, done by hand, and rounds the same
        rng = rng_for(83)
        for kind in ("diag", "amp2", None) * 20:
            module = random_module(rng, random_triple(rng, n=4, kind=kind))
            a = random_connection(rng, module, hermitian=False)
            if module.triple.points is not None:
                module, a, _ = unitary_twin(module, a, rng)
            assert module.triple.points is None
            want, want_mult = tensordot_reference(a)
            a_d, a_d2, defect = a.represented()
            assert a_d.tobytes() == want[0].tobytes() and a_d2.tobytes() == want[1].tobytes()
            assert defect == want_mult

    def test_diagonal_bases_match_tensordot(self, ladder_modules):
        # the point kernel re-associates the sums: agreement at round-off
        rng = rng_for(83)
        modules = [random_module(rng, random_triple(rng, n=4, kind="diag")) for _ in range(40)]
        worst = 0.0
        for module in modules + ladder_modules:
            for a in (random_connection(rng, module, hermitian=False), raw_form(rng, module)):
                worst = max(worst, point_kernel_gap(a))
        assert worst <= 1e-12

    def test_two_point_second_representation_vanishes(self, two_point_module):
        rng = rng_for(7)
        a = random_connection(rng, two_point_module)
        ops = connection_operators(two_point_module, a)
        assert frobenius_norm(ops.expand(ops.a2_r)) <= 1e-12

    @pytest.mark.parametrize("odd, even, value", [(3.0, 4.0, 3 / 5), (0.375, 0.5, 0.375)])
    def test_grading_support_value(self, free_module, odd, even, value):
        # odd mass over max(1, ||table||_F): ||table||_F is 5, or 5/8 under the floor
        entries = np.zeros((2, 2, 2, 2), dtype=complex)
        entries[0, 1, 0, 1] = odd  # Gamma-odd slot
        entries[0, 0, 0, 1] = even
        checks = validate_connection(free_module, ConnectionForm(free_module, entries))
        support = next(c for c in checks if c.name == "connection_grading_support")
        assert support.value == value

    def test_grading_support_violation_raises(self, free_module):
        a = delta_connection(free_module, position=(0, 1))  # Gamma-odd slot
        with pytest.raises(InvariantViolation):
            connection_operators(free_module, a)

    def test_compression_is_bimodule_map(self):
        # represented(P C P) = P represented(C) P, also for a noncommutative
        # algebra (regression guard for the complex-kernel fix)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            st_ = random_triple(rng, n=4, kind="amp2")
            module = random_module(rng, st_, allow_free=False)
            a = random_connection(rng, module, hermitian=False)
            a_d, a_d2, _ = a.represented()
            compressed = ConnectionForm(module, generate._compress_connection(module, a.entries))
            c_d, c_d2, _ = compressed.represented()
            proj = module.projector
            assert np.allclose(c_d, proj @ a_d @ proj, atol=1e-10)
            assert np.allclose(c_d2, proj @ a_d2 @ proj, atol=1e-10)

    def test_compresses_the_represented_pair(self):
        rng = rng_for(17)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_, allow_free=False)
        a = random_connection(rng, module)
        a_d, a_d2, _ = a.represented()
        proj = module.projector
        ops = connection_operators(module, a)
        for got, raw in ((ops.expand(ops.a_r), a_d), (ops.expand(ops.a2_r), a_d2)):
            want = proj @ raw @ proj
            assert frobenius_norm(got - want) <= 1e-12 * max(1.0, frobenius_norm(want))

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
            for got, want in zip((ops.expand(ops.a_r), ops.expand(ops.a2_r)),
                                 compressed.represented()):
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

    def test_planted_bad_connections_still_raise(self, two_point_module, ladder_modules,
                                                 monkeypatch):
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

        # the same faults on the (20, 10, 6) rung, which only the point level reads
        module = ladder_modules[3]
        assert module.dim >= fgpmod.POINT_LEVEL_MIN_DIM
        monkeypatch.setattr(fgpmod, "_slot_level_blocks", None)
        rng = rng_for(71)
        i, j = next(zip(*np.nonzero(~module.even_mask)))
        one_one = np.zeros((6, 6, 10, 10), dtype=complex)
        one_one[0, 0, 0, 0] = 1.0
        bad = {
            "connection_compressed": generate._random_table_over(rng, module),
            "connection_grading_support": delta_connection(module, position=(i, j)).entries,
            "connection_ker_mult": one_one,
        }
        for name, entries in bad.items():
            with pytest.raises(InvariantViolation) as err:
                connection_operators(module, ConnectionForm(module, entries))
            assert err.value.check.name == name
        # a twin triple whose D couples two slots of different points in range(P)
        # with the same gamma: an entry that P keeps and that is gamma-even
        st_, points = module.triple, module.triple.points.argmax(axis=0)
        held = np.flatnonzero(module.range_isometry.reshape(6, st_.n, -1).any(axis=(0, 2)))
        x, y = next((x, y) for x in held for y in held
                    if points[x] != points[y] and st_.gamma[x, x] == st_.gamma[y, y])
        dirac = st_.dirac.copy()
        dirac[x, y] = dirac[y, x] = 1.0
        twin = ProjectiveModule(SpectralTriple(st_.gamma, st_.basis, dirac), module.p,
                                module.signs)
        with pytest.raises(InvariantViolation) as err:
            connection_operators(twin, random_connection(rng, twin))
        assert err.value.check.name == "connection_odd"

    def test_validation_checks_pass_for_generated(self):
        rng = rng_for(11)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module)
        assert all(c.passed for c in validate_connection(module, a))


class TestPointKernel:
    """A_D, A_D2 and the ker(m) defect over points, from one point kernel."""

    def test_seeded_diag_modules(self):
        rng = rng_for(101)
        worst, count = 0.0, 0
        for k in range(1000):
            module = random_module(rng, random_triple(rng, kind="diag"))
            for a in (random_connection(rng, module, hermitian=k % 2 == 0), raw_form(rng, module)):
                worst = max(worst, point_kernel_gap(a))
                count += 1
        assert worst <= 1e-12 and count == 2000

    def test_arbitrary_real_diagonal_bases(self):
        # zeros, negative and non-0/1 diagonals, drawn as TestPairProducts draws
        # them: no points, so they take the pair-stack route
        rng = rng_for(103)
        worst = 0.0
        for _ in range(200):
            n, d, m = (int(k) for k in rng.integers(1, 7, size=3))
            diag = rng.normal(size=(d, n)) * (rng.random((d, n)) < 0.7)
            dirac = unit_disc(rng, (n, n)) * (rng.random((n, n)) < 0.6)
            st_ = SpectralTriple(np.eye(n), diag[..., None] * np.eye(n), dirac)
            assert np.array_equal(st_.basis_diagonal, diag) and st_.points is None
            module = ProjectiveModule(st_, unit_disc(rng, (m, m, d)), rng.choice([-1.0, 1.0], m))
            worst = max(worst, point_kernel_gap(raw_form(rng, module)))
        assert worst <= 1e-12

    def test_builds_no_pair_stack(self, ladder_modules, monkeypatch):
        reads = []
        pair_products = SpectralTriple.pair_products
        monkeypatch.setattr(SpectralTriple, "pair_products",
                            lambda st_, right: reads.append("pair_products")
                            or pair_products(st_, right))
        for name in ("dirac_commutators", "dirac_sq_commutators"):
            stack = getattr(SpectralTriple, name).func
            monkeypatch.setattr(SpectralTriple, name, property(
                lambda st_, name=name, stack=stack: reads.append(name) or stack(st_)))
        rng = rng_for(107)
        for module in ladder_modules:
            a = random_connection(rng, module)
            reads.clear()
            a.represented()
            assert reads == []
        module = random_module(rng, random_triple(rng, n=4, kind="amp2"))
        a = random_connection(rng, module)
        reads.clear()
        a.represented()
        assert reads == ["dirac_commutators", "dirac_sq_commutators",
                         "pair_products", "pair_products"]

    def test_ker_mult_check_reuses_the_kernel(self, ladder_modules, monkeypatch):
        # connection_operators represents the form, then checks its ker(m)
        # defect: the check reads the defect of the one kernel build
        builds = []
        kernel = ConnectionForm._point_kernel
        monkeypatch.setattr(ConnectionForm, "_point_kernel",
                            lambda a: builds.append(a) or kernel(a))
        a = random_connection(rng_for(109), ladder_modules[1])
        connection_operators(a.module, a)
        assert builds == [a]
        checks = validate_connection(a.module, a)  # represents once more
        assert checks[0].name == "connection_ker_mult"
        assert builds == [a, a]
        assert checks[0].value == a.represented()[2] and builds == [a, a, a]


def point_level_cases(rng):
    """Seeded point modules with a +/-1 diagonal gamma on both sides of the gate.

    n = 16 and 20 with m = 6 and with m = 1, then draws of every size up to
    (20, 10, 6); every fifth module is free, every third draw permutes the slots
    (so neither the points nor gamma are contiguous), and every fourth gives D
    gamma-even entries, so that connection_odd reads more than round-off.  Each
    module carries a ker(m) connection and a raw table (:func:`raw_form`).
    """
    sizes = [(16, 6), (20, 6), (16, 1), (20, 1)]
    sizes += [(int(rng.integers(2, 21)), int(rng.integers(1, 7))) for _ in range(116)]
    for k, (n, m) in enumerate(sizes):
        st_ = random_triple(rng, n=n, d=int(rng.integers(1, n + 1)), kind="diag")
        gamma, basis, dirac = st_.gamma, st_.basis, st_.dirac
        if k % 3 == 2:
            perm = rng.permutation(n)
            gamma, dirac = gamma[np.ix_(perm, perm)], dirac[np.ix_(perm, perm)]
            basis = basis[:, perm][:, :, perm]
        if k % 4 == 3:
            even = unit_disc(rng, (n, n)) * (np.outer(np.diag(gamma), np.diag(gamma)) > 0)
            dirac = dirac + even + even.conj().T
        st_ = SpectralTriple(gamma, basis, dirac)
        if k % 5 == 4:
            module = ProjectiveModule(st_, generate._free_table(m, st_.d), np.ones(m))
        else:
            module = random_module(rng, st_, m=m, allow_free=False)
        yield module, random_connection(rng, module, hermitian=k % 2 == 0)
        yield module, raw_form(rng, module)


class TestPointLevel:
    """Connections over points read from the md x md point kernel, against the slot level."""

    def test_agrees_with_slot_level(self, ladder_modules):
        rng = rng_for(113)
        cases = [(module, random_connection(rng, module, hermitian=False))
                 for module in ladder_modules]
        cases += list(point_level_cases(rng))
        gated = [module.dim >= fgpmod.POINT_LEVEL_MIN_DIM for module, _ in cases]
        assert len(cases) == 244 and 40 <= sum(gated) <= 204
        worst_blocks = worst_checks = 0.0
        for module, a in cases:
            assert module.triple.points is not None
            assert module.triple.gamma_signs is not None
            grassmann = connection_operators(module)
            point, slot = (level(module, a, DEFAULT_TOL) for level in
                           (fgpmod._point_level_blocks, fgpmod._slot_level_blocks))
            for got, want in ((point[0], slot[0]), (point[1], slot[1]),
                              (grassmann.m_r + point[0], grassmann.m_r + slot[0]),
                              (grassmann.n_r + point[1], grassmann.n_r + slot[1])):
                worst_blocks = max(worst_blocks, relative_residual(got - want, want))
            assert [c.name for c in point[2]] == [c.name for c in slot[2]] == [
                "connection_ker_mult", "connection_grading_support",
                "connection_compressed", "connection_odd"]
            worst_checks = max(worst_checks, *(abs(p.value - s.value)
                                               for p, s in zip(point[2], slot[2])))
        assert worst_blocks <= 1e-12 and worst_checks <= 1e-13

    def test_top_rung_holds_no_mn_by_mn_array(self, ladder_modules):
        # the slot level holds about five 120 x 120 complex arrays at its peak
        base = ladder_modules[3]
        module = ProjectiveModule(base.triple, base.p, base.signs)  # its isometry cold
        a = random_connection(rng_for(127), base)
        a = ConnectionForm(module, a.entries, a.hermitian)
        tracemalloc.start()
        try:
            connection_operators(module, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert module.dim == 120 and peak < 16 * module.dim ** 2

    def test_level_is_chosen_by_points_gamma_and_size(self, ladder_modules, monkeypatch):
        monkeypatch.setattr(fgpmod, "_point_level_blocks", lambda *args: "point")
        monkeypatch.setattr(fgpmod, "_slot_level_blocks", lambda *args: "slot")
        rng = rng_for(131)
        top = ladder_modules[3]
        gamma = top.triple.gamma.copy()
        gamma[0, 1] = gamma[1, 0] = 1e-3  # no longer diagonal
        twins = [unitary_twin(top, None, rng)[0],
                 ProjectiveModule(replace(top.triple, gamma=gamma), top.p, top.signs)]
        levels = [fgpmod._represented_blocks(module, None, DEFAULT_TOL)
                  for module in [*ladder_modules, *twins]]
        assert levels == ["slot", "slot", "point", "point", "slot", "slot"]
        assert [module.dim for module in ladder_modules] == [24, 48, 96, 120]


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
        assert kron_parity_residual(module, m_op, odd=True) <= 1e-10

    def test_free_module_additivity(self, free_module):
        a = symmetrized(delta_connection(free_module))
        ops = connection_operators(free_module, a)
        base = connection_operators(free_module).m_op
        assert np.allclose(ops.m_op, base + ops.expand(ops.a_r))

    def test_sq_lift_free_module(self, free_module, two_point):
        ops = connection_operators(free_module)
        assert np.allclose(ops.expand(ops.n_r), np.kron(np.eye(2), two_point.dirac @ two_point.dirac))

    def test_sq_lift_two_point_module(self, two_point_module):
        ops = connection_operators(two_point_module)
        assert np.allclose(ops.expand(ops.n_r), two_point_module.projector)

    def test_sq_lift_with_delta_entries(self, free_module, two_point):
        a = delta_connection(free_module)
        ops = connection_operators(free_module, a)
        n_op = ops.expand(ops.n_r)
        d2 = two_point.dirac @ two_point.dirac
        expected = np.kron(np.eye(2), d2).astype(complex)
        expected[:2, :2] += commutator(d2, two_point.basis[1])
        assert np.allclose(n_op, expected)

    def test_spectrum_rejects_nonsymmetric(self, free_module):
        ops = connection_operators(free_module)
        skew = replace(ops, m_r=ops.m_r + 1j * np.eye(4))
        with pytest.raises(InvariantViolation):
            spectrum(skew)

    def test_spectrum_of_zero_operator(self, two_point_module):
        # the compressed graded lift vanishes on this module; rank of P is 2
        assert spectrum(connection_operators(two_point_module)) == pytest.approx([0.0, 0.0])


def fixture_modules(fixtures_dir):
    return [scen.module for scen in map(parse_scenario, sorted(fixtures_dir.glob("*.json")))
            if scen.module is not None]


class TestRangeIsometry:
    def _modules(self, ladder_modules, fixtures_dir):
        rng = rng_for(89)
        seeded = [random_module(rng, random_triple(rng, n=4 if kind == "amp2" else None,
                                                   kind=kind))
                  for kind in ("diag", "amp2", None) * 30]
        return fixture_modules(fixtures_dir) + ladder_modules + seeded

    def test_isometry_onto_range(self, ladder_modules, fixtures_dir):
        routes = set()
        for module in self._modules(ladder_modules, fixtures_dir):
            v, P = module.range_isometry, module.projector
            routes.add(module.triple.points is None)
            assert v.shape == (module.dim, round(np.trace(P).real))
            assert frobenius_norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-13
            assert frobenius_norm(v @ v.conj().T - P) <= 1e-13 * max(1.0, frobenius_norm(P))
        assert routes == {True, False}

    def test_point_route_assembles_no_projector(self, ladder_modules):
        module = replace(ladder_modules[3])
        assert module.range_isometry.shape == (120, 6)
        assert "projector" not in vars(module)

    def test_eigenvalues_far_from_the_cut(self, ladder_modules, fixtures_dir):
        # the rank cut at 1/2 sees only eigenvalues within 1e-12 of 0 or 1
        modules = fixture_modules(fixtures_dir) + ladder_modules
        assert len(modules) == 6
        for module in modules:
            vals = np.linalg.eigvalsh(module.projector)
            assert np.all(np.minimum(abs(vals), abs(vals - 1.0)) <= 1e-12)

    @pytest.mark.parametrize("kind", ["diag", "amp2"])
    def test_planted_tables_that_are_no_projection_raise(self, kind):
        rng = rng_for(91)
        module = random_module(rng, random_triple(rng, n=4, kind=kind), m=2, allow_free=False)
        st_ = module.triple
        upper = np.zeros_like(module.p)
        upper[0, 1] = st_.coords(np.eye(4)) * 0.25  # one triangle only: not self-adjoint
        for p in (2.0 * module.p, module.p + upper):
            bad = ProjectiveModule(st_, p, module.signs)
            with pytest.raises(InvariantViolation) as err:
                bad.range_isometry
            assert err.value.check.name == "projector_range_isometry"
            with pytest.raises(InvariantViolation):
                curvature_report(bad)
        assert module.range_isometry.shape[1] > 0


class TestGradingParity:
    """ProjectiveModule.graded and parity_residual against the np.kron reference."""

    odd = np.array([[0.0, 2.0], [2.0, 0.0]])
    even = np.diag([3.0, -1.0])

    def _cases(self, ladder_modules, two_point_module, uneven_module):
        rng = rng_for(29)
        modules = [two_point_module, uneven_module, *ladder_modules]
        modules += [random_module(rng, random_triple(rng, kind="diag")) for _ in range(40)]
        for module in modules:
            x = sparse_draw(rng, module.dim)
            gxg = kron_graded(module, x)
            yield module, x, (x - gxg) / 2, (x + gxg) / 2

    def test_diagonal_grading_matches_dense(self, ladder_modules, two_point_module,
                                            uneven_module):
        for module, *xs in self._cases(ladder_modules, two_point_module, uneven_module):
            assert module.triple.gamma_signs is not None
            for x in xs:
                assert_graded_is_kron(module, x)
                for odd in (True, False):
                    assert module.parity_residual(x, odd) == kron_parity_residual(module, x, odd)

    def test_other_gradings_take_the_block_products(self, two_point):
        # 1 (x) gamma per n-block and Gamma (x) 1 as a scaling, against np.kron: a
        # rotated and a scaled gamma, and the unitary twins of diag modules, with
        # G x G within 1e-15 of its largest entry and the residual within 1e-15
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rotated = ProjectiveModule(
            replace(two_point, gamma=u @ two_point.gamma @ u), np.zeros((1, 1, 2)), [1.0])
        scaled = ProjectiveModule(
            replace(two_point, gamma=np.diag([2.0, -1.0])), np.zeros((1, 1, 2)), [1.0])
        rng = rng_for(31)
        modules = [rotated, scaled]
        modules += [unitary_twin(random_module(rng, random_triple(rng, kind="diag")), None,
                                 rng)[0] for _ in range(300)]
        for module in modules:
            assert module.triple.gamma_signs is None
            x = unit_disc(rng, (module.dim, module.dim))
            got, want = module.graded(x), kron_graded(module, x)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            for odd in (True, False):
                assert module.parity_residual(x, odd) == pytest.approx(
                    kron_parity_residual(module, x, odd), rel=0, abs=1e-15)

    def _graded_two_point(self, two_point):
        # one generator of sign +1 over the two-point triple: G = gamma = diag(1, -1)
        return ProjectiveModule(two_point, np.zeros((1, 1, 2)), [1.0])

    def test_parity_residual_tells_odd_from_even(self, two_point):
        module = self._graded_two_point(two_point)
        assert module.parity_residual(self.odd, odd=True) == 0.0
        assert module.parity_residual(self.odd, odd=False) > 0.0
        assert module.parity_residual(self.even, odd=False) == 0.0
        assert module.parity_residual(self.even, odd=True) > 0.0

    def test_parity_norm_floor(self, two_point):
        # relative above norm 1, absolute below it
        module = self._graded_two_point(two_point)
        small = 0.1 * self.odd
        assert module.parity_residual(self.odd, odd=False) == pytest.approx(2.0)
        assert module.parity_residual(small, odd=False) == pytest.approx(
            2.0 * frobenius_norm(small))
        assert module.parity_residual(0.1 * self.even, odd=True) == pytest.approx(
            2.0 * frobenius_norm(0.1 * self.even))


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
        # the row scalings and block products against the Kronecker lifts and a
        # spectral norm per block: diag and amp2 modules with a generated form,
        # a raw one (odd slots, off ker(m)) and none, the unitary twins of the
        # diag ones, and the same tables with the first sign flipped, whose odd
        # blocks of P need not commute with Gamma (x) 1 or with 1 (x) D
        rng, cases = rng_for(73), []
        for k, kind in enumerate(("diag", "amp2") * 20):
            module = random_module(rng, random_triple(rng, n=4 if k % 2 else None, kind=kind))
            a = random_connection(rng, module, hermitian=k % 4 < 2)
            flipped = ProjectiveModule(module.triple, module.p,
                                       module.signs * np.r_[-1.0, np.ones(module.m - 1)])
            cases += [(module, a), (module, None), (module, raw_form(rng, module)),
                      (flipped, None), (flipped, raw_form(rng, flipped))]
            if kind == "diag":
                cases.append(unitary_twin(module, a, rng)[:2])
        worst, failing = 0.0, 0
        for module, a in cases:
            want = kron_hermitian_residual(module, a)
            worst = max(worst, abs(hermitian_residual(module, a) - want) / max(1.0, want))
            failing += want > 1e-3
        assert worst <= 1e-14 and failing >= 40

    def test_point_pairing_adjoint_is_the_einsum_bit_for_bit(self):
        # S = 1 over points: the conjugate transpose, with the +0.0 that the
        # sum over S leaves where an entry is -0.0
        rng = rng_for(83)
        seen = 0
        for _ in range(300):
            st_ = random_triple(rng)
            m = int(rng.integers(1, 5))
            module = ProjectiveModule(st_, generate._free_table(m, st_.d), np.ones(m))
            entries = unit_disc(rng, (m, m, st_.d, st_.d))
            entries[rng.random(entries.shape) < 0.3] = 0.0
            entries[rng.random(entries.shape) < 0.2] = complex(-0.0, -0.0)
            entries[rng.random(entries.shape) < 0.2] = 1.5  # real: conj gives -0.0j
            S = st_.star_matrix
            want = np.einsum("jipq,aq,bp->ijab", np.conj(entries), S, S)
            assert pairing_adjoint_entries(module, entries).tobytes() == want.tobytes()
            seen += st_.points is not None
        assert seen >= 250

    def test_pairing_adjoint_is_involutive(self):
        rng = rng_for(19)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = random_connection(rng, module, hermitian=False)
        again = pairing_adjoint_entries(module, pairing_adjoint_entries(module, a.entries))
        assert np.allclose(again, a.entries, atol=1e-10)

    def test_symmetrize_is_idempotent(self):
        rng = rng_for(29)
        for _ in range(20):
            module = random_module(rng, random_triple(rng, n=4, kind="amp2"))
            once = symmetrized(random_connection(rng, module, hermitian=False))
            twice = symmetrized(once)
            assert frobenius_norm(twice.entries - once.entries) <= 1e-14 * frobenius_norm(once.entries)

    def test_symmetrize_makes_represented_selfadjoint(self):
        rng = rng_for(23)
        st_ = random_triple(rng, n=4, kind="amp2")
        module = random_module(rng, st_)
        a = symmetrized(random_connection(rng, module, hermitian=False))
        a_d = a.represented()[0]
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
        # the table is symmetrized and compressed as an array: one form, the result
        a = random_connection(rng, module, hermitian=True)
        assert a.hermitian and built == [True]
        built.clear()
        assert not random_connection(rng, module, hermitian=False).hermitian
        assert built == [False]
        built.clear()
        a1, a2 = junk_lift_pair(rng, module)
        assert a1.hermitian and not a2.hermitian
        assert not np.array_equal(a1.entries, a2.entries)
        assert built == [True, False]  # a Hermitian connection, then one second lift

    def test_hermitian_draw_replays(self):
        # redone by hand from a copy of the stream: unit-disc weights over the
        # delta basis in each even slot, the average with the pairing adjoint,
        # then P . C . P
        for seed in range(50):
            rng = rng_for(seed)
            module = random_module(rng, random_triple(rng))
            replay = copy.deepcopy(rng)
            a = random_connection(rng, module, hermitian=True)
            basis = delta_basis(module.triple)
            entries = np.zeros_like(a.entries)
            for i, j in zip(*np.nonzero(module.even_mask)):
                for w, form in zip(unit_disc(replay, (len(basis),)), basis):
                    entries[i, j] += w * form.coeffs
            entries = 0.5 * (entries + pairing_adjoint_entries(module, entries))
            assert np.array_equal(a.entries, generate._compress_connection(module, entries))
