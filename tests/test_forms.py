import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import SpectralTriple, forms
from ncgcurv.forms import (
    InternalConsistencyError,
    UniversalOneForm,
    delta,
    junk_space,
    kernel_one_forms,
    one_form_space,
    two_form_space,
    universal_form_basis,
)
from ncgcurv.generate import random_triple, random_universal_form, rng_for
from ncgcurv.glinalg import (
    anticommutator,
    frobenius_norm,
    membership_residual,
    project_off,
    solve_kernel,
    subspace_basis,
)
from ncgcurv.triple import InvariantViolation

from conftest import form_tables, full_svd_kernel, span_gap, svd_universal_form_basis


# The bimodule actions and the involution on universal one-forms.  Only these
# tests use them, to pin the calculus by hand expansions.

def left_mult(a_coeffs, omega: UniversalOneForm) -> UniversalOneForm:
    """Left module action a * omega, products re-expanded in the basis."""
    st_ = omega.triple
    out = np.einsum("l,lik,ij->kj", np.asarray(a_coeffs, dtype=complex), st_.mult_tensor,
                    omega.coeffs)
    return UniversalOneForm(st_, out)


def right_mult(omega: UniversalOneForm, b_coeffs) -> UniversalOneForm:
    """Right module action omega * b."""
    st_ = omega.triple
    out = np.einsum("ij,m,jmk->ik", omega.coeffs, np.asarray(b_coeffs, dtype=complex),
                    st_.mult_tensor)
    return UniversalOneForm(st_, out)


def star(omega: UniversalOneForm) -> UniversalOneForm:
    """Involution (x (x) y)^* = y^* (x) x^*, re-expanded in the basis."""
    S = omega.triple.star_matrix
    return UniversalOneForm(omega.triple,
                            np.einsum("ij,aj,bi->ab", np.conj(omega.coeffs), S, S))

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestDelta:
    def test_of_identity_vanishes(self, two_point):
        assert not np.any(delta(two_point, [1.0, 0.0]).coeffs)

    def test_coefficient_pattern(self, two_point):
        w = delta(two_point, [0.0, 1.0])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(w.coeffs, expected)

    def test_linearity(self, two_point):
        a = delta(two_point, [0.0, 0.5j])
        b = delta(two_point, [0.0, 1.0])
        assert np.allclose(a.coeffs, (0.5j * b).coeffs)

    def test_always_in_kernel_of_mult(self, n3):
        rng = rng_for(0)
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert delta(n3, coeffs).mult_residual() <= 1e-12


class TestModuleActions:
    def test_left_identity(self, two_point):
        w = delta(two_point, [0.0, 1.0])
        assert np.allclose(left_mult([1.0, 0.0], w).coeffs, w.coeffs, atol=1e-12)

    def test_left_zero(self, two_point):
        w = delta(two_point, [0.0, 1.0])
        assert not np.any(left_mult([0.0, 0.0], w).coeffs)

    def test_q_delta_q_table(self, two_point):
        # hand expansion: q(1 (x) q - q (x) 1) = q (x) q - q (x) 1
        w = left_mult([0.0, 1.0], delta(two_point, [0.0, 1.0]))
        expected = np.array([[0.0, 0.0], [-1.0, 1.0]])
        assert np.allclose(w.coeffs, expected, atol=1e-12)
        assert w.mult_residual() <= 1e-12

    def test_right_action_leibniz(self, two_point):
        # delta(q) q = 1 (x) q - q (x) q in the two-point algebra
        w = right_mult(delta(two_point, [0.0, 1.0]), [0.0, 1.0])
        expected = np.array([[0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(w.coeffs, expected, atol=1e-12)
        assert w.mult_residual() <= 1e-12

    def test_derivation_through_pi(self, n3):
        # pi_d(a * delta(b)) = a [D, b] exactly by construction
        rng = rng_for(1)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = left_mult(a, delta(n3, b))
        expected = n3.assemble(a) @ (n3.dirac @ n3.assemble(b) - n3.assemble(b) @ n3.dirac)
        assert np.allclose(w.pi_d(), expected, atol=1e-12)


class TestMultResidual:
    def test_delta_is_exact(self, two_point):
        assert delta(two_point, [0.0, 1.0]).mult_residual() == 0.0

    def test_unit_tensor_unit(self, two_point):
        w = UniversalOneForm(two_point, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert w.mult_residual() == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_sum_of_deltas(self, n3):
        w = delta(n3, [0.0, 1.0, 0.0]) + delta(n3, [0.0, 0.0, 2.0])
        assert w.mult_residual() <= 1e-12


class TestRepresentations:
    def test_pi_d_of_delta(self, two_point):
        out = delta(two_point, [0.0, 1.0]).pi_d()
        assert np.allclose(out, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_pi_d_of_delta_identity(self, two_point):
        assert not np.any(delta(two_point, [1.0, 0.0]).pi_d())

    def test_pi_d_left_multiplied(self, two_point):
        out = left_mult([0.0, 1.0], delta(two_point, [0.0, 1.0])).pi_d()
        assert np.allclose(out, np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_pi_d2_vanishes_when_dirac_squares_to_scalar(self, two_point):
        rng = rng_for(2)
        for _ in range(5):
            w = random_universal_form(rng, two_point)
            assert frobenius_norm(w.pi_d2()) <= 1e-12

    def test_pi_d2_direct_arithmetic(self, n3):
        w = delta(n3, [0.0, 1.0, 0.0])
        d2 = n3.dirac @ n3.dirac
        q1 = n3.basis[1]
        assert np.allclose(w.pi_d2(), d2 @ q1 - q1 @ d2, atol=1e-12)


class TestTwoForm:
    def test_q_delta_q(self, two_point):
        w = left_mult([0.0, 1.0], delta(two_point, [0.0, 1.0]))
        assert np.allclose(w.two_form(), np.diag([-1.0, -1.0]))

    def test_delta_identity(self, two_point):
        assert not np.any(delta(two_point, [1.0, 0.0]).two_form())

    def test_zero_form(self, two_point):
        w = 0.0 * delta(two_point, [0.0, 1.0])
        assert not np.any(w.two_form())

    def test_consistency_guard_fires(self, n3):
        w = delta(n3, [0.0, 1.0, 0.0])
        with pytest.raises(InternalConsistencyError):
            w.two_form(tol=-1.0)

    @given(SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_identity_against_anticommutator(self, seed):
        rng = np.random.default_rng(seed)
        st_rand = random_triple(rng)
        w = random_universal_form(rng, st_rand)
        direct = w.two_form()
        other = anticommutator(st_rand.dirac, w.pi_d()) - w.pi_d2()
        scale = max(1.0, frobenius_norm(direct))
        assert frobenius_norm(direct - other) <= 1e-9 * scale


class TestFormSpaces:
    def test_two_point_dimensions_match_oracle(self, two_point, two_point_oracle):
        assert one_form_space(two_point).dim == two_point_oracle["one_form_dim"] == 2
        assert two_form_space(two_point).dim == two_point_oracle["two_form_dim"] == 2
        assert junk_space(two_point).dim == two_point_oracle["junk_dim"] == 0

    def test_n3_dimensions_match_oracle(self, n3, n3_oracle):
        assert one_form_space(n3).dim == n3_oracle["one_form_dim"] == 4
        assert two_form_space(n3).dim == n3_oracle["two_form_dim"] == 5
        assert junk_space(n3).dim == n3_oracle["junk_dim"] == 2
        assert len(kernel_one_forms(n3)) == n3_oracle["kernel_dim"] == 2

    def test_commuting_dirac_gives_no_forms(self, two_point):
        st_flat = SpectralTriple(two_point.gamma, two_point.basis, np.zeros((2, 2)))
        assert one_form_space(st_flat).dim == 0
        assert two_form_space(st_flat).dim == 0
        assert junk_space(st_flat).dim == 0

    def test_scalars_only(self):
        st_scalar = SpectralTriple(np.diag([1.0, -1.0]), (np.eye(2),),
                                   np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert one_form_space(st_scalar).dim == 0
        assert two_form_space(st_scalar).dim == 0
        assert junk_space(st_scalar).dim == 0
        assert universal_form_basis(st_scalar) == []

    def test_bases_are_stacks(self, two_point, n3):
        # the zero-dimensional junk space of the two-point triple included
        for st_ in (two_point, n3):
            for space in (one_form_space(st_), two_form_space(st_), junk_space(st_)):
                assert space.basis.shape == (space.dim, st_.n, st_.n)
                assert space.basis.dtype == complex

    def test_universal_forms_dimension(self, two_point):
        # ker(m) has dimension d^2 - d when the basis spans a unital algebra
        assert len(universal_form_basis(two_point)) == 2


class TestJunk:
    def test_kernel_forms_represent_to_zero(self, n3):
        for w in kernel_one_forms(n3):
            assert frobenius_norm(w.pi_d()) <= 1e-12
            assert w.mult_residual() <= 1e-12

    def test_kernel_pi_d2_is_minus_two_form(self, n3):
        # with pi_d(w) = 0 the identity reads pi_d2(w) = -sum [D,b_i][D,b_j]
        for w in kernel_one_forms(n3):
            assert np.allclose(w.pi_d2(), -w.two_form(), atol=1e-10)

    def test_junk_inside_two_forms(self, n3):
        two = two_form_space(n3)
        for j in junk_space(n3).basis:
            assert two.membership(j) <= 1e-8

    def test_third_condition_follows(self, n3):
        for w in kernel_one_forms(n3):
            assert w.third_junk_residual() <= 1e-8

    def test_junk_basis_orthonormal(self, n3):
        basis = junk_space(n3).basis
        for i, b1 in enumerate(basis):
            for j, b2 in enumerate(basis):
                assert np.vdot(b1, b2) == pytest.approx(1.0 if i == j else 0.0,
                                                        abs=1e-10)


def _projector(basis: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projector onto the span of an orthonormal (k, n, n) stack."""
    vecs = np.reshape(basis, (len(basis), n * n))
    return vecs.T @ vecs.conj()


class TestJunkSpacePairStack:
    def test_pair_products_built_once(self, n3, ladder_modules, monkeypatch):
        # one stack holds both b_i [D, b_j] and b_i [D^2, b_j], for all forms;
        # each copy is a cold triple, so its kernel is really solved here
        triples = [n3] + [module.triple for module in ladder_modules]
        kernel_dims = [len(kernel_one_forms(st_)) for st_ in triples]
        calls = []
        pair_products = SpectralTriple.pair_products
        monkeypatch.setattr(SpectralTriple, "pair_products",
                            lambda self, right: calls.append(1) or pair_products(self, right))
        for st_ in triples:
            calls.clear()
            junk_space(copy.copy(st_))
            assert len(calls) == 1
        assert max(kernel_dims) > 2

    def test_bit_identical_to_per_form_reference(self, n3, ladder_modules):
        rng = rng_for(29)
        triples = [n3] + [module.triple for module in ladder_modules]
        triples += [random_triple(rng, kind="diag") for _ in range(10)]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(10)]
        for st_ in triples:
            basis = junk_space(st_).basis
            # the kernel over the forms b_i delta(b_j), j >= 1, then pi_d2 of
            # each kernel form contracted alone with its own b_i [D^2, b_j] stack
            d = st_.d
            pi_d = st_.pair_products(st_.dirac_commutators[1:]).reshape(d * (d - 1), st_.n ** 2)
            mats = [np.tensordot(x.reshape(d, d - 1),
                                 st_.pair_products(st_.dirac_sq_commutators[1:]), axes=2)
                    for x in solve_kernel(pi_d.T)]
            reference = subspace_basis(np.reshape(mats, (len(mats), st_.n, st_.n)))
            assert len(basis) == len(reference)
            for got, want in zip(basis, reference):
                assert np.array_equal(got, want)

    def test_span_agrees_with_kernel_one_forms_route(self, ladder_modules):
        # the SVD route: pi_d2 over the kernel of the m-rows stacked on pi_d
        rng = rng_for(31)
        triples = [module.triple for module in ladder_modules]
        triples += [random_triple(rng, kind="diag") for _ in range(200)]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(100)]
        dims = []
        for st_ in triples:
            basis = junk_space(st_).basis
            reference = subspace_basis([_svd_kernel_form(st_, row).pi_d2()
                                        for row in full_svd_kernel(st_)])
            assert len(basis) == len(reference)
            gap = np.linalg.norm(_projector(basis, st_.n) - _projector(reference, st_.n), 2)
            assert gap <= 1e-12
            dims.append(len(basis))
        assert min(dims) == 0 and max(dims) > 2

    def test_refuses_basis_not_unit_first(self, n3):
        # with b_0 != 1 the forms b_i delta(b_j) are no basis of ker(m)
        swapped = SpectralTriple(n3.gamma, n3.basis[[1, 0, 2]], n3.dirac)
        for route in (junk_space, kernel_one_forms, universal_form_basis):
            with pytest.raises(InvariantViolation) as err:
                route(swapped)
            assert err.value.check.name == "basis_unit_first"
            assert not err.value.check.passed
        # the SVD route, which needs no unit first, still sees the two junk forms of n3
        reference = subspace_basis([_svd_kernel_form(swapped, row).pi_d2()
                                    for row in full_svd_kernel(swapped)])
        assert len(reference) == junk_space(n3).dim == 2


class TestKernelMemo:
    """ker(m) intersect ker(pi_d) is solved once per (triple, rank_tol)."""

    @staticmethod
    def _counting_solves(monkeypatch) -> list:
        calls = []
        solve = forms.solve_kernel
        monkeypatch.setattr(forms, "solve_kernel",
                            lambda *args: calls.append(args[1:]) or solve(*args))
        return calls

    def test_one_solve_per_rank_tol(self, monkeypatch):
        st_ = random_triple(rng_for(47), n=4, kind="amp2")
        calls = self._counting_solves(monkeypatch)
        kernel = kernel_one_forms(st_)
        junk = junk_space(st_)
        assert len(kernel) > 0 and junk.dim > 0
        assert len(calls) == 1
        kernel_one_forms(st_, 1e-6)
        junk_space(st_, 1e-6)
        assert calls == [(1e-9,), (1e-6,)]
        # read from the memo, the results are those of a fresh solve
        fresh = copy.copy(st_)
        for got, want in zip(kernel, kernel_one_forms(fresh)):
            assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(junk.basis, junk_space(fresh).basis)
        assert np.array_equal(junk_space(st_).basis, junk.basis)
        assert len(calls) == 3

    def test_shared_images_are_read_only(self, n3):
        _, images = forms._delta_kernel(n3, 1e-9)
        assert len(images) == 2 and not images.flags.writeable

    def test_entry_freed_with_its_triple_and_not_copied(self, monkeypatch):
        st_ = random_triple(rng_for(47), n=4, kind="amp2")
        junk_space(st_)
        assert st_ in forms._KERNELS
        twin = copy.copy(st_)
        assert twin not in forms._KERNELS
        calls = self._counting_solves(monkeypatch)
        junk_space(twin)
        assert len(calls) == 1
        images = weakref.ref(forms._delta_kernel(st_, 1e-9)[1])
        triple = weakref.ref(st_)
        del st_, twin
        gc.collect()
        assert triple() is None and images() is None

    def test_refused_triple_raises_every_call_and_is_never_stored(self, n3):
        swapped = SpectralTriple(n3.gamma, n3.basis[[1, 0, 2]], n3.dirac)
        for route in (junk_space, kernel_one_forms, junk_space, kernel_one_forms):
            with pytest.raises(InvariantViolation, match="basis_unit_first"):
                route(swapped)
            assert swapped not in forms._KERNELS


def _svd_kernel_form(st_, row: np.ndarray) -> UniversalOneForm:
    return UniversalOneForm(st_, row.reshape(st_.d, st_.d))


class TestDeltaBasis:
    """ker(m) in the coordinates b_i delta(b_j), j >= 1, against the SVD routes."""

    def test_spans_agree_with_svd_routes(self, ladder_modules):
        rng = rng_for(37)
        triples = [module.triple for module in ladder_modules]
        triples += [random_triple(rng, kind="diag") for _ in range(200)]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(100)]
        kernel_dims = []
        for st_ in triples:
            for forms, reference in (
                    (universal_form_basis(st_), svd_universal_form_basis(st_)),
                    (kernel_one_forms(st_), full_svd_kernel(st_))):
                assert len(forms) == len(reference)
                assert span_gap(form_tables(forms, st_.d), reference) <= 1e-12
            kernel_dims.append(len(reference))
        assert min(kernel_dims) == 0 and max(kernel_dims) > 2

    def test_basis_tables_are_b_i_delta_b_j(self, n3, ladder_modules):
        rng = rng_for(41)
        triples = [n3] + [module.triple for module in ladder_modules]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(3)]
        for st_ in triples:
            basis = universal_form_basis(st_)
            pairs = [(i, j) for i in range(st_.d) for j in range(1, st_.d)]
            assert len(basis) == len(pairs)
            eye = np.eye(st_.d)
            for w, (i, j) in zip(basis, pairs):
                assert w.mult_residual() <= 1e-12
                assert np.array_equal(w.pi_d(), st_.basis[i] @ st_.dirac_commutators[j])
                want = left_mult(eye[i], delta(st_, eye[j])).coeffs
                assert np.linalg.norm(w.coeffs - want) <= 1e-12


class TestProjectModJunk:
    def test_empty_junk_is_identity(self, two_point):
        junk = junk_space(two_point)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(project_off(m, junk.basis), m)

    def test_junk_element_projects_to_zero(self, n3):
        junk = junk_space(n3)
        for j in junk.basis:
            assert frobenius_norm(project_off(j, junk.basis)) <= 1e-12

    def test_orthogonal_decomposition(self, n3):
        junk = junk_space(n3)
        rng = rng_for(3)
        perp = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for j in junk.basis:
            perp -= np.vdot(j, perp) * j
        mixed = perp + 0.7 * junk.basis[0]
        assert np.allclose(project_off(mixed, junk.basis), perp, atol=1e-12)
        assert membership_residual(mixed - project_off(mixed, junk.basis),
                                   list(junk.basis)) <= 1e-12


class TestStar:
    def test_involution(self, n3):
        rng = rng_for(4)
        w = random_universal_form(rng, n3)
        assert np.allclose(star(star(w)).coeffs, w.coeffs, atol=1e-12)

    def test_compatible_with_representation(self, n3):
        rng = rng_for(5)
        w = random_universal_form(rng, n3)
        assert np.allclose(star(w).pi_d(), w.pi_d().conj().T, atol=1e-12)
