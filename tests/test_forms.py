import copy

import numpy as np
import pytest

from ncgcurv import SpectralTriple, forms
from ncgcurv.forms import (
    InternalConsistencyError,
    UniversalOneForm,
    delta,
    junk_space,
    kernel_one_forms,
    one_form_space,
    two_form_space,
)
from ncgcurv.generate import random_triple, random_universal_form, rng_for
from ncgcurv.glinalg import (
    anticommutator,
    frobenius_norm,
    membership_residual,
    orthonormality_defect,
    project_off,
    solve_kernel,
    subspace_basis,
)
from ncgcurv.triple import InvariantViolation

from reference import (broadcast_junk_basis, conjugated, delta_basis, even_unitary,
                       form_tables, full_svd_kernel, span_gap, span_projector,
                       svd_universal_form_basis)


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
        assert np.allclose(a.coeffs, 0.5j * b.coeffs)

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
        w = UniversalOneForm(n3, delta(n3, [0.0, 1.0, 0.0]).coeffs
                             + delta(n3, [0.0, 0.0, 2.0]).coeffs)
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
        w = UniversalOneForm(two_point, 0.0 * delta(two_point, [0.0, 1.0]).coeffs)
        assert not np.any(w.two_form())

    def test_consistency_guard_fires(self, n3):
        w = delta(n3, [0.0, 1.0, 0.0])
        with pytest.raises(InternalConsistencyError):
            w.two_form(tol=-1.0)

    def test_identity_against_anticommutator(self):
        for seed in range(30):
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
        assert delta_basis(st_scalar) == []

    def test_bases_are_stacks(self, two_point, n3):
        # the zero-dimensional junk space of the two-point triple included
        for st_ in (two_point, n3):
            for space in (one_form_space(st_), two_form_space(st_), junk_space(st_)):
                assert space.basis.shape == (space.dim, st_.n, st_.n)
                assert space.basis.dtype == complex

    def test_universal_forms_dimension(self, two_point):
        # ker(m) has dimension d^2 - d when the basis spans a unital algebra
        assert len(delta_basis(two_point)) == 2


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
            assert membership_residual(j, two.basis) <= 1e-8

    def test_third_condition_follows(self, n3):
        for w in kernel_one_forms(n3):
            assert w.third_junk_residual() <= 1e-8

    def test_junk_basis_orthonormal(self, n3):
        basis = junk_space(n3).basis
        for i, b1 in enumerate(basis):
            for j, b2 in enumerate(basis):
                assert np.vdot(b1, b2) == pytest.approx(1.0 if i == j else 0.0,
                                                        abs=1e-10)


def _recording(monkeypatch, owner, name: str, arg: int = 0) -> list:
    """Record argument ``arg`` of every call of ``owner.name``: the triple that
    junk_space sends to its SVD route, the matrix handed to solve_kernel, the
    right-hand stack of pair_products."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args[arg]) or real(*args))
    return calls


def _svd_route_triples(rng, n3, ladder_modules) -> list[SpectralTriple]:
    """Conjugates of n3 and the ladder triples by even unitaries: no closed form."""
    return [conjugated(st_, even_unitary(rng, st_.gamma))
            for st_ in [n3] + [module.triple for module in ladder_modules]]


class TestJunkSpacePairStack:
    """The SVD route of junk_space, on triples that are no commutative projection basis."""

    def test_pair_products_built_once(self, n3, ladder_modules, monkeypatch):
        # one pair-product call per stack, b_i [D, b_j] for the kernel and
        # b_i [D^2, b_j] for the images, and no pi_d2 stack on a kernel-only call
        rng = rng_for(43)
        triples = _svd_route_triples(rng, n3, ladder_modules)
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(3)]
        kernel_dims = [len(kernel_one_forms(st_)) for st_ in triples]
        calls = _recording(monkeypatch, SpectralTriple, "pair_products", 1)
        for st_ in triples:
            pi_d, pi_d2 = st_.dirac_commutators[1:], st_.dirac_sq_commutators[1:]
            calls.clear()
            junk_space(st_)
            assert len(calls) == 2
            assert np.array_equal(calls[0], pi_d) and np.array_equal(calls[1], pi_d2)
            calls.clear()
            kernel_one_forms(st_)
            assert len(calls) == 1 and np.array_equal(calls[0], pi_d)
        assert max(kernel_dims) > 2

    def test_bit_identical_to_per_form_reference(self, n3, ladder_modules, monkeypatch):
        rng = rng_for(29)
        triples = _svd_route_triples(rng, n3, ladder_modules)
        triples += [conjugated(st_, even_unitary(rng, st_.gamma))
                    for st_ in (random_triple(rng, kind="diag") for _ in range(10))]
        triples += [random_triple(rng, n=4, kind="amp2") for _ in range(10)]
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        for st_ in triples:
            basis = junk_space(st_).basis
            assert st_ in routed  # the SVD route was taken
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
            assert len(basis) == len(reference) and orthonormality_defect(basis) <= 1e-12
            assert span_gap(basis, reference) <= 1e-12
            dims.append(len(basis))
        assert min(dims) == 0 and max(dims) > 2

    def test_refuses_basis_not_unit_first(self, n3):
        # with b_0 != 1 the forms b_i delta(b_j) are no basis of ker(m)
        swapped = SpectralTriple(n3.gamma, n3.basis[[1, 0, 2]], n3.dirac)
        svd_route = lambda st_: forms._junk_space_svd(st_, 1e-9)  # noqa: E731
        for route in (junk_space, svd_route, kernel_one_forms, delta_basis):
            with pytest.raises(InvariantViolation) as err:
                route(swapped)
            assert err.value.check.name == "basis_unit_first"
            assert not err.value.check.passed
        # a diagonal 0/1 basis[0] that is not 1 is refused on the closed-form path too
        for route in (junk_space, kernel_one_forms):
            with pytest.raises(InvariantViolation, match="basis_unit_first"):
                route(SpectralTriple(n3.gamma, [np.diag([1.0, 1, 0]), *n3.basis[1:]], n3.dirac))
        # the SVD route, which needs no unit first, still sees the two junk forms of n3
        reference = subspace_basis([_svd_kernel_form(swapped, row).pi_d2()
                                    for row in full_svd_kernel(swapped)])
        assert len(reference) == junk_space(n3).dim == 2

    def test_refused_triple_raises_every_call(self, n3):
        swapped = SpectralTriple(n3.gamma, n3.basis[[1, 0, 2]], n3.dirac)
        for route in (junk_space, kernel_one_forms, junk_space, kernel_one_forms):
            with pytest.raises(InvariantViolation, match="basis_unit_first"):
                route(swapped)

    def test_cold_kernel_only_call_builds_only_the_pi_d_stack(self, ladder_modules,
                                                              monkeypatch):
        # on the SVD route kernel_one_forms multiplies out the (d - 1, n, n)
        # stack of [D, b_j] and nothing else (over points it multiplies nothing)
        rng = rng_for(47)
        triples = [random_triple(rng, n=4, kind="amp2")]
        triples += [conjugated(module.triple, even_unitary(rng, module.triple.gamma))
                    for module in ladder_modules]
        for st_ in triples:
            # structure constants cached first, as generation leaves them
            assert st_.mult_tensor.shape == (st_.d,) * 3
        calls = _recording(monkeypatch, SpectralTriple, "pair_products", 1)
        for st_ in triples:
            calls.clear()
            kernel_one_forms(copy.copy(st_))
            assert [c.shape for c in calls] == [(st_.d - 1, st_.n, st_.n)]


class TestClosedFormJunk:
    """junk_space of a commutative projection basis: the blocks e_k D^2 e_l."""

    @staticmethod
    def _recording_routes(monkeypatch) -> list[str]:
        calls = []
        for name in ("solve_kernel", "subspace_basis"):
            monkeypatch.setattr(forms, name, lambda *args, _f=getattr(forms, name), _n=name:
                                calls.append(_n) or _f(*args))
        pair_products = SpectralTriple.pair_products
        monkeypatch.setattr(SpectralTriple, "pair_products",
                            lambda self, right: calls.append("pair_products")
                            or pair_products(self, right))
        return calls

    def test_cold_call_runs_no_svd_and_no_pair_products(self, n3, ladder_modules,
                                                        monkeypatch):
        triples = [n3] + [copy.copy(module.triple) for module in ladder_modules]
        triples += [random_triple(rng_for(53), kind="diag") for _ in range(20)]
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        calls = self._recording_routes(monkeypatch)
        dims = [junk_space(st_).dim for st_ in triples]
        assert calls == []
        assert routed == []
        assert dims[:5] == [2, 2, 12, 8, 18]
        # the recorder does record the SVD route
        forms._junk_space_svd(copy.copy(n3), 1e-9)
        assert calls == ["pair_products", "solve_kernel", "pair_products", "subspace_basis"]

    def test_agrees_with_svd_route(self, monkeypatch):
        rng = rng_for(59)
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        dims = []
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            st_ = random_triple(rng, n=n, d=int(rng.integers(1, min(6, n) + 1)), kind="diag")
            fast = junk_space(st_)
            assert st_ not in routed
            reference = forms._junk_space_svd(st_, 1e-9)
            assert fast.dim == reference.dim
            assert fast.basis.shape == (fast.dim, n, n) and fast.basis.dtype == complex
            assert span_gap(fast.basis, reference.basis) <= 1e-12
            assert orthonormality_defect(fast.basis) <= 1e-14
            dims.append(fast.dim)
        assert min(dims) == 0 and max(dims) > 10

    def test_conjugated_copy_takes_svd_route_and_covaries(self, n3, ladder_modules,
                                                         monkeypatch):
        rng = rng_for(61)
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        triples = [n3] + [copy.copy(module.triple) for module in ladder_modules]
        triples += [random_triple(rng, kind="diag") for _ in range(50)]
        for st_ in triples:
            u = even_unitary(rng, st_.gamma)
            twin = conjugated(st_, u)
            junk, twin_junk = junk_space(st_), junk_space(twin)
            assert st_ not in routed and twin in routed
            assert twin_junk.dim == junk.dim and orthonormality_defect(twin_junk.basis) <= 1e-12
            # vec(U J U*) = (U (x) conj U) vec(J) for row-major vec
            w = np.kron(u, u.conj())
            moved = w @ span_projector(junk.basis) @ w.conj().T
            assert np.linalg.norm(moved - span_projector(twin_junk.basis), 2) <= 1e-12

    def test_block_below_margin_falls_back(self, monkeypatch):
        # e_1 = diag(1, 0, 0, 1, 0, 0) and e_2 = diag(0, 1, 0, 0, 1, 0) each
        # meet both grading halves, so e_1 D e_2 holds the entries W[0, 1] and
        # conj W[1, 0]; with W[1, 0] = 0, a planted W[0, 1] = 0 makes it an
        # exact zero block with e_1 D^2 e_2 != 0, and 1e-12 one nonzero entry
        # below sqrt(rank_tol) ||D||_F, too near the cut to decide
        gamma = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        basis = np.stack([np.eye(6), np.diag([1.0, 0, 0, 1, 0, 0]), np.diag([0, 1.0, 0, 0, 1, 0])])
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        dims = []
        for planted in (0.0, 1e-12, 1e-200):  # |1e-200|^2 underflows to 0
            w = np.array([[1.0, planted, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
            dirac = np.block([[np.zeros((3, 3)), w], [w.T, np.zeros((3, 3))]])
            st_ = SpectralTriple(gamma, basis, dirac)
            junk = junk_space(st_)
            assert (st_ in routed) == bool(planted)
            reference = forms._junk_space_svd(copy.copy(st_), 1e-9)
            assert junk.dim == reference.dim and orthonormality_defect(junk.basis) <= 1e-12
            assert span_gap(junk.basis, reference.basis) <= 1e-12
            if planted:
                assert np.array_equal(junk.basis, reference.basis)
            dims.append(junk.dim)
        assert dims[0] == dims[1] == dims[2] > 0

    def test_uniformly_tiny_or_huge_d_keeps_the_closed_form(self, n3, ladder_modules,
                                                           monkeypatch):
        # |D^2|^2 of a D near 1e-100 underflows and of a D near 1e100 overflows;
        # block norms of an exactly rescaled copy decide the same pairs, and a
        # power-of-two scale leaves every bit of the basis as it was
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        for st_ in [n3] + [copy.copy(module.triple) for module in ladder_modules]:
            junk = junk_space(st_)
            for scale in (1e-100, 1e100, 2.0 ** -330, 2.0 ** 330):
                scaled = SpectralTriple(st_.gamma, st_.basis, st_.dirac * scale)
                fast = junk_space(scaled)
                assert scaled not in routed
                assert np.all(np.isfinite(fast.basis)) and fast.dim == junk.dim > 0
                assert orthonormality_defect(fast.basis) <= 1e-14
                reference = forms._junk_space_svd(scaled, 1e-9)
                assert reference.dim == junk.dim
                assert span_gap(fast.basis, reference.basis) <= 1e-12
                if scale in (2.0 ** -330, 2.0 ** 330):
                    assert np.array_equal(fast.basis, junk.basis)
                else:
                    assert np.allclose(fast.basis, junk.basis, rtol=0, atol=1e-15)

    def test_blocks_in_row_major_order(self, n3, ladder_modules):
        for st_ in [n3] + [module.triple for module in ladder_modules]:
            e = [st_.basis[0] - st_.basis[1:].sum(0)] + list(st_.basis[1:])
            want = []
            for k, ek in enumerate(e):
                for l, el in enumerate(e):
                    block = ek @ st_.dirac_sq @ el
                    if k != l and not np.any(ek @ st_.dirac @ el) and np.any(block):
                        want.append(block / np.linalg.norm(block))
            got = junk_space(st_).basis
            assert len(got) == len(want) > 0
            assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_masked_basis_matches_the_broadcast_product(self, n3, ladder_modules):
        # junk_space writes each block into zeros: the same bits as the broadcast
        # product, whose zeros off the blocks may be -0.0 (+0.0 here)
        rng = rng_for(67)
        triples = [n3] + [module.triple for module in ladder_modules]
        for _ in range(300):
            n = int(rng.integers(1, 21))
            triples.append(random_triple(rng, n=n, d=int(rng.integers(1, n + 1)), kind="diag"))
        decided = 0
        for st_ in triples:
            broadcast = broadcast_junk_basis(st_, 1e-9)
            if broadcast is None:
                continue
            decided += 1
            basis = junk_space(st_).basis
            assert basis.dtype == broadcast.dtype and basis.shape == broadcast.shape
            assert basis.tobytes() == (broadcast + 0.0).tobytes()
        assert decided == len(triples)

    def test_gate_negatives_take_svd_route(self, n3, monkeypatch):
        one_ulp = n3.basis.copy()
        one_ulp[0, 0, 0] = np.nextafter(1.0, 2.0)
        off_diagonal = n3.basis.copy()
        off_diagonal[1, 0, 1] = 1e-300
        # q1 + q2 and q1 overlap, and span the same algebra as q1 and q2
        overlapping = np.stack([n3.basis[0], n3.basis[1] + n3.basis[2], n3.basis[1]])
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        for basis in (one_ulp, off_diagonal, overlapping):
            st_ = SpectralTriple(n3.gamma, basis, n3.dirac)
            junk = junk_space(st_)
            assert st_ in routed
            assert np.array_equal(junk.basis, forms._junk_space_svd(copy.copy(st_), 1e-9).basis)
            assert junk.dim == junk_space(n3).dim == 2


def _delta_coordinates(kernel: list[UniversalOneForm], d: int) -> np.ndarray:
    """(k, d(d-1)) coordinates of forms over the delta basis b_i delta(b_j), j >= 1."""
    return np.reshape([w.coeffs[:, 1:] for w in kernel], (len(kernel), d * (d - 1)))


class TestClosedFormKernel:
    """kernel_one_forms over points: the forms e_k delta(e_l), k != l, with e_k D e_l = 0."""

    def test_agrees_with_delta_kernel(self):
        rng = rng_for(67)
        dims = []
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            st_ = random_triple(rng, n=n, d=int(rng.integers(1, min(6, n) + 1)), kind="diag")
            kernel = kernel_one_forms(st_)
            reference = forms._delta_kernel(st_, 1e-9)
            assert len(kernel) == len(reference)
            x = _delta_coordinates(kernel, st_.d)
            reference = np.reshape(reference, x.shape)
            assert np.abs(x @ x.conj().T - np.eye(len(x))).max(initial=0.0) <= 1e-14
            assert span_gap(x, reference) <= 1e-12
            for w in kernel:
                assert frobenius_norm(w.pi_d()) <= 1e-14 and w.mult_residual() <= 1e-14
            dims.append(len(kernel))
        assert min(dims) == 0 and max(dims) > 10

    def test_no_diag_triple_reaches_solve_kernel(self, n3, ladder_modules, monkeypatch):
        rng = rng_for(71)
        triples = [n3] + [copy.copy(module.triple) for module in ladder_modules]
        triples += [random_triple(rng, kind="diag") for _ in range(200)]
        calls = _recording(monkeypatch, forms, "solve_kernel")
        dims = [len(kernel_one_forms(st_)) for st_ in triples]
        assert calls == [] and max(dims) > 2
        # the recorder does record the SVD route of a conjugated twin
        kernel_one_forms(conjugated(n3, even_unitary(rng, n3.gamma)))
        assert len(calls) == 1

    @pytest.mark.parametrize("planted", [0.0, 1e-12, 1e-200])
    def test_takes_the_junk_route(self, planted, monkeypatch):
        # kernel and junk fall back together: a block of D (e_1 D e_2 holds
        # W[0, 1]) or, with D's blocks exact zeros or large, of D^2 (e_1 D^2 e_2
        # is 1 * 1 + 1 * (-1 + planted)) too near the cut to decide; -1 + 1e-200
        # rounds to -1, so that D^2 block is an exact zero and decides nothing
        gamma6 = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        basis6 = np.stack([np.eye(6), np.diag([1.0, 0, 0, 1, 0, 0]),
                           np.diag([0, 1.0, 0, 0, 1, 0])])
        w6 = np.array([[1.0, planted, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        w4 = np.array([[1.0, 1.0], [1.0, -1.0 + planted]])
        gamma4, basis4 = np.diag([1.0, 1.0, -1.0, -1.0]), np.stack(
            [np.eye(4), np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0])])
        routed = _recording(monkeypatch, forms, "_junk_space_svd")
        calls = _recording(monkeypatch, forms, "solve_kernel")
        for gamma, basis, w in ((gamma6, basis6, w6), (gamma4, basis4, w4)):
            k = len(w)
            dirac = np.block([[np.zeros((k, k)), w], [w.T, np.zeros((k, k))]])
            st_ = SpectralTriple(gamma, basis, dirac)
            calls.clear()
            kernel = kernel_one_forms(st_)
            junk_space(st_)
            fallback = planted != 0.0 and not (w is w4 and planted == 1e-200)
            assert (len(calls) == 2) == (st_ in routed) == fallback
            reference = forms._delta_kernel(copy.copy(st_), 1e-9)
            assert len(kernel) == len(reference) > 0
            assert span_gap(_delta_coordinates(kernel, 3), reference) <= 1e-12


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
                    (delta_basis(st_), svd_universal_form_basis(st_)),
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
            basis = delta_basis(st_)
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
