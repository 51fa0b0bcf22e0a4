import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import ProjectiveModule, SpectralTriple
from ncgcurv.forms import junk_space, kernel_one_forms
from ncgcurv.generate import random_module, random_triple, rng_for
from ncgcurv.glinalg import (
    adjoint,
    anticommutator,
    commutator,
    frobenius_norm,
    membership_residual,
    orthonormality_defect,
    parity_residual,
    project_off,
    solve_kernel,
    spectral_norm,
    subspace_basis,
    support_residual,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def rand_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(adjoint(np.eye(3)), np.eye(3))

    def test_nilpotent(self):
        a = np.array([[0, 1j], [0, 0]])
        assert np.allclose(adjoint(a), np.array([[0, 0], [-1j, 0]]))

    def test_real_symmetric_dirac(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(adjoint(d), d)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            adjoint(np.array([[np.nan, 0], [0, 0]]))


class TestGradedCommutator:
    """The graded bracket: commutator unless both sides are odd, then anticommutator."""

    def test_identity_commutes(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(commutator(d, np.eye(2)), 0.0)

    def test_odd_odd_is_anticommutator(self):
        # a = b = [[0,-1],[1,0]] odd: ab + ba = 2 diag(-1, -1)
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(anticommutator(j, j), 2.0 * np.diag([-1.0, -1.0]))

    def test_even_even_is_plain_commutator(self):
        rng = np.random.default_rng(0)
        x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert np.allclose(commutator(x, y), x @ y - y @ x)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            anticommutator(np.eye(2), np.eye(3))

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_koszul_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        for bracket, sign in ((commutator, 1.0), (anticommutator, -1.0)):
            lhs = bracket(a, b)
            rhs = -sign * bracket(b, a)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


class TestGradedRightLift:
    """The lifts "1 (x) b" of ProjectiveModule: Gamma (x) b for odd b, 1 (x) b for even."""

    def test_even_is_plain(self):
        gamma = np.diag([1.0, -1.0])
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        st_ = SpectralTriple(gamma, (np.eye(2), np.diag([1.0, 0.0])), d)
        p = np.zeros((2, 2, 2), dtype=complex)
        p[0, 0, 0] = p[1, 1, 0] = 1
        module = ProjectiveModule(st_, p, np.array([1.0, -1.0]))
        assert np.allclose(module.dirac_sq_lift_free, np.kron(np.eye(2), d @ d))
        assert np.allclose(module.dirac_plain_lift, np.kron(np.eye(2), d))

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_respects_squares(self, seed):
        # Both the graded (odd) and the plain (even) lift of D square to 1 (x) D^2.
        rng = np.random.default_rng(seed)
        module = random_module(rng, random_triple(rng))
        lifted_sq = module.dirac_sq_lift_free
        assert np.allclose(lifted_sq, np.kron(np.eye(module.m), module.triple.dirac_sq))
        for lifted in (module.dirac_lift, module.dirac_plain_lift):
            assert np.linalg.norm(lifted @ lifted - lifted_sq) <= 1e-12 * max(
                1.0, np.linalg.norm(lifted_sq))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, rel=1e-12)

    def test_rotation(self):
        # SVD oracle: J^* J = identity, so the largest singular value is 1.
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_norm(j) == pytest.approx(1.0, rel=1e-12)

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_star_square(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_matrix(rng, int(rng.integers(1, 6)))
        lhs = spectral_norm(a.conj().T @ a)
        rhs = spectral_norm(a) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSubspaceBasis:
    def test_collinear(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        basis = subspace_basis([m, 2.0 * m])
        assert len(basis) == 1

    def test_zero_matrix(self):
        assert subspace_basis([np.zeros((2, 2))]) == []

    def test_empty(self):
        assert subspace_basis([]) == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            subspace_basis([np.eye(2), np.eye(3)])

    def test_phase_fixed_by_first_non_negligible_entry(self):
        # row-major entries: negligible 1e-10, then 0.1i, then the peak 2;
        # the 0.1i entry, not the peak, is made real positive
        m = np.array([[1e-10, 0.1j], [0.0, 2.0]])
        (b,) = subspace_basis([m])
        assert b[0, 1].real > 0.0 and abs(b[0, 1].imag) <= 1e-15
        assert np.abs(b - (-1j) * m / np.linalg.norm(m)).max() <= 1e-15

    @given(SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rand_matrix(rng, 3) for _ in range(int(rng.integers(1, 6)))]
        basis = subspace_basis(mats)
        again = subspace_basis(basis)
        assert len(again) == len(basis)
        for b in basis:
            assert membership_residual(b, again) <= 1e-10
        for b in again:
            assert membership_residual(b, basis) <= 1e-10

    @given(SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rand_matrix(rng, 3) for _ in range(4)]
        basis = subspace_basis(mats)
        for i, b1 in enumerate(basis):
            for j, b2 in enumerate(basis):
                assert np.vdot(b1, b2) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-10)


class TestOrthonormalityDefect:
    def test_orthonormal_basis(self):
        mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
        assert orthonormality_defect(subspace_basis(mats)) <= 1e-14
        assert orthonormality_defect([]) == 0.0

    def test_reports_worst_gram_entry(self):
        e00 = np.diag([1.0, 0.0])
        assert orthonormality_defect([2.0 * e00]) == pytest.approx(3.0)
        assert orthonormality_defect([e00, e00 + 0.5 * np.eye(2)]) == pytest.approx(1.5)


class TestMembershipResidual:
    def test_member(self):
        basis = subspace_basis([np.eye(2)])
        assert membership_residual(3.0 * np.eye(2), basis) <= 1e-12

    def test_orthogonal(self):
        basis = subspace_basis([np.eye(2)])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        # Pythagoras: the projection vanishes
        assert membership_residual(a, basis) == pytest.approx(
            np.linalg.norm(a) / max(1.0, np.linalg.norm(a)))

    def test_full_space(self):
        rng = np.random.default_rng(5)
        full = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for k in range(4):
            full[k].flat[k] = 1.0
        a = rand_matrix(rng, 2)
        assert membership_residual(a, full) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            membership_residual(np.eye(3), [np.eye(2)])
        with pytest.raises(ValueError):
            project_off(np.eye(3), [np.eye(2)])


class TestSolveKernel:
    def test_identity_map(self):
        assert solve_kernel(np.eye(4)) == []

    def test_zero_map(self):
        kernel = solve_kernel(np.zeros((3, 5)))
        assert len(kernel) == 5

    def test_rank_one_in_dim_three(self):
        # SVD oracle: a rank-1 map on a 3-dimensional space has a 2-dim kernel.
        length = np.array([[1.0, 2.0, 3.0]])
        kernel = solve_kernel(length)
        assert len(kernel) == 2
        for v in kernel:
            assert np.linalg.norm(length @ v) <= 1e-12

    def test_complex_kernel_vectors_annihilate(self):
        # regression: null vectors of a complex map are conjugated Vh rows
        length = np.array([[1.0, 1.0j]])
        kernel = solve_kernel(length)
        assert len(kernel) == 1
        assert np.linalg.norm(length @ kernel[0]) <= 1e-12

    @given(SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_kernel_property(self, seed):
        rng = np.random.default_rng(seed)
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(p, q) + 1))
        a = rng.normal(size=(p, rank)) + 1j * rng.normal(size=(p, rank))
        b = rng.normal(size=(rank, q)) + 1j * rng.normal(size=(rank, q))
        length = a @ b if rank else np.zeros((p, q), dtype=complex)
        kernel = solve_kernel(length)
        assert len(kernel) == q - rank
        assert orthonormality_defect(kernel) <= 1e-12
        for v in kernel:
            assert np.linalg.norm(length @ v) <= 1e-9 * max(1.0, np.linalg.norm(length))

    def test_thin_svd_spans_the_full_svd_kernel_on_the_ladder(self):
        # The seed-7 (n, d) ladder triples: L is tall, so the thin SVD's vh is
        # already square.  Its kernel must span what the full SVD's does.
        rungs = ((6, 4), (12, 8), (16, 8), (20, 10))
        for idx, ((n, d), junk_dim) in enumerate(zip(rungs, (2, 12, 8, 18))):
            st_ = random_triple(rng_for(7 + idx), n=n, d=d, kind="diag")
            kernel = np.array([w.coeffs.ravel() for w in kernel_one_forms(st_)])
            reference = full_svd_kernel(st_)
            assert kernel.shape == reference.shape
            proj = kernel.T @ kernel.conj()
            assert np.linalg.norm(proj - reference.T @ reference.conj()) <= 1e-12
            assert junk_space(st_).dim == junk_dim


def full_svd_kernel(st_, rank_tol=1e-9):
    """Rows spanning ker(m) intersect ker(pi_d), from the full SVD of its map."""
    pairs = st_.pair_products(np.stack([st_.basis_stack, st_.dirac_commutators]))
    L = pairs.transpose(1, 2, 0, 3, 4).reshape(st_.d * st_.d, -1).T
    _, s, vh = np.linalg.svd(L, full_matrices=True)
    return vh[int(np.sum(s > rank_tol * s[0])):].conj()


class TestCheckFormulas:
    """support_residual and parity_residual, the shared operator checks."""

    g = np.diag([1.0, -1.0])
    odd = np.array([[0.0, 2.0], [2.0, 0.0]])
    even = np.diag([3.0, -1.0])

    def test_parity_residual_tells_odd_from_even(self):
        assert parity_residual(self.g, self.odd, odd=True) == 0.0
        assert parity_residual(self.g, self.odd, odd=False) > 0.0
        assert parity_residual(self.g, self.even, odd=False) == 0.0
        assert parity_residual(self.g, self.even, odd=True) > 0.0

    def test_support_residual_zero_only_on_range(self):
        p = np.diag([1.0, 0.0])
        assert support_residual(p, np.diag([5.0, 0.0])) == 0.0
        assert support_residual(p, self.odd) > 0.0

    def test_norm_floor(self):
        # relative above norm 1, absolute below it
        p = np.diag([1.0, 0.0])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert support_residual(p, 4.0 * e01) == pytest.approx(1.0)
        assert support_residual(p, 0.25 * e01) == pytest.approx(0.25)
        small = 0.1 * self.odd
        assert parity_residual(self.g, self.odd, odd=False) == pytest.approx(2.0)
        assert parity_residual(self.g, small, odd=False) == pytest.approx(
            2.0 * frobenius_norm(small))
        assert parity_residual(self.g, 0.1 * self.even, odd=True) == pytest.approx(
            2.0 * frobenius_norm(0.1 * self.even))
