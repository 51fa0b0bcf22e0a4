import numpy as np
import pytest

from ncgcurv.fgpmod import connection_operators
from ncgcurv.forms import junk_space, kernel_one_forms
from ncgcurv.generate import random_module, random_triple, rng_for
from ncgcurv.glinalg import (
    anticommutator,
    as_complex_matrix,
    commutator,
    membership_residual,
    orthonormality_defect,
    project_off,
    relative_residual,
    solve_kernel,
    spectral_norm,
    subspace_basis,
    support_residual,
)

from reference import form_tables, full_svd_kernel, span_gap


def rand_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestAsComplexMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))


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

    def test_koszul_antisymmetry(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            for bracket, sign in ((commutator, 1.0), (anticommutator, -1.0)):
                lhs = bracket(a, b)
                rhs = -sign * bracket(b, a)
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


class TestGradedRightLift:
    """The lifts "1 (x) b" that connection_operators applies block by block:
    Gamma (x) b for odd b, 1 (x) b for even."""

    def test_even_is_plain(self, free_module, two_point):
        ops, d = connection_operators(free_module), two_point.dirac
        assert np.allclose(ops.expand(ops.n_r), np.kron(np.eye(2), d @ d))
        assert np.allclose(ops.m_op, np.kron(two_point.gamma, d))

    def test_respects_squares(self):
        # the graded (odd) lift of D squares to the plain (even) lift of D^2: for
        # W = (Gamma (x) D) V of the bundle, W* W = V* (1 (x) D^2) V = N_r
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ops = connection_operators(random_module(rng, random_triple(rng)))
            assert np.linalg.norm(ops.w.conj().T @ ops.w - ops.n_r) <= 1e-12 * max(
                1.0, np.linalg.norm(ops.n_r))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, rel=1e-12)

    def test_rotation(self):
        # SVD oracle: J^* J = identity, so the largest singular value is 1.
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_norm(j) == pytest.approx(1.0, rel=1e-12)

    def test_star_square(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rand_matrix(rng, int(rng.integers(1, 6)))
            lhs = spectral_norm(a.conj().T @ a)
            rhs = spectral_norm(a) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @staticmethod
    def norm_2(m):
        """The expression spectral_norm replaced: numpy's 2-norm, 0.0 when empty."""
        m = np.asarray(m, dtype=complex)
        return float(np.linalg.norm(m, 2)) if m.size else 0.0

    def test_is_the_two_norm_bit_for_bit(self):
        rng = rng_for(41)
        mats = [np.zeros((0, 0)), np.zeros((3, 0)), np.array([[-2.5 + 1e-300j]]),
                np.array([[0.0]]), np.eye(3)]
        for _ in range(300):
            p, q = (int(k) for k in rng.integers(1, 13, size=2))
            mats.append(rand_matrix(rng, max(p, q))[:p, :q] * (rng.random((p, q)) < 0.7))
        for m in mats:
            got = spectral_norm(m)
            assert type(got) is float and got.hex() == self.norm_2(m).hex()

    def test_a_stack_holds_the_norm_of_each_matrix(self):
        rng = rng_for(43)
        stacks = [np.zeros((0, 3, 3)), np.zeros((2, 0, 0)), np.zeros((2, 3, 2, 0))]
        for _ in range(100):
            lead = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 3))))
            p, q = (int(k) for k in rng.integers(1, 9, size=2))
            x = rng.normal(size=(*lead, p, q)) + 1j * rng.normal(size=(*lead, p, q))
            stacks += [x, x.transpose(*range(len(lead)), -1, -2)]  # strided as well
        for x in stacks:
            got = spectral_norm(x)
            want = [self.norm_2(m) for m in x.reshape(int(np.prod(x.shape[:-2])), *x.shape[-2:])]
            assert isinstance(got, np.ndarray) and got.shape == x.shape[:-2]
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want]


class TestSubspaceBasis:
    def test_collinear(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        basis = subspace_basis([m, 2.0 * m])
        assert len(basis) == 1

    def test_zero_matrix(self):
        assert len(subspace_basis([np.zeros((2, 2))])) == 0

    def test_empty(self):
        assert len(subspace_basis([])) == 0

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

    def test_idempotent(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            mats = [rand_matrix(rng, 3) for _ in range(int(rng.integers(1, 6)))]
            basis = subspace_basis(mats)
            again = subspace_basis(basis)
            assert len(again) == len(basis)
            for b in basis:
                assert membership_residual(b, again) <= 1e-10
            for b in again:
                assert membership_residual(b, basis) <= 1e-10

    def test_orthonormality(self):
        for seed in range(30):
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

    def test_a_nan_entry_is_the_worst_case(self):
        # a running Python max drops a NaN that does not come first
        e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        for basis in ([e00, e11, np.diag([np.nan, 0.0])], [e00, np.diag([0.0, np.nan]), e11],
                      np.array([e00, e11 * np.nan])):
            assert np.isnan(orthonormality_defect(basis))


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

    def test_kernel_property(self):
        for seed in range(30):
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
        # The seed-7 (n, d) ladder triples.  The kernel forms are tables of the
        # non-orthonormal basis b_i delta(b_j), so both spans are compared
        # after a QR.
        rungs = ((6, 4), (12, 8), (16, 8), (20, 10))
        for idx, ((n, d), junk_dim) in enumerate(zip(rungs, (2, 12, 8, 18))):
            st_ = random_triple(rng_for(7 + idx), n=n, d=d, kind="diag")
            kernel = kernel_one_forms(st_)
            reference = full_svd_kernel(st_)
            assert len(kernel) == len(reference)
            assert span_gap(form_tables(kernel, d), reference) <= 1e-12
            assert junk_space(st_).dim == junk_dim


class TestCheckFormulas:
    """support_residual and relative_residual, the shared operator checks; the
    parity cases are in tests/test_fgpmod.py::TestGradingParity."""

    odd = np.array([[0.0, 2.0], [2.0, 0.0]])

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
        assert relative_residual(e01, 4.0 * e01) == pytest.approx(0.25)
        assert relative_residual(e01, 0.25 * e01) == pytest.approx(1.0)
