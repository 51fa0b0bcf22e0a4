import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgcurv import SpectralTriple, c1_norm, c2_norm, validate
from ncgcurv.generate import random_triple, rng_for, unit_disc
from ncgcurv.scenario import parse_scenario
from ncgcurv.glinalg import spectral_norm
from ncgcurv.triple import NotInAlgebraError, pi1_block, pi2_block

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def multiply_coords(st_, c1, c2) -> np.ndarray:
    """Coefficients of the product of two algebra elements, from mult_tensor."""
    return np.einsum("i,j,ijk->k", np.asarray(c1, dtype=complex),
                     np.asarray(c2, dtype=complex), st_.mult_tensor)


class TestValidate:
    def test_two_point_passes(self, two_point):
        assert all(c.passed for c in validate(two_point))

    def test_broken_selfadjointness(self, two_point):
        st_bad = SpectralTriple(two_point.gamma, two_point.basis,
                                np.array([[0.0, 1.0], [0.0, 0.0]]))
        failed = {c.name for c in validate(st_bad) if not c.passed}
        assert "dirac_selfadjoint" in failed

    def test_broken_oddness(self, two_point):
        st_bad = SpectralTriple(np.eye(2), two_point.basis, two_point.dirac)
        failed = {c.name for c in validate(st_bad) if not c.passed}
        assert "dirac_odd" in failed

    def test_dimension_mismatch_is_hard_failure(self, two_point):
        with pytest.raises(ValueError):
            SpectralTriple(two_point.gamma, two_point.basis, np.eye(3))
        with pytest.raises(ValueError):
            SpectralTriple(two_point.gamma, (np.eye(2), np.eye(3)), two_point.dirac)

    def test_all_bundled_fixtures_validate(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            scen = parse_scenario(path)
            assert all(c.passed for c in validate(scen.triple)), path.name


class TestAlgebraCoords:
    def test_basis_element(self, two_point):
        coords = two_point.coords(two_point.basis[1])
        assert np.allclose(coords, [0.0, 1.0], atol=1e-12)

    def test_projection_square(self, two_point):
        q = two_point.basis[1]
        coords = two_point.coords(q @ q)
        assert np.allclose(coords, [0.0, 1.0], atol=1e-12)

    def test_dirac_not_in_diagonal_algebra(self, two_point):
        # least-squares oracle: D is orthogonal to the diagonal span, so the
        # relative residual is ||D||_F / max(1, ||D||_F) = 1.
        with pytest.raises(NotInAlgebraError) as err:
            two_point.coords(two_point.dirac)
        assert err.value.residual == pytest.approx(1.0, rel=1e-12)

    def test_stack_solves_each_matrix(self):
        # one lstsq for a stack gives the bits of one lstsq per matrix, in C
        # order: einsums over strided tables round differently, which would
        # move every generated connection
        rng = rng_for(31)
        for kind in ("diag", "amp2", "diag"):
            st_ = random_triple(rng, n=4, kind=kind)
            assert st_.mult_tensor.flags.c_contiguous and st_.star_matrix.flags.c_contiguous
            for i in range(st_.d):
                assert np.array_equal(st_.star_matrix[:, i],
                                      st_.coords(st_.basis[i].conj().T))
                for j in range(st_.d):
                    assert np.array_equal(st_.mult_tensor[i, j],
                                          st_.coords(st_.basis[i] @ st_.basis[j]))

    def test_stack_names_first_failing_index(self, two_point):
        q = two_point.basis[1]
        stack = np.stack([q, two_point.dirac, q, two_point.dirac])
        with pytest.raises(NotInAlgebraError, match="products, index 1") as err:
            two_point.coords(stack, context="products")
        assert err.value.residual == pytest.approx(1.0, rel=1e-12)
        assert two_point.coords(stack[[0, 2]]).shape == (2, 2)
        with pytest.raises(ValueError):
            two_point.coords(np.zeros((1, 1, 2, 2)))

    def test_structure_constants(self, two_point):
        # q * q = q in the two-point algebra
        out = multiply_coords(two_point, [0.0, 1.0], [0.0, 1.0])
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)

    def test_star_coords(self, two_point):
        coords = np.array([1.0 + 2.0j, -1.0j])
        mat = two_point.assemble(coords)
        assert np.allclose(two_point.assemble(two_point.star_coords(coords)),
                           mat.conj().T, atol=1e-12)


def same_bits_but_zero_sign(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit for bit, except that an exact zero may carry either sign.

    A matmul's sum of signed zeros takes its sign from the BLAS kernel's order.
    """
    x, y = np.asarray(a).view(float), np.asarray(b).view(float)
    differ = x.view(np.int64) != y.view(np.int64)
    return a.shape == b.shape and not np.any(x[differ]) and not np.any(y[differ])


def dense_pair_products(st_, right):
    """The d^2 matmuls b_p r_q that a non-diagonal basis takes."""
    return st_.basis[:, None] @ right[..., None, :, :, :]


class TestPairProducts:
    def test_diag_triples_take_the_broadcast(self):
        rng = rng_for(17)
        for _ in range(200):
            st_ = random_triple(rng, kind="diag")
            right = np.stack([st_.basis, st_.dirac_commutators, st_.dirac_sq_commutators])
            assert st_.basis_diagonal is not None
            assert same_bits_but_zero_sign(st_.pair_products(right),
                                           dense_pair_products(st_, right))

    def test_arbitrary_real_diagonal_bases(self):
        rng = rng_for(19)
        for _ in range(200):
            n, d = (int(k) for k in rng.integers(1, 7, size=2))
            diag = rng.normal(size=(d, n)) * (rng.random((d, n)) < 0.7)
            st_ = SpectralTriple(np.eye(n), diag[..., None] * np.eye(n), np.zeros((n, n)))
            right = unit_disc(rng, (2, d, n, n)) * (rng.random((2, d, n, n)) < 0.6)
            assert np.array_equal(st_.basis_diagonal, diag)
            assert same_bits_but_zero_sign(st_.pair_products(right),
                                           dense_pair_products(st_, right))

    def test_other_bases_take_the_matmuls(self, two_point):
        amp2 = random_triple(rng_for(13), n=4, kind="amp2")
        complex_diag = SpectralTriple(two_point.gamma, [np.eye(2), np.diag([1j, 0.0])],
                                      two_point.dirac)
        assert two_point.basis_diagonal is not None
        for st_ in (amp2, complex_diag):
            assert st_.basis_diagonal is None
            right = st_.dirac_commutators
            assert st_.pair_products(right).tobytes() == dense_pair_products(st_, right).tobytes()

    def test_entries_are_the_loop_products(self):
        rng = rng_for(13)
        for kind in ("diag", "amp2"):
            st_ = random_triple(rng, n=4, kind=kind)
            right = np.stack([st_.basis, st_.dirac_commutators])
            pp = st_.pair_products(right)
            assert pp.shape == (2, st_.d, st_.d, st_.n, st_.n)
            assert np.array_equal(pp[1], st_.pair_products(st_.dirac_commutators))
            for k in range(2):
                for p in range(st_.d):
                    for q in range(st_.d):
                        assert np.array_equal(pp[k, p, q], st_.basis[p] @ right[k, q])


def loop_commutators(st_, x):
    """The 2d matmuls [x, b_k] that a non-diagonal basis takes."""
    return np.stack([x @ b - b @ x for b in st_.basis])


class TestDiracCommutators:
    def test_diag_triples_take_the_broadcast(self):
        rng = rng_for(23)
        for _ in range(200):
            st_ = random_triple(rng, kind="diag")
            assert st_.basis_diagonal is not None
            for got, x in ((st_.dirac_commutators, st_.dirac),
                           (st_.dirac_sq_commutators, st_.dirac_sq)):
                assert same_bits_but_zero_sign(got, loop_commutators(st_, x))

    def test_arbitrary_real_diagonal_bases(self):
        rng = rng_for(29)
        for _ in range(200):
            n, d = (int(k) for k in rng.integers(1, 7, size=2))
            diag = rng.normal(size=(d, n)) * (rng.random((d, n)) < 0.7)
            dirac = unit_disc(rng, (n, n)) * (rng.random((n, n)) < 0.6)
            st_ = SpectralTriple(np.eye(n), diag[..., None] * np.eye(n), dirac)
            assert same_bits_but_zero_sign(st_.dirac_commutators,
                                           loop_commutators(st_, st_.dirac))

    def test_other_bases_take_the_matmuls(self, two_point):
        amp2 = random_triple(rng_for(13), n=4, kind="amp2")
        complex_diag = SpectralTriple(two_point.gamma, [np.eye(2), np.diag([1j, 0.0])],
                                      two_point.dirac)
        for st_ in (amp2, complex_diag):
            assert st_.basis_diagonal is None
            assert (st_.dirac_sq_commutators.tobytes()
                    == loop_commutators(st_, st_.dirac_sq).tobytes())


class TestDerivativeNorms:
    def test_identity(self, two_point):
        assert c1_norm(two_point, [1.0, 0.0]) == pytest.approx(1.0, rel=1e-12)
        assert c2_norm(two_point, [1.0, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self, two_point):
        assert c1_norm(two_point, [0.0, 0.0]) == 0.0
        assert c2_norm(two_point, [0.0, 0.0]) == 0.0

    def test_projection_element(self, two_point):
        # SVD oracle on the hand-assembled 4x4 block matrix
        q = two_point.basis[1]
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = q
        block[2:, 2:] = q
        block[2:, :2] = two_point.dirac @ q - q @ two_point.dirac
        expected = np.linalg.norm(block, 2)
        assert c1_norm(two_point, [0.0, 1.0]) == pytest.approx(expected, rel=1e-12)
        assert np.allclose(pi1_block(two_point, q), block)
        assert c2_norm(two_point, [0.0, 1.0]) >= c1_norm(two_point, [0.0, 1.0]) - 1e-10

    def test_pi2_block_exact(self, two_point):
        # D^2 = 1, so [D^2, q] = 0, and (D + i) q (D + i)^-1 = [[1, i], [-i, 1]] / 2
        q = two_point.basis[1]
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = [[0.5, 0.5j], [-0.5j, 0.5]]
        expected[2:, 2:] = q
        assert np.abs(pi2_block(two_point, q) - expected).max() <= 1e-15

    def test_c2_norm_takes_the_adjoint_term(self):
        # on the two-point triple D + i is sqrt(2) times a unitary, so c2 = c1
        # there; this seeded element has ||pi2(a*)|| strictly the largest term
        rng = rng_for(15)
        st_ = random_triple(rng)
        coeffs = unit_disc(rng, (st_.d,))
        a = st_.assemble(coeffs)
        adjoint_term = spectral_norm(pi2_block(st_, a.conj().T))
        others = (spectral_norm(pi1_block(st_, a)), spectral_norm(pi2_block(st_, a)))
        assert adjoint_term > max(others) + 0.05
        assert c2_norm(st_, coeffs) == adjoint_term

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_norm_chain_and_star(self, seed):
        rng = np.random.default_rng(seed)
        gamma = np.diag([1.0, -1.0])
        q = np.diag([1.0, 0.0])
        w = rng.normal() + 1j * rng.normal()
        dirac = np.array([[0.0, w], [np.conj(w), 0.0]])
        st_rand = SpectralTriple(gamma, (np.eye(2), q), dirac)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = np.linalg.norm(st_rand.assemble(coeffs), 2)
        c1 = c1_norm(st_rand, coeffs)
        c2 = c2_norm(st_rand, coeffs)
        assert c2 >= c1 - 1e-10
        assert c1 >= base - 1e-10
        # the first-derivative norm is a *-norm
        assert c1 == pytest.approx(c1_norm(st_rand, st_rand.star_coords(coeffs)),
                                   abs=1e-10)
