import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncgcurv.triple as triple_module
from ncgcurv import SpectralTriple, c1_norm, c2_norm, validate
from ncgcurv.generate import random_triple, rng_for, unit_disc
from ncgcurv.scenario import parse_scenario
from ncgcurv.glinalg import spectral_norm
from ncgcurv.triple import NotInAlgebraError, pi1_block, pi2_block

from reference import conjugated, even_unitary, loop_commutators, lstsq_tables, pair_stack

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def multiply_coords(st_, c1, c2) -> np.ndarray:
    """Coefficients of the product of two algebra elements, from mult_tensor."""
    return np.einsum("i,j,ijk->k", np.asarray(c1, dtype=complex),
                     np.asarray(c2, dtype=complex), st_.mult_tensor)


class TestValidate:
    def test_two_point_passes(self, two_point):
        assert all(c.passed for c in validate(two_point))

    @pytest.mark.parametrize("name, call", [("basis_even", 7), ("algebra_closed_mult", 10),
                                            ("algebra_closed_star", 19)])
    def test_a_nan_residual_fails_its_check(self, n3, monkeypatch, name, call):
        # n3 (d = 3) takes 5 distances before basis_even, then 3, 9 and 3: the
        # NaN is the second of its check's, which a running Python max dropped
        calls, real = [], triple_module.relative_distance

        def relative_distance(a, b):
            calls.append(None)
            return float("nan") if len(calls) == call else real(a, b)

        monkeypatch.setattr(triple_module, "relative_distance", relative_distance)
        checks = {c.name: c for c in validate(n3)}
        assert len(calls) == 20
        assert np.isnan(checks[name].value) and not checks[name].passed
        assert [c.name for c in checks.values() if not c.passed] == [name]

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
        # move every generated connection.  T and S are those bits on every
        # basis without points (over points they are exact, see TestPoints)
        rng = rng_for(31)
        triples = [random_triple(rng, n=4, kind=kind) for kind in ("diag", "amp2", "diag")]
        triples += [conjugated(st_, even_unitary(rng, st_.gamma)) for st_ in triples]
        assert [st_.points is None for st_ in triples] == [False, True, False, True, True, True]
        for st_ in triples:
            d, n = st_.d, st_.n
            assert st_.mult_tensor.flags.c_contiguous and st_.star_matrix.flags.c_contiguous
            products = st_.coords(st_.pair_products(st_.basis).reshape(-1, n, n))
            adjoints = st_.coords(st_.basis.conj().transpose(0, 2, 1))
            for i in range(d):
                assert np.array_equal(adjoints[i], st_.coords(st_.basis[i].conj().T))
                for j in range(d):
                    assert np.array_equal(products[i * d + j],
                                          st_.coords(st_.basis[i] @ st_.basis[j]))
            if st_.points is None:
                assert np.array_equal(st_.mult_tensor, products.reshape(d, d, d))
                assert np.array_equal(st_.star_matrix, adjoints.T)

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


def point_basis(rng, n: int, d: int) -> np.ndarray:
    """(d, n, n) basis of 1 and d - 1 diagonal 0/1 projections with disjoint
    supports, each of the d minimal projections e_k holding at least one slot."""
    label = np.concatenate([np.arange(d), rng.integers(0, d, size=n - d)])
    rng.shuffle(label)
    basis = np.zeros((d, n, n), dtype=complex)
    basis[0] = np.eye(n)
    for k in range(1, d):
        basis[k] = np.diag((label == k).astype(float))
    return basis


def gate_negatives(st_):
    """Bases near a point basis that are none: basis[0] one ulp off 1,
    overlapping supports, an empty e_k (a dependent basis), a complex diagonal."""
    one_ulp = st_.basis.copy()
    one_ulp[0, 0, 0] = np.nextafter(1.0, 2.0)
    overlapping = np.stack([st_.basis[0], st_.basis[1] + st_.basis[2], st_.basis[1]])
    empty = np.concatenate([st_.basis, [st_.basis[0] - st_.basis[1:].sum(0)]])
    complex_diag = st_.basis.copy()
    complex_diag[1] = complex_diag[1] * 1j
    return {name: SpectralTriple(st_.gamma, basis, st_.dirac)
            for name, basis in (("one_ulp", one_ulp), ("overlapping", overlapping),
                                ("empty_row", empty), ("complex", complex_diag))}


class TestPoints:
    def test_minimal_projections_of_a_point_basis(self, n3):
        assert np.array_equal(n3.points, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        rng = rng_for(3)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, n + 1))
            basis = point_basis(rng, n, d)
            st_ = SpectralTriple(np.eye(n), basis, np.zeros((n, n)))
            e = st_.points
            assert e.shape == (d, n) and e.dtype == float
            assert np.array_equal(e.sum(0), np.ones(n)) and e.any(axis=1).all()
            assert np.array_equal(e[1:], np.diagonal(basis[1:], axis1=1, axis2=2).real)

    def test_exact_tables_match_lstsq(self):
        # b_0 = 1 and b_i b_j = delta_ij b_i: T[0, j, j] = T[i, 0, i] = T[k, k, k] = 1,
        # S = 1, within round-off of the solve, on seeded and arbitrary point bases
        rng = rng_for(7)
        triples = []
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            triples.append(random_triple(rng, n=n, d=int(rng.integers(1, min(6, n) + 1)),
                                         kind="diag"))
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, n + 1))
            w = unit_disc(rng, (n, n))
            triples.append(SpectralTriple(np.eye(n), point_basis(rng, n, d), w + w.conj().T))
        for st_ in triples:
            d = st_.d
            assert st_.points is not None
            T, S = lstsq_tables(st_)
            assert np.abs(st_.mult_tensor - T).max() <= 1e-12
            assert np.abs(st_.star_matrix - S).max() <= 1e-12
            assert st_.mult_tensor.flags.c_contiguous and st_.star_matrix.flags.c_contiguous
            ones = np.argwhere(st_.mult_tensor)
            assert np.array_equal(st_.mult_tensor[tuple(ones.T)], np.ones(len(ones)))
            assert len(ones) == 3 * d - 2
            assert np.array_equal(st_.star_matrix, np.eye(d))
        assert max(st_.d for st_ in triples) == 8

    def test_gate_negatives_keep_the_lstsq_bits(self, n3):
        for name, st_ in gate_negatives(n3).items():
            T, S = lstsq_tables(st_)
            assert st_.mult_tensor.tobytes() == T.tobytes(), name
            assert st_.star_matrix.tobytes() == S.tobytes(), name

    def test_gate_negatives_have_no_points(self, n3):
        for name, st_ in gate_negatives(n3).items():
            assert st_.points is None, name
        assert gate_negatives(n3)["empty_row"].basis_diagonal is not None
        permuted = SpectralTriple(n3.gamma, n3.basis[:, ::-1, ::-1], n3.dirac)
        assert np.array_equal(permuted.points, n3.points[:, ::-1])
        assert random_triple(rng_for(13), n=4, kind="amp2").points is None


def old_basis_diagonal(st_):
    """The definition basis_diagonal replaced: equality with diag * 1."""
    diag = np.diagonal(st_.basis, axis1=1, axis2=2).real
    return diag if np.array_equal(st_.basis, diag[..., None] * np.eye(st_.n)) else None


class TestBasisDiagonal:
    def test_counts_give_the_verdict_of_array_equal(self, n3):
        rng = rng_for(23)
        bases = [n3.basis, random_triple(rng_for(13), n=4, kind="amp2").basis]
        # -0.0 off the diagonal, a 1e-300j diagonal, -0.0j on it, 1e-300 off it, -0.0 on it
        for index, value in (((1, 0, 2), complex(-0.0, -0.0)), ((2, 1, 1), 1e-300j),
                             ((1, 0, 0), complex(1.0, -0.0)), ((1, 2, 0), 1e-300),
                             ((1, 1, 1), -0.0)):
            b = n3.basis.copy()
            b[index] = value
            bases.append(b)
        for _ in range(300):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            b = (rng.normal(size=(d, n, n)) * (rng.random((d, n, n)) < 0.3)).astype(complex)
            b[rng.random((d, n, n)) < 0.2] *= 1j
            b[:, np.arange(n), np.arange(n)] += rng.normal(size=(d, n))
            bases.append(b)
        verdicts = set()
        for b in bases:
            st_ = SpectralTriple(np.eye(b.shape[1]), b, np.zeros(b.shape[1:]))
            got, want = st_.basis_diagonal, old_basis_diagonal(st_)
            verdicts.add(want is None)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes() and not got.flags.writeable
        assert verdicts == {True, False}


def same_bits_but_zero_sign(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit for bit, except that an exact zero may carry either sign.

    A matmul's sum of signed zeros takes its sign from the BLAS kernel's order.
    """
    x, y = np.asarray(a).view(float), np.asarray(b).view(float)
    differ = x.view(np.int64) != y.view(np.int64)
    return a.shape == b.shape and not np.any(x[differ]) and not np.any(y[differ])


class TestPairProducts:
    def test_diag_triples_take_the_broadcast(self):
        rng = rng_for(17)
        for _ in range(200):
            st_ = random_triple(rng, kind="diag")
            right = np.stack([st_.basis, st_.dirac_commutators, st_.dirac_sq_commutators])
            assert st_.points is not None
            assert same_bits_but_zero_sign(st_.pair_products(right),
                                           pair_stack(st_, right))

    def test_arbitrary_real_diagonal_bases(self):
        # a real diagonal basis without points takes the matmuls: the same bits
        rng = rng_for(19)
        for _ in range(200):
            n, d = (int(k) for k in rng.integers(1, 7, size=2))
            diag = rng.normal(size=(d, n)) * (rng.random((d, n)) < 0.7)
            st_ = SpectralTriple(np.eye(n), diag[..., None] * np.eye(n), np.zeros((n, n)))
            right = unit_disc(rng, (2, d, n, n)) * (rng.random((2, d, n, n)) < 0.6)
            assert np.array_equal(st_.basis_diagonal, diag) and st_.points is None
            assert st_.pair_products(right).tobytes() == pair_stack(st_, right).tobytes()

    def test_other_bases_take_the_matmuls(self, two_point):
        amp2 = random_triple(rng_for(13), n=4, kind="amp2")
        complex_diag = SpectralTriple(two_point.gamma, [np.eye(2), np.diag([1j, 0.0])],
                                      two_point.dirac)
        assert two_point.points is not None
        for st_ in (amp2, complex_diag):
            assert st_.points is None
            right = st_.dirac_commutators
            assert st_.pair_products(right).tobytes() == pair_stack(st_, right).tobytes()

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


class TestDiracCommutators:
    def test_diag_triples_take_the_broadcast(self):
        rng = rng_for(23)
        for _ in range(200):
            st_ = random_triple(rng, kind="diag")
            assert st_.points is not None
            for got, x in ((st_.dirac_commutators, st_.dirac),
                           (st_.dirac_sq_commutators, st_.dirac_sq)):
                assert same_bits_but_zero_sign(got, loop_commutators(st_, x))

    def test_arbitrary_real_diagonal_bases(self):
        # a real diagonal basis without points takes the matmuls: the same bits
        rng = rng_for(29)
        for _ in range(200):
            n, d = (int(k) for k in rng.integers(1, 7, size=2))
            diag = rng.normal(size=(d, n)) * (rng.random((d, n)) < 0.7)
            dirac = unit_disc(rng, (n, n)) * (rng.random((n, n)) < 0.6)
            st_ = SpectralTriple(np.eye(n), diag[..., None] * np.eye(n), dirac)
            assert st_.points is None
            assert (st_.dirac_commutators.tobytes()
                    == loop_commutators(st_, st_.dirac).tobytes())

    def test_other_bases_take_the_matmuls(self, two_point):
        amp2 = random_triple(rng_for(13), n=4, kind="amp2")
        complex_diag = SpectralTriple(two_point.gamma, [np.eye(2), np.diag([1j, 0.0])],
                                      two_point.dirac)
        for st_ in (amp2, complex_diag):
            assert st_.points is None
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

    def test_c1_norm_of_a_stack_is_each_row_bit_for_bit(self, two_point):
        rng = rng_for(39)
        triples = [two_point] + [random_triple(rng, n=4, kind=("diag", "amp2")[k % 2])
                                 for k in range(20)]
        triples += [random_triple(rng) for _ in range(300)]
        for st_ in triples:
            for k in (1, 2, 5):
                coeffs = unit_disc(rng, (k, st_.d)) * (rng.random((k, st_.d)) < 0.8)
                got = c1_norm(st_, coeffs)
                assert got.shape == (k,)
                assert [v.hex() for v in got.tolist()] == [c1_norm(st_, c).hex() for c in coeffs]
        assert c1_norm(two_point, np.zeros((0, 2))).shape == (0,)

    def test_c2_norm_is_the_largest_of_three_separate_norms(self):
        # one batched norm over the three blocks gives the bits of three calls
        rng = rng_for(37)
        for _ in range(400):
            st_ = random_triple(rng)
            coeffs = unit_disc(rng, (st_.d,))
            a = st_.assemble(coeffs)
            separate = max(spectral_norm(pi1_block(st_, a)), spectral_norm(pi2_block(st_, a)),
                           spectral_norm(pi2_block(st_, a.conj().T)))
            assert c2_norm(st_, coeffs) == separate

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
