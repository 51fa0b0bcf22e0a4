import numpy as np
import pytest

from ncgcurv.submersion import (
    FramePoint,
    canned_frame,
    fibration_curvature,
    heisenberg_frame,
    hopf_frame,
    jacobi_residual,
    mean_curvature,
    second_fundamental_form,
    submersion_invariants,
    warped_torus_frame,
)


def random_frame(rng, dim=None, fiber=None):
    dim = dim or int(rng.integers(2, 6))
    fiber = fiber or int(rng.integers(1, dim))
    c = rng.normal(size=(dim, dim, dim))
    c = c - np.swapaxes(c, 1, 2)
    return FramePoint(dim, fiber, c)


class TestFramePoint:
    def test_antisymmetry_enforced(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0  # missing the antisymmetric partner
        with pytest.raises(ValueError):
            FramePoint(2, 1, c)

    def test_fiber_bounds(self):
        c = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            FramePoint(3, 0, c)
        with pytest.raises(ValueError):
            FramePoint(3, 3, c)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            FramePoint(3, 1, np.zeros((2, 3, 3)))


class TestCannedFrames:
    def test_catalog(self):
        assert canned_frame("heisenberg").dim_fiber == 1
        with pytest.raises(ValueError):
            canned_frame("round_sphere")
        with pytest.raises(ValueError):
            canned_frame("hopf", lam=-1.0)
        with pytest.raises(ValueError):
            canned_frame("warped_torus", f=0.0, fprime=1.0)

    def test_heisenberg_bracket_table(self):
        fp = heisenberg_frame()
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 1.0
        expected[0, 2, 1] = -1.0
        assert np.array_equal(fp.c, expected)
        assert jacobi_residual(fp) <= 1e-12

    def test_hopf_round_bracket_table(self):
        fp = hopf_frame(1.0)
        # su(2): [f1, f2] = 2 e, [e, f1] = 2 f2, [f2, e] = 2 f1
        assert fp.c[0, 1, 2] == 2.0
        assert fp.c[2, 0, 1] == 2.0
        assert fp.c[1, 2, 0] == 2.0
        assert jacobi_residual(fp) <= 1e-12

    def test_warped_torus_constant(self):
        fp = warped_torus_frame(2.0, 1.0)
        assert fp.c[0, 1, 0] == -0.5

    def test_jacobi_for_all_canned(self):
        for fp in (heisenberg_frame(), hopf_frame(1.0), hopf_frame(2.5),
                   warped_torus_frame(2.0, 1.0)):
            assert jacobi_residual(fp) <= 1e-12


class TestInvariants:
    def test_heisenberg(self, submersion_oracle):
        inv = submersion_invariants(heisenberg_frame())
        oracle = submersion_oracle["heisenberg"]
        assert np.allclose(inv.S_pi, oracle["S_pi"], atol=1e-12)
        assert np.allclose(inv.k, oracle["k"], atol=1e-12)
        assert np.allclose(inv.Omega, oracle["Omega"], atol=1e-12)
        assert inv.Omega[0, 1, 0] == pytest.approx(-1.0, abs=1e-12)
        assert inv.Omega[1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert not np.any(inv.S_pi)

    def test_hopf_round(self, submersion_oracle):
        inv = submersion_invariants(hopf_frame(1.0))
        oracle = submersion_oracle["hopf_lam=1"]
        assert np.allclose(inv.Omega, oracle["Omega"], atol=1e-12)
        assert inv.Omega[0, 1, 0] == pytest.approx(-2.0, abs=1e-12)
        assert not np.any(inv.S_pi)

    def test_berger_scaling(self, submersion_oracle):
        inv = submersion_invariants(hopf_frame(2.0))
        oracle = submersion_oracle["hopf_lam=2"]
        assert np.allclose(inv.Omega, oracle["Omega"], atol=1e-12)
        assert inv.Omega[0, 1, 0] == pytest.approx(-4.0, abs=1e-12)
        assert not np.any(inv.S_pi)

    def test_warped_torus(self, submersion_oracle):
        inv = submersion_invariants(warped_torus_frame(2.0, 1.0))
        oracle = submersion_oracle["warped_torus_f=2_fprime=1"]
        assert np.allclose(inv.S_pi, oracle["S_pi"], atol=1e-12)
        assert inv.S_pi[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert inv.k[0] == pytest.approx(0.5, abs=1e-12)
        assert not np.any(inv.Omega)

    def test_flat_product(self):
        fp = FramePoint(4, 2, np.zeros((4, 4, 4)))
        inv = submersion_invariants(fp)
        assert not np.any(inv.S_pi) and not np.any(inv.k) and not np.any(inv.Omega)

    def test_doubling_structure_constant_doubles_mean_curvature(self):
        fp = warped_torus_frame(2.0, 1.0)
        doubled = FramePoint(2, 1, 2.0 * fp.c)
        assert np.allclose(mean_curvature(doubled), 2.0 * mean_curvature(fp),
                           atol=1e-12)

    def test_symmetries_and_linearity(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            fp = random_frame(rng)
            s = second_fundamental_form(fp)
            assert np.max(np.abs(s - np.transpose(s, (1, 0, 2)))) <= 1e-12
            omega = fibration_curvature(fp)
            assert np.max(np.abs(omega + np.transpose(omega, (1, 0, 2)))) <= 1e-12
            alpha = rng.normal()
            scaled = FramePoint(fp.dim_total, fp.dim_fiber, alpha * fp.c)
            assert np.allclose(mean_curvature(scaled), alpha * mean_curvature(fp),
                               atol=1e-12 * max(1.0, abs(alpha)))
