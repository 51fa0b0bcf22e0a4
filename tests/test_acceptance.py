"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: pass` line (run pytest with -s to see
them inline); the test names double as the per-criterion report under -v.
All random streams are fixed-seed and the tolerances are pinned here.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ncgcurv import harness
from ncgcurv.curvature import (
    curvature_direct,
    external_product_defect_ungraded,
)
from ncgcurv.fgpmod import product_operator
from ncgcurv.forms import junk_space, one_form_space, two_form_space
from ncgcurv.generate import random_connection, random_module, random_triple, rng_for
from ncgcurv.glinalg import frobenius_norm, spectral_norm
from ncgcurv.scenario import parse_scenario
from ncgcurv.submersion import hopf_frame, heisenberg_frame, jacobi_residual, \
    submersion_invariants, warped_torus_frame

ROOT = Path(__file__).resolve().parents[1]
SEED = 20260809


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: pass  ({detail})")


def test_criterion_1_route_equality():
    t0 = time.perf_counter()
    residuals = harness.route_equality_residuals(SEED, 200)
    elapsed = time.perf_counter() - t0
    worst = max(residuals)
    assert len(residuals) == 200
    assert worst <= 1e-9, f"route residual {worst:.3e} exceeds 1e-9"
    assert elapsed < 60.0, f"route-equality sweep took {elapsed:.1f}s"
    report(1, f"200 scenarios, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_two_form_identity():
    residuals = harness.ajunkie_residuals(SEED + 1, 200)
    worst = max(residuals)
    assert len(residuals) == 200
    assert worst <= 1e-9, f"two-form identity residual {worst:.3e} exceeds 1e-9"
    report(2, f"200 forms, max residual {worst:.2e}")


def test_criterion_3_junk_invariance():
    coset, canonical = harness.junk_invariance_residuals(SEED + 2, 50)
    assert len(coset) == 50
    worst_coset = max(coset)
    worst_canonical = max(canonical)
    assert worst_coset <= 1e-8, f"coset residual {worst_coset:.3e} exceeds 1e-8"
    assert worst_canonical <= 1e-8, \
        f"canonical representatives differ by {worst_canonical:.3e}"
    report(3, f"50 lift pairs, coset {worst_coset:.2e}, "
              f"canonical {worst_canonical:.2e}")


def test_criterion_4_correspondence_decomposition():
    residuals = harness.correspondence_residuals(SEED + 3, 100)
    worst = max(residuals)
    assert len(residuals) == 100
    assert worst <= 1e-10, f"decomposition residual {worst:.3e} exceeds 1e-10"
    report(4, f"100 (A, S) pairs, max residual {worst:.2e}")


def test_criterion_5_external_product():
    ratios = harness.external_defect_ratios(SEED + 4, 20)
    worst = max(ratios)
    assert len(ratios) == 20
    assert worst <= 1e-12, f"external defect ratio {worst:.3e} exceeds 1e-12"
    scen = parse_scenario(ROOT / "fixtures" / "two_point_pair.json")
    control = spectral_norm(
        external_product_defect_ungraded(scen.triple, scen.triple2))
    assert control >= 0.01, "ungraded negative control unexpectedly small"
    report(5, f"20 pairs, max ratio {worst:.2e}, control norm {control:.2f}")


def test_criterion_6_two_point_fixture(two_point_oracle):
    scen = parse_scenario(ROOT / "fixtures" / "two_point.json")
    one = one_form_space(scen.triple, scen.rank_tol)
    two = two_form_space(scen.triple, scen.rank_tol)
    junk = junk_space(scen.triple, scen.rank_tol)
    assert (one.dim, two.dim, junk.dim) == (2, 2, 0)
    assert one.dim == two_point_oracle["one_form_dim"]
    assert two.dim == two_point_oracle["two_form_dim"]
    assert junk.dim == two_point_oracle["junk_dim"]

    scen_mod = parse_scenario(ROOT / "fixtures" / "two_point_module.json")
    r = curvature_direct(scen_mod.module)
    expected = np.diag([-1.0, 0.0, 0.0, -1.0])
    assert np.allclose(r, expected, atol=1e-10)
    assert np.allclose(np.diag(r).real, two_point_oracle["curvature_diag"], atol=1e-10)
    norm = spectral_norm(r)
    assert norm == pytest.approx(1.0, abs=1e-10)
    assert norm == pytest.approx(two_point_oracle["curvature_norm"], abs=1e-10)
    report(6, "dims (2, 2, 0) and R = diag(-1, 0, 0, -1), oracle-verified")


def test_criterion_7_grassmann_symmetry():
    sym, odd = harness.grassmann_residuals(SEED + 5, 100)
    assert len(sym) == 100
    worst_sym, worst_odd = max(sym), max(odd)
    assert worst_sym <= 1e-10, f"symmetry defect {worst_sym:.3e} exceeds 1e-10"
    assert worst_odd <= 1e-10, f"grading defect {worst_odd:.3e} exceeds 1e-10"
    for name in ("two_point_module.json", "two_point_free_module.json"):
        scen = parse_scenario(ROOT / "fixtures" / name)
        for op in (product_operator(scen.module),
                   product_operator(scen.module, scen.connection)):
            assert frobenius_norm(op.mat - op.mat.conj().T) <= 1e-10
            g = op.grading
            assert frobenius_norm(g @ op.mat + op.mat @ g) <= 1e-10
    report(7, f"100 modules + fixtures, sym {worst_sym:.2e}, odd {worst_odd:.2e}")


def test_criterion_8_submersion_values():
    inv = submersion_invariants(heisenberg_frame())
    assert np.max(np.abs(inv.S_pi)) <= 1e-12
    assert np.max(np.abs(inv.k)) <= 1e-12
    assert inv.Omega[0, 1, 0] == pytest.approx(-1.0, abs=1e-12)

    inv = submersion_invariants(hopf_frame(1.0))
    assert inv.Omega[0, 1, 0] == pytest.approx(-2.0, abs=1e-12)
    assert np.max(np.abs(inv.S_pi)) <= 1e-12

    inv = submersion_invariants(warped_torus_frame(2.0, 1.0))
    assert inv.k[0] == pytest.approx(0.5, abs=1e-12)

    for fp in (heisenberg_frame(), hopf_frame(1.0), warped_torus_frame(2.0, 1.0)):
        assert jacobi_residual(fp) <= 1e-12
    report(8, "heisenberg, hopf(1), warped_torus(2,1) exact, Jacobi-checked")


def test_criterion_9_growth_proxy_documented():
    # The norm-growth asymptotic for line-bundle towers lives over an
    # infinite-dimensional base algebra and is out of scope; the README
    # documents the finite-rank proxy, which we run here and report only.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "growth proxy" in readme, "README must document the finite-rank proxy"
    assert (ROOT / "demos" / "curvature_growth_demo.py").exists()

    rng = rng_for(SEED + 6)
    st = random_triple(rng, n=4, kind="amp2")
    norms = []
    for m in (1, 2, 4, 6):
        module = random_module(rng, st, m=m, allow_free=False)
        a = random_connection(rng, module, hermitian=True)
        norms.append(spectral_norm(curvature_direct(module, a)))
    assert all(np.isfinite(norms))  # reported, not asserted to grow
    report(9, "growth proxy reported (m -> |R|): "
              + ", ".join(f"{v:.2f}" for v in norms))
