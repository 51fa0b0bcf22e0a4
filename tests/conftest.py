import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncgcurv import ProjectiveModule, SpectralTriple, fgpmod
from ncgcurv.generate import random_module, random_triple, rng_for

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
ORACLES = ROOT / "oracles"


def full_svd_kernel(st_, rank_tol=1e-9) -> np.ndarray:
    """Rows spanning ker(m) intersect ker(pi_d), from the full SVD of its 2n^2 x d^2 map.

    The test-local reference of the route that ``kernel_one_forms`` took
    before the delta basis: column (i, j) stacks vec(b_i b_j) over
    vec(b_i [D, b_j]).  Rows are flattened d x d coefficient tables.
    """
    pairs = st_.pair_products(np.stack([st_.basis, st_.dirac_commutators]))
    return _full_svd_null_rows(pairs.transpose(1, 2, 0, 3, 4).reshape(st_.d ** 2, -1).T, rank_tol)


def svd_universal_form_basis(st_, rank_tol=1e-9) -> np.ndarray:
    """Rows spanning ker(m), from the SVD of the n^2 x d^2 matrix of m.

    The test-local reference of the route that ``universal_form_basis`` took
    before the delta basis.
    """
    return _full_svd_null_rows(st_.pair_products(st_.basis).reshape(st_.d ** 2, -1).T, rank_tol)


def _full_svd_null_rows(L: np.ndarray, rank_tol: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(L, full_matrices=True)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0.0 else 0
    return vh[rank:].conj()


def span_gap(rows, reference) -> float:
    """Spectral norm of the difference of the projectors onto two row spans.

    Each (k, q) array is orthonormalised by a QR of its transpose first, so
    neither needs orthonormal rows.
    """
    def projector(a):
        q, _ = np.linalg.qr(np.asarray(a).T)
        return q @ q.conj().T

    return float(np.linalg.norm(projector(rows) - projector(reference), 2))


def even_unitary(rng, gamma: np.ndarray) -> np.ndarray:
    """Random unitary commuting with the grading: exp(iH) for an even Hermitian H."""
    n = len(gamma)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    h = h + gamma @ h @ gamma
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def conjugated(st_: SpectralTriple, u: np.ndarray) -> SpectralTriple:
    """U st U*: the same grading, basis and Dirac conjugated by an even unitary U.

    basis[0] becomes the identity only up to rounding, so junk_space takes its
    SVD route on the copy.
    """
    return SpectralTriple(st_.gamma, u @ st_.basis @ u.conj().T, u @ st_.dirac @ u.conj().T)


def unitary_twin(module, a, rng):
    """U (gamma, basis, D) U* for a random unitary U, with the same tables, and
    U: no longer diagonal, so the range isometry comes from eigh(P)."""
    n = module.triple.n
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    st_ = module.triple
    st_u = SpectralTriple(*(u @ x @ u.conj().T for x in (st_.gamma, st_.basis, st_.dirac)))
    module_u = ProjectiveModule(st_u, module.p, module.signs)
    return module_u, None if a is None else replace(a, module=module_u), u


def form_tables(forms, d: int) -> np.ndarray:
    """(k, d^2) array of the flattened coefficient tables of k universal forms."""
    return np.reshape([w.coeffs for w in forms], (len(forms), d * d))


def run_oracle(name: str) -> dict:
    """Run one of the shipped brute-force oracle scripts and parse its JSON."""
    out = subprocess.run(
        [sys.executable, str(ORACLES / name)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def two_point() -> SpectralTriple:
    gamma = np.diag([1.0, -1.0])
    q = np.diag([1.0, 0.0])
    dirac = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SpectralTriple(gamma, (np.eye(2), q), dirac)


@pytest.fixture
def two_point_module(two_point) -> ProjectiveModule:
    # p = diag(q, 1 - q) with generator signs (1, -1)
    p = np.zeros((2, 2, 2), dtype=complex)
    p[0, 0] = [0, 1]
    p[1, 1] = [1, -1]
    return ProjectiveModule(two_point, p, np.array([1.0, -1.0]))


@pytest.fixture
def uneven_module(two_point) -> ProjectiveModule:
    # p = (1/2) [[1, 1], [1, 1]] with signs (1, -1): a projection that mixes the grading
    p = np.zeros((2, 2, 2), dtype=complex)
    p[:, :, 0] = 0.5
    return ProjectiveModule(two_point, p, np.array([1.0, -1.0]))


@pytest.fixture
def free_module(two_point) -> ProjectiveModule:
    p = np.zeros((2, 2, 2), dtype=complex)
    p[0, 0, 0] = 1
    p[1, 1, 0] = 1
    return ProjectiveModule(two_point, p, np.array([1.0, -1.0]))


@pytest.fixture
def n3() -> SpectralTriple:
    gamma = np.diag([1.0, 1.0, -1.0])
    q1 = np.diag([1.0, 0.0, 0.0])
    q2 = np.diag([0.0, 1.0, 0.0])
    dirac = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    return SpectralTriple(gamma, (np.eye(3), q1, q2), dirac)


@pytest.fixture
def connection_evaluations(monkeypatch) -> list[str]:
    """In call order: "represented" per ConnectionForm.represented, "checks" per validation."""
    calls = []
    represented = fgpmod.ConnectionForm.represented
    checks = fgpmod._connection_checks
    monkeypatch.setattr(fgpmod.ConnectionForm, "represented",
                        lambda self: calls.append("represented") or represented(self))
    monkeypatch.setattr(fgpmod, "_connection_checks",
                        lambda *args: calls.append("checks") or checks(*args))
    return calls


@pytest.fixture(scope="session")
def ladder_modules() -> list[ProjectiveModule]:
    """Module of each size-ladder rung (n, d, m), drawn as the benchmark does."""
    modules = []
    for idx, (n, d, m) in enumerate(((6, 4, 4), (12, 8, 4), (16, 8, 6), (20, 10, 6))):
        rng = rng_for(7 + idx)
        st_ = random_triple(rng, n=n, d=d, kind="diag")
        modules.append(random_module(rng, st_, m=m, allow_free=False))
    return modules


@pytest.fixture(scope="session")
def two_point_oracle() -> dict:
    return run_oracle("two_point_oracle.py")


@pytest.fixture(scope="session")
def n3_oracle() -> dict:
    return run_oracle("n3_junk_oracle.py")


@pytest.fixture(scope="session")
def submersion_oracle() -> dict:
    return run_oracle("submersion_oracle.py")
