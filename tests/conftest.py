import os

# BLAS at one thread, as the benchmark pins it, before numpy loads: a threaded
# BLAS that shares its cores with other work slows the seeded tests severalfold
for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(key, "1")

from pathlib import Path

import numpy as np
import pytest

from ncgcurv import ProjectiveModule, SpectralTriple, fgpmod
from ncgcurv.generate import random_module, random_triple, rng_for
from reference import run_oracle

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


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
    """In call order: "represented" per ConnectionForm.represented, "checks" per
    slot-level validation, "point level" per point-level evaluation and validation."""
    calls = []
    represented = fgpmod.ConnectionForm.represented
    checks = fgpmod._connection_checks
    point_level = fgpmod._point_level_blocks
    monkeypatch.setattr(fgpmod.ConnectionForm, "represented",
                        lambda self: calls.append("represented") or represented(self))
    monkeypatch.setattr(fgpmod, "_connection_checks",
                        lambda *args: calls.append("checks") or checks(*args))
    monkeypatch.setattr(fgpmod, "_point_level_blocks",
                        lambda *args: calls.append("point level") or point_level(*args))
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
