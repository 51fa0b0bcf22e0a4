import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgcurv import ProjectiveModule, SpectralTriple
from ncgcurv.generate import random_module, random_triple, rng_for

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
ORACLES = ROOT / "oracles"


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
