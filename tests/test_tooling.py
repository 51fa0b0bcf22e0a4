"""The pytest configuration itself: failures are reported, not swallowed."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_given_fails(x):
    assert x != x


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_run(tmp_path):
    # with filterwarnings = ["error"], hypothesis's report hook for a failing
    # @given test raised a DeprecationWarning from mypy_extensions, and pytest
    # stopped with INTERNALERROR after "1 failed", never running the rest
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "2 failed, 1 passed" in run.stdout
