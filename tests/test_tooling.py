"""The tooling itself: pytest reports failures, compare_outputs shows what moved."""

import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
COMPARE_OUTPUTS = ROOT / "tools" / "compare_outputs.py"

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


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_shows_the_first_differing_lines():
    tool = _compare_outputs()
    same = ["a\nb\n", "", 0]
    assert tool.describe("same", same, list(same)) == []
    assert tool.describe("gone", same, None) == ["  gone: missing"]
    text = tool.describe("selftest", ["x\n  pass  junk  3.437e-15\n", "", 0],
                         ["x\n  pass  junk  3.469e-15\n", "warn\n", 1])
    assert text == [
        "  selftest: stdout, stderr, exit code",
        "    stdout here:  line 2:   pass  junk  3.437e-15",
        "    stdout other: line 2:   pass  junk  3.469e-15",
        "    stderr here:  line 1: ",
        "    stderr other: line 1: warn",
    ]
    # a side that ends first, and a long line cut around its first difference
    assert tool.first_difference("a\n", "a\nb") == ("line 2: ", "line 2: b")
    assert tool.first_difference("a", "a\nb") == ("line 2: (no line)", "line 2: b")
    here, other = tool.first_difference("x" * 300 + "1" + "y" * 300,
                                        "x" * 300 + "2" + "y" * 300, width=20)
    assert here == "line 1: ..." + "x" * 10 + "1" + "y" * 9 + "..."
    assert other == "line 1: ..." + "x" * 10 + "2" + "y" * 9 + "..."


def test_compare_outputs_names_every_moved_check():
    # three checks of one selftest report move: each is named, in text and
    # in JSON (where the whole report is one line), with both sides
    from ncgcurv.cli import run

    tool = _compare_outputs()
    doc = run("selftest", None, seed=7)
    moved = ["junk_coset", "junk_canonical_unique", "junk_in_two_forms"]
    other = replace(doc, checks=[replace(c, value=2 * c.value) if c.name in moved else c
                                 for c in doc.checks],
                    values={**doc.values, "seed": 8})
    keys = [f"checks.{name}" for name in moved] + ["values.seed"]
    for render in ("to_text", "to_json"):
        here, there = getattr(doc, render)(), getattr(other, render)()
        lines = tool.describe("selftest", [here, "", 0], [there, "", 0])
        assert lines[0] == "  selftest: stdout"
        named = [line.split()[1] for line in lines[1:]]
        assert named == [key for key in keys for _ in range(2)]
        assert [line.split()[2] for line in lines[1:]] == ["here:", "other:"] * len(keys)
    # a side that is not a report falls back to the first differing line
    lines = tool.describe("selftest", [doc.to_text(), "", 0], ["oops\n", "", 0])
    assert lines[1] == "    stdout here:  line 1: command:  selftest"
