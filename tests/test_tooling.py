"""The tooling itself: pytest reports failures, compare_outputs shows what moved,
numpy_ledger counts the numpy calls of a benchmark pass, src_lines counts lines by kind."""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
COMPARE_OUTPUTS = ROOT / "tools" / "compare_outputs.py"
NUMPY_LEDGER = ROOT / "tools" / "numpy_ledger.py"
SRC_LINES = ROOT / "tools" / "src_lines.py"

FAILING_TESTS = '''
def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_failing_test_does_not_end_the_run_under_the_project_config(tmp_path):
    # filterwarnings = ["error"] governs the run: a failing test is reported
    # and the run goes on to the next, with no INTERNALERROR
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout


def test_no_test_module_imports_hypothesis():
    # every seeded test loops over fixed seeds, so each run draws the same cases
    importers = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "hypothesis" for name in names):
                importers.append(path.name)
    assert importers == []


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


def test_compare_outputs_sums_up_the_moved_entries():
    # two check values move at round-off, then a third fails and a dim and a
    # norm move: the summary counts each kind and keeps the largest value move
    from ncgcurv.cli import run

    tool = _compare_outputs()
    doc = replace(run("selftest", None, seed=7),
                  values={"junk_dim": 2, "rank": 3, "seed": 7, "norm": 1.5})
    shift = {"junk_coset": 2.5e-16, "route_equality": -1e-16}
    checks = [replace(c, value=c.value + shift.get(c.name, 0.0)) for c in doc.checks]
    roundoff = replace(doc, checks=checks)
    failing = replace(doc, checks=[*checks[:-1], replace(checks[-1], value=1.0)],
                      values={**doc.values, "junk_dim": 3, "norm": 1.25})

    def totals(other, render):
        out = dict.fromkeys(("checks", "flags", "dims", "other", "largest"), 0)
        here, there = (tool.report_entries(getattr(d, render)()) for d in (doc, other))
        tool.tally_moves(here, there, out)
        tool.tally_moves(here, here, out)  # a repeated report adds nothing
        return out

    for render in ("to_json", "to_text"):
        moved = totals(failing, render)
        assert (moved["checks"], moved["flags"], moved["dims"], moved["other"]) == (3, 2, 1, 1)
        assert abs(moved["largest"] - 1.0) < 1e-14
    assert tool.summary(totals(roundoff, "to_json")) == (
        "moved report entries: 2 check values (largest |here - other| 2.500e-16), "
        "0 pass/fail flags, 0 dims, 0 other entries")


def test_compare_outputs_names_both_checkouts(tmp_path, monkeypatch, capsys):
    # "here" is the checkout holding the script, whatever the working directory:
    # the header names it next to the other side
    tool = _compare_outputs()
    captured = {ROOT: {"a": ["x", "", 0], "b": ["y", "", 0]},
                tmp_path: {"a": ["x", "", 0], "b": ["z", "", 0]}}
    monkeypatch.setattr(tool, "run_capture", lambda root: captured[root])
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(tmp_path)]) == 1
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"2 outputs of {ROOT} compared with {tmp_path.resolve()}: 1 differ"


def test_draw_stream_output_sees_one_extra_draw(monkeypatch):
    # the draw-stream hash reads the generator's state after each scenario:
    # one extra draw anywhere moves it, and the value hash with it
    from ncgcurv import generate

    tool = _compare_outputs()
    values, stream = tool._generated_digests()
    assert tool._generated_digests() == (values, stream)
    vertical = generate.random_vertical
    monkeypatch.setattr(generate, "random_vertical",
                        lambda rng, module: (rng.random(), vertical(rng, module))[1])
    planted = tool._generated_digests()
    assert planted[1] != stream


def test_draw_stream_output_sees_a_cut_at_another_gap(monkeypatch):
    # rank(P) is part of the hashed structure: a cut that keeps the other side
    # of its gap draws what it drew before, and still moves the stream hash
    from ncgcurv import generate

    tool = _compare_outputs()
    stream = tool._generated_digests()[1]
    cut = generate._point_cut

    def complement(table):
        p = cut(table)
        if p is not None:
            p = -p
            p[..., 0] += np.eye(len(p))
        return p

    monkeypatch.setattr(generate, "_point_cut", complement)
    assert tool._generated_digests()[1] != stream


def test_ladder_reports_name_the_gated_checks(monkeypatch):
    # each rung reads as a report of the checks connection_operators gates on,
    # the recorder on fgpmod._require is taken off again, and a plant at point
    # level moves the two rungs at or above the gate and no other
    from ncgcurv import fgpmod

    tool = _compare_outputs()
    require = fgpmod._require
    reports = tool._ladder_reports()
    assert fgpmod._require is require and tool._ladder_reports() == reports
    for out, err, code in reports.values():
        entries = tool.report_entries(out)
        assert [key for key in entries if key.startswith("checks.")] == [
            "checks.projector_range_isometry", "checks.connection_ker_mult",
            "checks.connection_grading_support", "checks.connection_compressed",
            "checks.connection_odd"]
        assert [key for key in entries if key.startswith("values.")] == [
            "values.route_residual", "values.norm", "values.R_r_sha256"]
        assert (err, code) == ("", 0)
    point = fgpmod._point_level_blocks

    def nudged(*args):
        a_r, a2_r, checks = point(*args)
        return a_r * (1 + 2.0 ** -40), a2_r, checks

    monkeypatch.setattr(fgpmod, "_point_level_blocks", nudged)
    planted = tool._ladder_reports()
    assert [label for label in reports if planted[label] != reports[label]] == [
        "ladder rung (n, d, m) = (16, 8, 6)", "ladder rung (n, d, m) = (20, 10, 6)"]


def _numpy_ledger():
    spec = importlib.util.spec_from_file_location("numpy_ledger", NUMPY_LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numpy_ledger_repeats_itself_and_puts_numpy_back():
    tool = _numpy_ledger()
    routines = [np.einsum, *(getattr(np.linalg, name) for name in tool.LINALG)]
    first, second = tool.ledger(), tool.ledger()
    assert first == second and tool.render(first) == tool.render(second)
    assert routines == [np.einsum, *(getattr(np.linalg, name) for name in tool.LINALG)]
    text = tool.render(first).splitlines()
    assert text[-1].startswith("ledger digest: ") and len(text[-1]) == len("ledger digest: ") + 64
    # the 17 fixture commands and selftest --seed 7 ran: every routine is there
    totals = dict(line[len("total "):].split(": ") for line in text if line.startswith("total "))
    assert set(totals) == {*tool.LINALG, "einsum"} and all(int(v) > 0 for v in totals.values())
    assert first["svd((2, 8, 8), compute_uv=False)"] > 0  # c1 of a and a* in one call


def test_numpy_ledger_keys_calls_by_shape_and_value():
    tool = _numpy_ledger()
    counts = Counter()
    with tool.counting(counts):
        np.linalg.norm(np.eye(3), 2)
        np.linalg.norm(np.eye(3), ord=2)
        np.einsum("ij,jk->ik", np.eye(2), [[1.0, 0.0], [0.0, 1.0]])
        np.einsum("ij,jk->ik", np.eye(2), np.eye(2))
    assert counts == Counter({"norm((3, 3), 2)": 1, "norm((3, 3), ord=2)": 1,
                              "einsum('ij,jk->ik', (2, 2), list(2, 2))": 1,
                              "einsum('ij,jk->ik', (2, 2), (2, 2))": 1})


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KINDS_SAMPLE = '''"""Module docstring,

over three lines."""

# a comment
X = """not a docstring,
but code"""


def f():
    """One line."""
    return X  # a trailing comment is code
'''


def test_src_lines_sorts_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(KINDS_SAMPLE, encoding="utf-8")
    assert _src_lines().count_file(path) == {"code": 4, "docstring": 4, "comment": 1,
                                             "blank": 3}


def test_src_lines_counts_add_up_to_the_line_count():
    # every line of src/ and tests/ is counted once, as exactly one kind
    tool = _src_lines()
    for top in tool.TREES:
        total = 0
        for path in sorted((ROOT / top).rglob("*.py")):
            counts = tool.count_file(path)
            assert sum(counts.values()) == len(path.read_text(encoding="utf-8").splitlines())
            total += sum(counts.values())
        assert sum(tool.count_tree(ROOT / top).values()) == total > 0
