#!/usr/bin/env python3
"""Check that this checkout prints byte for byte what another checkout prints.

Usage: python tools/compare_outputs.py OTHER_DIR

OTHER_DIR is a second checkout of the repository, typically the parent
commit.  This side ("here") is always the checkout that holds this copy of
the script, whatever the working directory, so the header line names both
("N outputs of HERE compared with OTHER").  Each checkout is run in its own
``python -W error`` process with PYTHONDONTWRITEBYTECODE=1 and its own
``src`` on PYTHONPATH.  That process
captures, as (stdout, stderr, exit code):

* every CLI command on every fixture, in text and in JSON, each with and
  without --emit-matrices (the commands run in-process through
  ``ncgcurv.cli.main``);
* ``selftest --seed S`` for S in 0, 7 and 11, in text and in JSON;
* every script in demos/ and oracles/, each in a fresh interpreter;
* a hash of the arrays of 40 seeded generated scenarios (triple, module,
  junk lift pair and vertical operator);
* a hash of their draw stream: the generator's state after each scenario,
  with its integer structure (n, d, m, the signs, the 0/1 pattern of the
  basis, whether the module is free or a spectral cut, and rank(P), the
  rounded trace of the assembled projection).  It stays put when a change
  moves values at round-off but draws what it drew before; a cut at another
  gap moves it;
* a JSON report per rung of the benchmark's size ladder, drawn as
  ``tests/conftest.py::ladder_modules`` draws it, with a seeded Hermitian
  connection: the checks ``connection_operators`` gates on (read as it hands
  them to ``fgpmod._require``), the route residual, the norm and a hash of
  R_r of its ``curvature_report``.  The top two rungs are the only captured
  modules at or above ``fgpmod.POINT_LEVEL_MIN_DIM``.

The outputs that differ are listed, and the exit code is 1 if any differs.
When both sides of a differing stdout or stderr parse as a report (text or
JSON), every check, value, matrix or header field whose bytes differ is
named, with both sides; otherwise the first line where the two sides part is
shown.  Each shown text is cut to a window around its first differing
character.  One last line sums up the moved report entries: how many check
values moved and the largest |here - other| among them, how many pass/fail
flags and how many dims (values named ``rank`` or ``*_dim*``) moved, and how
many other entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SELFTEST_SEEDS = (0, 7, 11)
GENERATED_SCENARIOS = 40
LADDER = ((6, 4, 4), (12, 8, 4), (16, 8, 6), (20, 10, 6))
LADDER_CONNECTION_SEED = 211


def _cli(argv: list[str]) -> list:
    from ncgcurv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # a traceback: record it, keep capturing
            code = f"{type(exc).__name__}: {exc}"
    return [out.getvalue(), err.getvalue(), code]


def _generated_digests() -> tuple[str, str]:
    """Hashes of the arrays, and of the draw stream, of the generated scenarios."""
    import numpy as np

    from ncgcurv import generate

    values, stream = hashlib.sha256(), hashlib.sha256()
    for seed in range(GENERATED_SCENARIOS):
        rng = generate.rng_for(seed)
        st = generate.random_triple(rng)
        module = generate.random_module(rng, st)
        a1, a2 = generate.junk_lift_pair(rng, module)
        vertical = generate.random_vertical(rng, module)
        for arr in (st.gamma, st.basis, st.dirac, module.p, module.signs,
                    a1.entries, a2.entries, vertical.entries):
            values.update(np.ascontiguousarray(arr).tobytes())
        free = np.zeros_like(module.p)
        free[np.arange(module.m), np.arange(module.m), 0] = 1.0
        structure = (st.n, st.d, module.m, module.signs.astype(int).tolist(),
                     np.packbits(st.basis != 0).tobytes().hex(),
                     bool(np.array_equal(module.p, free)),
                     round(np.trace(module.projector).real))
        stream.update(repr((structure, rng.bit_generator.state)).encode())
    return values.hexdigest(), stream.hexdigest()


def _ladder_reports() -> dict[str, list]:
    """The gated checks, route residual, norm and R_r hash of each ladder rung."""
    import numpy as np

    from ncgcurv import curvature, fgpmod, generate

    gated, require = [], fgpmod._require
    fgpmod._require = lambda checks: gated.extend(checks) or require(checks)
    reports = {}
    try:
        for idx, (n, d, m) in enumerate(LADDER):
            rng = generate.rng_for(7 + idx)
            st = generate.random_triple(rng, n=n, d=d, kind="diag")
            module = generate.random_module(rng, st, m=m, allow_free=False)
            a = generate.random_connection(generate.rng_for(LADDER_CONNECTION_SEED + idx), module)
            gated.clear()
            report = curvature.curvature_report(module, a)
            digest = hashlib.sha256(np.ascontiguousarray(report.R_r).tobytes()).hexdigest()
            label = f"ladder rung (n, d, m) = ({n}, {d}, {m})"
            doc = {"command": label,
                   "checks": [{"name": c.name, "value": c.value, "threshold": c.threshold,
                               "passed": c.passed} for c in gated],
                   "values": {"route_residual": report.route_residual, "norm": report.norm,
                              "R_r_sha256": digest}}
            reports[label] = [json.dumps(doc, indent=2) + "\n", "", 0]
    finally:
        fgpmod._require = require
    return reports


def capture(root: Path) -> dict[str, list]:
    """Every output of the checkout at ``root``, keyed by a readable label."""
    from ncgcurv.cli import COMMANDS

    outputs: dict[str, list] = {}
    for fixture in sorted((root / "fixtures").glob("*.json")):
        rel = str(fixture.relative_to(root))
        for command in COMMANDS:
            for fmt in ("text", "json"):
                for emit in ((), ("--emit-matrices",)):
                    argv = [command, rel, "--format", fmt, *emit]
                    outputs[" ".join(argv)] = _cli(argv)
    for seed in SELFTEST_SEEDS:
        for fmt in ("text", "json"):
            argv = ["selftest", "--seed", str(seed), "--format", fmt]
            outputs[" ".join(argv)] = _cli(argv)
    for script in sorted([*root.glob("demos/*.py"), *root.glob("oracles/*.py")]):
        rel = str(script.relative_to(root))
        proc = subprocess.run([sys.executable, "-W", "error", rel], cwd=root,
                              capture_output=True, text=True)
        outputs[rel] = [proc.stdout, proc.stderr, proc.returncode]
    values, stream = _generated_digests()
    outputs[f"{GENERATED_SCENARIOS} generated scenarios"] = [values, "", 0]
    outputs[f"{GENERATED_SCENARIOS} generated scenarios: draw stream"] = [stream, "", 0]
    outputs.update(_ladder_reports())
    return outputs


def run_capture(root: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(Path(__file__).resolve()), "--capture", str(root)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"capture failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def clip_pair(x: str | None, y: str | None, width: int = 100,
              missing: str = "(missing)") -> tuple[str, str]:
    """``x`` and ``y`` cut to ``width`` characters from the same start column,
    ``width // 2`` before their first differing character; None reads ``missing``."""
    col = next((i for i, (p, q) in enumerate(zip(x or "", y or "")) if p != q),
               min(len(x or ""), len(y or "")))
    start = max(0, col - width // 2)

    def clip(text: str | None) -> str:
        if text is None:
            return missing
        cut = text[start:start + width]
        return f"{'...' if start else ''}{cut}{'...' if start + width < len(text) else ''}"

    return clip(x), clip(y)


def first_difference(a: str, b: str, width: int = 100) -> tuple[str, str]:
    """The first line where texts ``a`` and ``b`` differ, one per side.

    Each is "line N: <text>", cut by :func:`clip_pair`; a side that has no
    such line reads "line N: (no line)".
    """
    lines_a, lines_b = a.split("\n"), b.split("\n")
    k = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))
    x, y = (lines[k] if k < len(lines) else None for lines in (lines_a, lines_b))
    return tuple(f"line {k + 1}: {side}" for side in clip_pair(x, y, width, "(no line)"))


REPORT_SECTIONS = ("checks", "values", "matrices")


def report_entries(text: str) -> dict[str, str] | None:
    """The named parts of a CLI report, or None if ``text`` is not one.

    Keys are "checks.<name>", "values.<name>" and "matrices.<name>", and the
    field name for the rest: a text report maps each to its line, a JSON
    report to that part re-serialized.
    """
    entries: dict[str, str] = {}
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "command" in doc:
        for key, value in doc.items():
            if key == "checks":
                for check in value:
                    entries[f"checks.{check['name']}"] = json.dumps(check)
            elif key in REPORT_SECTIONS:
                for name, part in value.items():
                    entries[f"{key}.{name}"] = json.dumps(part)
            else:
                entries[key] = json.dumps(value)
        return entries
    lines = text.rstrip("\n").split("\n")
    if not (lines[0].startswith("command:") and lines[-1].startswith("result:")):
        return None
    section = None
    for line in lines:
        if not line.startswith("  "):
            label = line.split(":", 1)[0]
            section = label if line == f"{label}:" and label in REPORT_SECTIONS else None
            if section is None:
                entries[label] = line
        elif section == "checks":
            entries[f"checks.{line.split()[1]}"] = line
        else:
            entries[f"{section}.{line.split(' = ', 1)[0].strip()}"] = line
    return entries


def differences(part: str, x: str, y: str) -> list[str]:
    """Report lines for one differing stdout or stderr, this side first.

    When both sides parse as reports, each check, value, matrix or field
    whose bytes differ is named; otherwise, or when only the layout differs,
    the :func:`first_difference` is shown.
    """
    here, other = report_entries(x), report_entries(y)
    if here is not None and other is not None:
        keys = [*here, *(key for key in other if key not in here)]
        moved = [key for key in keys if here.get(key) != other.get(key)]
        if moved:
            lines = []
            for key in moved:
                h, o = clip_pair(here.get(key), other.get(key))
                lines += [f"{part} {key} here:  {h}", f"{part} {key} other: {o}"]
            return lines
    h, o = first_difference(x, y)
    return [f"{part} here:  {h}", f"{part} other: {o}"]


def _check_parts(entry: str | None) -> tuple[float | None, bool | None]:
    """(value, passed) of a check entry, text or JSON; (None, None) if missing."""
    if entry is None:
        return None, None
    if entry.startswith("{"):
        check = json.loads(entry)
        return check["value"], check["passed"]
    status, _, value = entry.split()[:3]
    return float(value), status == "pass"


def tally_moves(here: dict[str, str], other: dict[str, str], totals: dict) -> None:
    """Add the entries that moved between two parsed reports to ``totals``.

    "checks" counts moved check values and "largest" keeps the largest |here -
    other| among them; "flags" counts moved pass/fail flags (of a check, or the
    report's ``passed`` or ``result``); "dims" counts moved values named
    ``rank`` or ``*_dim*``; "other" counts every other moved entry.
    """
    for key in [*here, *(key for key in other if key not in here)]:
        if here.get(key) == other.get(key):
            continue
        section, _, name = key.partition(".")
        if section == "checks":
            (h, h_flag), (o, o_flag) = _check_parts(here.get(key)), _check_parts(other.get(key))
            totals["flags"] += h_flag != o_flag
            if h is not None and o is not None and h != o:
                totals["checks"] += 1
                totals["largest"] = max(totals["largest"], abs(h - o))
        elif key in ("passed", "result"):
            totals["flags"] += 1
        elif section == "values" and (name == "rank" or "dim" in name.split("_")):
            totals["dims"] += 1
        else:
            totals["other"] += 1


def summary(totals: dict) -> str:
    """The closing line of a comparison, from :func:`tally_moves`' totals."""
    return (f"moved report entries: {totals['checks']} check values "
            f"(largest |here - other| {totals['largest']:.3e}), "
            f"{totals['flags']} pass/fail flags, {totals['dims']} dims, "
            f"{totals['other']} other entries")


def describe(label: str, a: list | None, b: list | None) -> list[str]:
    """Report lines for one output captured on both sides; empty if it repeats.

    The first line names the parts that differ; each differing stdout or
    stderr follows with its :func:`differences`.
    """
    if a == b:
        return []
    if a is None or b is None:
        return [f"  {label}: missing"]
    names = ("stdout", "stderr", "exit code")
    parts = [part for part, x, y in zip(names, a, b) if x != y]
    lines = [f"  {label}: {', '.join(parts)}"]
    for part, x, y in zip(names[:2], a, b):
        if x != y:
            lines += [f"    {line}" for line in differences(part, x, y)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--capture":
        print(json.dumps(capture(Path(argv[1]))))
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parents[1]
    other = Path(argv[0]).resolve()
    mine, theirs = run_capture(here), run_capture(other)
    labels = sorted(set(mine) | set(theirs))
    differ = [lines for label in labels
              if (lines := describe(label, mine.get(label), theirs.get(label)))]
    totals = dict.fromkeys(("checks", "flags", "dims", "other", "largest"), 0)
    for label in labels:
        if label in mine and label in theirs:
            for x, y in zip(mine[label][:2], theirs[label][:2]):
                entries = report_entries(x), report_entries(y)
                if x != y and None not in entries:
                    tally_moves(*entries, totals)
    print(f"{len(labels)} outputs of {here} compared with {other}: {len(differ)} differ")
    for lines in differ:
        print("\n".join(lines))
    print(summary(totals))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
