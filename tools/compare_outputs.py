#!/usr/bin/env python3
"""Check that this checkout prints byte for byte what another checkout prints.

Usage: python tools/compare_outputs.py OTHER_DIR

OTHER_DIR is a second checkout of the repository, typically the parent
commit.  Each checkout is run in its own ``python -W error`` process with
PYTHONDONTWRITEBYTECODE=1 and its own ``src`` on PYTHONPATH.  That process
captures, as (stdout, stderr, exit code):

* every CLI command on every fixture, in text and in JSON, each with and
  without --emit-matrices (the commands run in-process through
  ``ncgcurv.cli.main``);
* ``selftest --seed S`` for S in 0, 7 and 11, in text and in JSON;
* every script in demos/ and oracles/, each in a fresh interpreter;
* a hash of the arrays of 40 seeded generated scenarios (triple, module,
  junk lift pair and vertical operator).

The outputs that differ are listed, each differing stdout or stderr with the
first line where the two sides part (cut to a window around the first
differing character), and the exit code is 1 if any output differs.
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


def _generated_digest() -> str:
    import numpy as np

    from ncgcurv import generate

    h = hashlib.sha256()
    for seed in range(GENERATED_SCENARIOS):
        rng = generate.rng_for(seed)
        st = generate.random_triple(rng)
        module = generate.random_module(rng, st)
        a1, a2 = generate.junk_lift_pair(rng, module)
        vertical = generate.random_vertical(rng, module)
        for arr in (st.gamma, st.basis, st.dirac, module.p, module.signs,
                    a1.entries, a2.entries, vertical.entries):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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
    outputs[f"{GENERATED_SCENARIOS} generated scenarios"] = [_generated_digest(), "", 0]
    return outputs


def run_capture(root: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(Path(__file__).resolve()), "--capture", str(root)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"capture failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(a: str, b: str, width: int = 100) -> tuple[str, str]:
    """The first line where texts ``a`` and ``b`` differ, one per side.

    Each is "line N: <text>", cut to ``width`` characters from the same start
    column, ``width // 2`` before the first differing character; a side that
    has no such line reads "line N: (no line)".
    """
    lines_a, lines_b = a.split("\n"), b.split("\n")
    k = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))
    x, y = (lines[k] if k < len(lines) else None for lines in (lines_a, lines_b))
    col = next((i for i, (p, q) in enumerate(zip(x or "", y or "")) if p != q),
               min(len(x or ""), len(y or "")))
    start = max(0, col - width // 2)

    def clip(line: str | None) -> str:
        if line is None:
            return f"line {k + 1}: (no line)"
        cut = line[start:start + width]
        return (f"line {k + 1}: {'...' if start else ''}{cut}"
                f"{'...' if start + width < len(line) else ''}")

    return clip(x), clip(y)


def describe(label: str, a: list | None, b: list | None) -> list[str]:
    """Report lines for one output captured on both sides; empty if it repeats.

    The first line names the parts that differ; each differing stdout or
    stderr follows with its :func:`first_difference`, this side first.
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
            here, other = first_difference(x, y)
            lines += [f"    {part} here:  {here}", f"    {part} other: {other}"]
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
    differ = [lines for label in sorted(set(mine) | set(theirs))
              if (lines := describe(label, mine.get(label), theirs.get(label)))]
    print(f"{len(set(mine) | set(theirs))} outputs compared with {other}: "
          f"{len(differ)} differ")
    for lines in differ:
        print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
