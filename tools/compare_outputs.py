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

The outputs that differ are listed, and the exit code is 1 if any does.
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
    differ = []
    for label in sorted(set(mine) | set(theirs)):
        a, b = mine.get(label), theirs.get(label)
        if a != b:
            parts = ("missing",) if a is None or b is None else [
                part for part, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
            differ.append(f"  {label}: {', '.join(parts)}")
    print(f"{len(set(mine) | set(theirs))} outputs compared with {other}: "
          f"{len(differ)} differ")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
