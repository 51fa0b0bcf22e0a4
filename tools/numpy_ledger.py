#!/usr/bin/env python3
"""Count the numpy calls of one benchmark pass: a deterministic work ledger.

Usage: python tools/numpy_ledger.py [--workload {cli_fixtures,size_ladder}]

With ``--workload size_ladder`` it runs the 14 ops of one pass of
bench/workloads.py's ``SizeLadder`` (seed 0; generation is not counted)
instead of the fixture commands below; bench/ is read, never edited.

Runs the 17 fixture commands of the benchmark's ``cli_fixtures`` workload
and ``selftest --seed 7``, with the arguments that workload gives them
(``CLI_PAIRS`` and ``cli_argv`` of bench/cli_fixtures.py), through
``ncgcurv.cli.main``: once, untimed, in this process, on this checkout's
``src``.  Each call of ``np.linalg.{eigh, eigvalsh, svd,
qr, lstsq, inv, norm}`` and ``np.einsum`` is counted under its routine and
its arguments: an array by its shape, a string, number, tuple or None by its
value (einsum's subscripts, norm's ord and axis), anything else by its type
and shape.  The ledger prints one line per key, "count routine(arguments)"
in sorted order, then the total per routine and a sha256 digest of the
lines; two runs on the same code print the same bytes, so ``diff`` of two
ledgers shows where a change moved work.

What the ledger cannot see: ``@`` and ``np.matmul``, ufuncs and reductions,
every other numpy function, and the cost of numpy's dispatch itself.  A
routine that calls another inside numpy counts once, as the routine called:
``np.linalg.norm(m, 2)`` is one ``norm``, not an ``svd``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LINALG = ("eigh", "eigvalsh", "svd", "qr", "lstsq", "inv", "norm")


def describe(x) -> str:
    """The ledger's name for one argument."""
    if isinstance(x, np.ndarray):
        return str(x.shape)
    if x is None or isinstance(x, (str, bool, int, float, tuple)):
        return repr(x)
    return f"{type(x).__name__}{np.shape(x)}"


@contextlib.contextmanager
def counting(ledger: Counter):
    """Count the calls of the ledger's routines into ``ledger`` while active."""
    targets = [(np.linalg, name) for name in LINALG] + [(np, "einsum")]
    originals = [getattr(owner, name) for owner, name in targets]

    def wrap(name, fn):
        def counted(*args, **kwargs):
            parts = [describe(a) for a in args]
            parts += [f"{k}={describe(v)}" for k, v in sorted(kwargs.items())]
            ledger[f"{name}({', '.join(parts)})"] += 1
            return fn(*args, **kwargs)
        return counted

    for (owner, name), fn in zip(targets, originals):
        setattr(owner, name, wrap(name, fn))
    try:
        yield ledger
    finally:
        for (owner, name), fn in zip(targets, originals):
            setattr(owner, name, fn)


def ledger() -> Counter:
    """Calls per key over the 17 fixture commands and ``selftest --seed 7``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from cli_fixtures import CLI_PAIRS, cli_argv
        from ncgcurv.cli import main
    finally:
        del sys.path[:2]
    calls = [*CLI_PAIRS, ("selftest", None)]
    argvs = [cli_argv(ROOT, command, fixture) for command, fixture in calls]
    counts: Counter = Counter()
    with counting(counts), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            if main(argv) != 0:
                raise RuntimeError(f"{' '.join(argv)} did not pass")
    return counts


def ladder_ledger() -> Counter:
    """Calls per key over the ops of one ``size_ladder`` pass, seed 0."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from workloads import SizeLadder
    finally:
        del sys.path[:2]
    workload = SizeLadder(ROOT, 0)
    workload.load(workload.generate())
    ops = workload.make_pass()
    counts: Counter = Counter()
    with counting(counts):
        for op in ops:
            if not op.check(op.run()):
                raise RuntimeError(f"ladder op {op.label} did not pass")
    return counts


def render(counts: Counter) -> str:
    """The printed ledger: one line per key, totals per routine, the digest."""
    lines = [f"{count:6d} {key}" for key, count in sorted(counts.items())]
    totals = Counter()
    for key, count in counts.items():
        totals[key.split("(", 1)[0]] += count
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines += [f"total {name}: {totals[name]}" for name in sorted(totals)]
    lines.append(f"ledger digest: {digest}")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Count the numpy calls of one benchmark pass.")
    parser.add_argument("--workload", choices=("cli_fixtures", "size_ladder"),
                        default="cli_fixtures")
    args = parser.parse_args()
    print(render(ladder_ledger() if args.workload == "size_ladder" else ledger()))
