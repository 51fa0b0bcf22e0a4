"""Pieces shared by the workloads: the op record and child-process probes.

Nothing here imports numpy or ncgcurv: the probes run in fresh interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Set-up samples per run.  The machine's speed drifts over seconds, so the
# run takes them at even steps of its measured time, not back to back, and
# reports the best, as it does for the ops.
SETUP_SAMPLES = 9


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def child_env(root: Path) -> dict:
    """The current (thread-pinned) environment with the checkout's src on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _probe(root: Path, code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


IMPORT_PROBE = ("import time; t = time.perf_counter(); import ncgcurv.cli; "
                "print(time.perf_counter() - t)")

NUMPY_PROBE = ("import json, numpy; "
               "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
               "print(json.dumps({'numpy': numpy.__version__, "
               "'blas': str(b.get('name')) + ' ' + str(b.get('version'))}))")


def import_seconds(root: Path) -> float:
    """Time to import ncgcurv.cli in a fresh interpreter."""
    return float(_probe(root, IMPORT_PROBE))


def numpy_info(root: Path) -> dict:
    """numpy version and BLAS build, as the library's processes see them."""
    return json.loads(_probe(root, NUMPY_PROBE))
