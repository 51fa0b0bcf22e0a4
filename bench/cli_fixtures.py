"""The cli_fixtures workload: every command on every fixture through ``ncgcurv.cli``.

Each op calls the CLI's entry point, ``ncgcurv.cli.main``, in this process
and checks the JSON it prints.  The start-up a user pays before that, a
fresh ``python -m ncgcurv.cli`` process, is the set-up sample: the wall time
of one whole invocation in a new interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from common import Op, child_env, import_seconds

FIXTURE_TOL = 1e-10    # criterion 6
SUBMERSION_TOL = 1e-12  # criterion 8

# Every command on every fixture that has the section it needs.  forms and
# junk depend only on the triple, so they run on the two triple-only
# fixtures; the other fixtures reuse the two_point triple.
CLI_PAIRS = (
    ("validate", "heisenberg.json"),
    ("validate", "n3_junk.json"),
    ("validate", "two_point.json"),
    ("validate", "two_point_free_module.json"),
    ("validate", "two_point_module.json"),
    ("validate", "two_point_pair.json"),
    ("forms", "n3_junk.json"),
    ("forms", "two_point.json"),
    ("junk", "n3_junk.json"),
    ("junk", "two_point.json"),
    ("curvature", "two_point_module.json"),
    ("curvature", "two_point_free_module.json"),
    ("correspondence", "two_point_free_module.json"),
    ("external", "two_point_pair.json"),
    ("product-spectrum", "two_point_module.json"),
    ("product-spectrum", "two_point_free_module.json"),
    ("submersion", "heisenberg.json"),
)


def cli_argv(root: Path, command: str, fixture: str | None) -> list[str]:
    if fixture is None:
        return [command, "--seed", "7", "--format", "json"]
    args = [command, str(root / "fixtures" / fixture), "--format", "json"]
    if (command, fixture) == ("curvature", "two_point_module.json"):
        args.append("--emit-matrices")  # criterion 6 checks R itself
    return args


def check_cli_output(command: str, fixture: str | None, returncode: int,
                     stdout: str) -> bool:
    """Exit code 0, "passed": true, and the acceptance values of criteria 6 and 8."""
    if returncode != 0:
        return False
    doc = json.loads(stdout)
    if doc.get("passed") is not True:
        return False
    values = doc["values"]
    if (command, fixture) == ("junk", "two_point.json"):
        return (values["one_form_dim"], values["two_form_dim"], values["junk_dim"]) == (2, 2, 0)
    if (command, fixture) == ("curvature", "two_point_module.json"):
        expected = [-1.0, 0.0, 0.0, -1.0]
        r = doc["matrices"]["curvature"]
        entries_ok = all(
            abs(complex(*r[i][j]) - (expected[i] if i == j else 0.0)) <= FIXTURE_TOL
            for i in range(4) for j in range(4))
        return len(r) == 4 and entries_ok and abs(values["norm"] - 1.0) <= FIXTURE_TOL
    if (command, fixture) == ("submersion", "heisenberg.json"):
        return abs(values["fibration_curvature"][0][1][0] + 1.0) <= SUBMERSION_TOL
    return True


class CliFixtures:
    """Every applicable command/fixture pair plus ``selftest --seed 7`` per pass.

    The seed orders the calls; the fixtures are the inputs of every pass.
    """

    name = "cli_fixtures"
    min_ops = 100
    WARMUP = ("validate", "two_point.json")

    def __init__(self, root: Path, seed: int):
        from ncgcurv import cli  # after run.py has pinned the BLAS threads

        self.main = cli.main
        self.root = root
        self.calls = list(CLI_PAIRS) + [("selftest", None)]
        random.Random(seed).shuffle(self.calls)
        self.setup_times: list[float] = []

    def setup(self) -> None:
        self.setup_sample()

    def setup_sample(self) -> None:
        """One timed invocation in a fresh interpreter, checked but not counted as an op."""
        argv = [sys.executable, "-m", "ncgcurv.cli", *cli_argv(self.root, *self.WARMUP)]
        t0 = time.perf_counter()
        out = subprocess.run(argv, cwd=self.root, env=child_env(self.root),
                             capture_output=True, text=True, timeout=120)
        self.setup_times.append(time.perf_counter() - t0)
        if not check_cli_output(*self.WARMUP, out.returncode, out.stdout):
            raise RuntimeError(f"warm-up invocation failed (exit {out.returncode})")

    @property
    def import_s(self) -> float:
        """Time to import ncgcurv.cli in a fresh interpreter, one probe."""
        return import_seconds(self.root)

    def make_pass(self, tracer=None) -> list[Op]:
        ops = []
        for command, fixture in self.calls:
            ops.append(Op(f"{command} {fixture or ''}".strip(),
                          lambda argv=cli_argv(self.root, command, fixture): self._call(argv),
                          lambda r, c=command, f=fixture: check_cli_output(c, f, *r)))
        return ops

    def _call(self, argv: list[str]) -> tuple[int, str]:
        """ncgcurv.cli.main(argv): its exit code and what it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.main(argv)
        return code, out.getvalue()
