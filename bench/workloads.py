"""The in-process workloads, acceptance_sweep and size_ladder.

Every workload (cli_fixtures too) is a closed loop with one client: ops
run one after another, and a pass runs the workload's whole op list once.
``setup`` builds the inputs from the seed; ``setup_sample`` times that
set-up again without keeping its result, and the run reports the best
sample as ``setup_s``.  ``make_pass`` returns fresh ops for one pass,
untimed, so that every pass starts from the same state as the first; every
pass runs the same ops, and the run reports each op's best time.

Tolerances are the acceptance gate's, numbered as in tests/test_acceptance.py.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import replace
from pathlib import Path

from common import Op, import_seconds
from ncgcurv import curvature, forms, generate
from ncgcurv.glinalg import frobenius_norm

ROUTE_TOL = 1e-9            # criterion 1
JUNK_TOL = 1e-8             # criterion 3
CORRESPONDENCE_TOL = 1e-10  # criterion 4

# The triples and modules of the sweep come from this fixed seed, so every
# run does the same mix of linear algebra; the run's seed draws the
# connection forms and vertical operators.  With all of it drawn from the run's
# seed, one batch's op_ms_p90 ranged from 3.6 to 6.7 ms over five seeds.
SWEEP_SEED = 0

# (n, d, m) rungs.  The triple and module of each rung come from a fixed
# seed so every run does the same linear algebra (same junk dimension, same
# lifted span); the run's seed draws the connection form.  Seed 7 gives the
# heavy draws: junk dimension 18 on the top rung, and at (16, 8, 6) a lifted
# span of rank 23 out of 288 matrices built.
LADDER = ((6, 4, 4), (12, 8, 4), (16, 8, 6), (20, 10, 6))
LADDER_SEED = 7
# Ops per rung in one pass.  The small rungs are cheap and their times the
# most sensitive to machine noise, so they get more samples per run.
RUNG_REPEATS = (8, 4, 1, 1)


def rung_label(n: int, d: int, m: int) -> str:
    return f"rung_s.n{n}d{d}m{m}"


def _fresh(st, module, *dependents):
    """Copies of a scenario as generation left it: the triple keeps the cached
    arrays generation computed, the module and its forms start cold."""
    st2 = copy.copy(st)
    mod2 = replace(module, triple=st2)
    return (st2, mod2) + tuple(replace(x, module=mod2) for x in dependents)


class InProcess:
    """Shared set-up for the workloads that call the library directly."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.import_times: list[float] = []
        self.setup_times: list[float] = []

    @property
    def import_s(self) -> float:
        return statistics.median(self.import_times)

    def setup(self) -> None:
        """Generate the inputs, timing the set-up once."""
        self.load(self.setup_sample())

    def setup_sample(self):
        """One timed set-up: import of ncgcurv.cli in a fresh interpreter plus
        generation of the inputs.  Returns the inputs it generated."""
        self.import_times.append(import_seconds(self.root))
        t0 = time.perf_counter()
        inputs = self.generate()
        self.setup_times.append(self.import_times[-1] + time.perf_counter() - t0)
        return inputs

    def generate(self):
        raise NotImplementedError

    def load(self, inputs) -> None:
        raise NotImplementedError


class AcceptanceSweep(InProcess):
    """Acceptance criteria 1, 3 and 4 as 350 ops over small seeded scenarios.

    Every pass runs the set-up's scenarios again, each op labelled with its
    index so that the run can take each op's best time over the passes.
    """

    name = "acceptance_sweep"
    min_ops = 100

    def load(self, inputs) -> None:
        self.route, self.junk, self.corr = inputs

    def generate(self):
        fixed = generate.rng_for((SWEEP_SEED, 0))
        rng = generate.rng_for((self.seed, 0))
        route = []
        for _ in range(200):
            st = generate.random_triple(fixed)
            module = generate.random_module(fixed, st)
            a = generate.random_connection(rng, module)
            route.append((copy.copy(st), module, a))

        # Junk-rich lift pairs, drawn as harness.junk_invariance_residuals does.
        fixed = generate.rng_for((SWEEP_SEED, 1))
        rng = generate.rng_for((self.seed, 1))
        junk = []
        for k in range(50):
            if k % 3 == 2:
                st = generate.random_triple(fixed, n=4, kind="amp2")
            else:
                n = int(fixed.integers(3, 7))
                st = generate.random_triple(fixed, n=n, d=min(4, n), kind="diag")
            module = generate.random_module(fixed, st)
            a1, a2 = generate.junk_lift_pair(rng, module)
            junk.append((copy.copy(st), module, a1, a2))

        fixed = generate.rng_for((SWEEP_SEED, 2))
        rng = generate.rng_for((self.seed, 2))
        corr = []
        for _ in range(100):
            st = generate.random_triple(fixed)
            module = generate.random_module(fixed, st)
            a = generate.random_connection(rng, module)
            s = generate.random_vertical(rng, module)
            corr.append((copy.copy(st), module, a, s))
        return route, junk, corr

    def make_pass(self, tracer=None) -> list[Op]:
        ops = []
        for k, scen in enumerate(self.route):
            _, module, a = _fresh(*scen)
            ops.append(Op(f"route.{k}", lambda module=module, a=a:
                          curvature.curvature_report(module, a).route_residual,
                          lambda r: r <= ROUTE_TOL))
        for k, scen in enumerate(self.junk):
            st, module, a1, a2 = _fresh(*scen)
            ops.append(Op(f"junk_pair.{k}", lambda st=st, module=module, a1=a1, a2=a2:
                          _junk_pair(st, module, a1, a2),
                          lambda r: r[0] <= JUNK_TOL and r[1] <= JUNK_TOL))
        for k, scen in enumerate(self.corr):
            _, module, a, s = _fresh(*scen)
            ops.append(Op(f"correspondence.{k}", lambda module=module, a=a, s=s:
                          curvature.correspondence_decomposition_residual(module, a, s),
                          lambda r: r <= CORRESPONDENCE_TOL))
        return ops


def _junk_pair(st, module, a1, a2) -> tuple[float, float]:
    """Criterion 3 on one lift pair: (coset residual, canonical difference)."""
    junk = forms.junk_space(st)
    rep1 = curvature.curvature_report(module, a1, junk=junk)
    rep2 = curvature.curvature_report(module, a2, junk=junk)
    coset = curvature.junk_coset_residual(rep1.R, rep2.R, module, junk=junk)
    scale = max(1.0, frobenius_norm(rep1.junk_canonical))
    return coset, frobenius_norm(rep1.junk_canonical - rep2.junk_canonical) / scale


class SizeLadder(InProcess):
    """junk_space plus curvature_report on each rung of the (n, d, m) ladder."""

    name = "size_ladder"
    min_ops = 1

    def __init__(self, root: Path, seed: int, rungs=LADDER):
        super().__init__(root, seed)
        self.rungs = rungs
        self.junk_dim: dict[str, int] = {}

    def load(self, inputs) -> None:
        self.scenarios = inputs

    def generate(self):
        conn_rng = generate.rng_for(self.seed)
        scenarios = []
        for idx, (n, d, m) in enumerate(self.rungs):
            rng = generate.rng_for(LADDER_SEED + idx)
            st = generate.random_triple(rng, n=n, d=d, kind="diag")
            module = generate.random_module(rng, st, m=m, allow_free=False)
            a = generate.random_connection(conn_rng, module)
            scenarios.append((rung_label(n, d, m), (copy.copy(st), module, a)))
        return scenarios

    def make_pass(self, tracer=None) -> list[Op]:
        ops = []
        for (label, scen), repeats in zip(self.scenarios, RUNG_REPEATS):
            for _ in range(repeats):
                st, module, a = _fresh(*scen)
                ops.append(Op(label, lambda st=st, module=module, a=a: _rung(st, module, a),
                              lambda r, label=label: self._record(label, r)))
        return ops

    def _record(self, label: str, result) -> bool:
        junk_dim, route = result
        self.junk_dim[label] = junk_dim
        return route <= ROUTE_TOL


def _rung(st, module, a) -> tuple[int, float]:
    junk = forms.junk_space(st)
    report = curvature.curvature_report(module, a, junk=junk)
    return junk.dim, report.route_residual
