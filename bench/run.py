"""ncgcurv benchmark: one command, three workloads, checked results.

    python3 bench/run.py [--workload {all,acceptance_sweep,size_ladder,cli_fixtures}]
                         --seed N --seconds S [--trace {0,1}]

Run from the root of a checkout.  With --trace 0 it prints every end-to-end
metric by name and unit; with --trace 1 it prints the per-layer metrics of a
traced run instead.  The default workload "all" runs the three in turn in
this process, prefixing each metric with its workload.  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; a JSON line per workload before it records the environment and
the sample counts.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from common import SETUP_SAMPLES

ROOT = Path(__file__).resolve().parents[1]

# BLAS and OpenMP pools pinned to one thread for this process and every
# child: with 2 threads the small-matrix route sweep is erratic and the
# large-kernel rungs faster, so an unpinned number measures the thread pool.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the same value for a k-fold repeated sample."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class SetupSampler:
    """Takes a workload's set-up samples at even steps of the run's time.

    Called between ops; returns the seconds it spent, which the caller keeps
    out of its measurement."""

    def __init__(self, workload, seconds: float, samples: int):
        self.workload = workload
        self.samples = samples
        self.step = seconds / samples
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        """Run time so far, less the set-up samples."""
        return time.perf_counter() - self.start - self.paused

    def __call__(self) -> float:
        taken = len(self.workload.setup_times)
        if taken >= self.samples or self.elapsed() < self.step * taken:
            return 0.0
        return self.take()

    def take(self) -> float:
        t0 = time.perf_counter()
        self.workload.setup_sample()
        gc.collect()
        spent = time.perf_counter() - t0
        self.paused += spent
        return spent

    def finish(self) -> None:
        """Samples the run ended before reaching."""
        while len(self.workload.setup_times) < self.samples:
            self.take()


def run_pass(ops, failures: list, tracer=None, between=None):
    """Run ops one after another; return ([(label, seconds)], failed, wall).

    ``between`` is called before each op and returns the seconds it spent;
    they count in neither the op's latency nor the pass's wall time.
    The first few failures are described in ``failures``."""
    latencies = []
    failed = 0
    paused = 0.0
    t_pass = time.perf_counter()
    for op_id, op in enumerate(ops):
        if between is not None:
            paused += between()
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a raising op is a counted failure; the run goes on
            error = exc
        dt = time.perf_counter() - t0
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                ok, error = False, exc
            if not ok and error is None:
                error = f"check failed: {out!r}"[:200]
        else:
            ok = False
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{op.label}: {error}")
        latencies.append((op.label, dt))
    return latencies, failed, time.perf_counter() - t_pass - paused


def measure(workload, seconds: float, failures: list,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Untraced closed loop: whole passes until ``seconds`` of run time have
    gone, set-up samples left out (and at least ``min_ops`` ops).  The set-up is sampled
    ``setup_samples`` times in all, spread over the run."""
    latencies, passes, failed = [], 0, 0
    sampler = SetupSampler(workload, seconds, setup_samples)
    while True:
        ops = workload.make_pass()
        gc.collect()
        lat, f, _ = run_pass(ops, failures, between=sampler)
        latencies += lat
        passes += 1
        failed += f
        if len(latencies) >= workload.min_ops and sampler.elapsed() >= seconds:
            break
    sampler.finish()

    by_label: dict[str, list[float]] = {}
    for label, dt in latencies:
        by_label.setdefault(label, []).append(dt)
    # Every pass repeats the same ops, so each op's time is its best over the
    # passes, as timeit takes it: the host has bursts of slowness lasting
    # seconds that only ever add time, and a median or a pooled tail keeps them.
    best = {label: min(v) for label, v in by_label.items()}
    ms = sorted(1e3 * dt for dt in best.values())
    metrics = {
        "setup_s": min(workload.setup_times),
        "ops_per_s": len(latencies) / sum(len(v) * best[label] for label, v in by_label.items()),
        "op_ms_p50": nearest_rank(ms, 0.50),
        "op_ms_p90": nearest_rank(ms, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {label: t for label, t in best.items() if label.startswith("rung_s.")}
    extra["fail_frac"] = failed / len(latencies)
    samples = {
        "ops": len(latencies),
        "passes": passes,
        "latency_samples": len(ms),
        "latency_sample_is": "per-op bests over the passes",
        "op_ms_p90_beyond": len(ms) - math.ceil(0.90 * len(ms)),
        "setup_samples": len(workload.setup_times),
    }
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics,
            "extra": extra, "samples": samples}


def traced(workload, seconds: float, failures: list, spans_path: Path) -> dict:
    """Set-up traced once, then an untraced and a traced pass, in turn.

    Counts cover the set-up and the first traced pass, so they repeat
    exactly; self times add the set-up's to the median traced pass.
    """
    from tracer import PER_LAYER, SELF_S, Tracer, layer_counts, layer_self_s

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()

    plain, walls, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        ops = workload.make_pass()
        gc.collect()
        lat, f, plain_wall = run_pass(ops, failures)
        plain.append(plain_wall)
        attempted, failed = attempted + len(lat), failed + f

        tracer.pass_id += 1
        ops = workload.make_pass(tracer)
        gc.collect()
        tracer.install()
        try:
            lat, f, wall = run_pass(ops, failures, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        attempted, failed = attempted + len(lat), failed + f
        if time.perf_counter() - start + plain_wall + wall > seconds:
            break

    spans = tracer.spans
    metrics = layer_counts(spans, {0, 1})
    empty = {f"{p}.self_s": 0.0 for p in SELF_S}
    by_pass = layer_self_s(spans)
    traced_passes = [by_pass.get(k, empty) for k in range(1, tracer.pass_id + 1)]
    for key, value in by_pass.get(0, empty).items():
        metrics[key] = value + statistics.median(p[key] for p in traced_passes)
    metrics["cli.import_s"] = workload.import_s
    metrics["trace_overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0

    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: metrics[k] for k in units}, "units": units,
            "samples": {"traced_passes": tracer.pass_id, "spans": len(spans),
                        "spans_file": os.path.relpath(spans_path, ROOT)}}


def environment(seed: int) -> dict:
    from common import numpy_info

    return {
        "seed": seed,
        "python": platform.python_version(),
        **numpy_info(ROOT),
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def make_workload(name: str, seed: int):
    # Imported here, once main has pinned the BLAS threads: both load numpy.
    from cli_fixtures import CliFixtures
    from workloads import AcceptanceSweep, SizeLadder
    return {"cli_fixtures": CliFixtures, "acceptance_sweep": AcceptanceSweep,
            "size_ladder": SizeLadder}[name](ROOT, seed)


def run_workload(name: str, args, failures: list) -> dict:
    workload = make_workload(name, args.seed)
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{args.seed}.json.gz"
        result = traced(workload, args.seconds, failures, spans_path)
    else:
        workload.setup()
        result = measure(workload, args.seconds, failures)
        result["units"] = dict(END_TO_END)
    result["info"] = {"workload": name, "trace": args.trace, "seconds": args.seconds,
                      "environment": environment(args.seed), "samples": result["samples"]}
    if getattr(workload, "junk_dim", None):
        result["info"]["junk_dim"] = workload.junk_dim
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "acceptance_sweep", "size_ladder", "cli_fixtures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ncgcurv" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} is not an ncgcurv checkout (no src/ncgcurv or fixtures/)",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("ncgcurv")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(src):
        print(f"error: ncgcurv does not resolve to {src}", file=sys.stderr)
        return 2

    # cli_fixtures first, while this process is still small: every workload
    # reports this process's peak RSS.
    names = (["cli_fixtures", "acceptance_sweep", "size_ladder"]
             if args.workload == "all" else [args.workload])
    attempted = failed = 0
    metrics = {}
    for name in names:
        failures: list[str] = []
        result = run_workload(name, args, failures)
        prefix = f"{name}." if len(names) > 1 else ""
        rows = list(result.get("extra", {}).items()) + list(result["metrics"].items())
        for key, value in rows:
            unit = result["units"].get(key, "s" if key.startswith("rung_s.") else "ratio")
            print(f"{prefix + key:<64s} {value:.6g} {unit}")
            if key in result["metrics"]:
                metrics[prefix + key] = {"value": value, "unit": unit}
        for line in failures:
            print(f"failure: {name}: {line}", file=sys.stderr)
        print(json.dumps(result["info"], sort_keys=True))
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
