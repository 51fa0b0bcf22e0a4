"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cli_fixtures  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

os.environ.update(run.PINNED_THREADS)  # before numpy loads
import workloads  # noqa: E402
from ncgcurv import curvature  # noqa: E402
from ncgcurv.cli import run as cli_run  # noqa: E402
from ncgcurv.scenario import parse_scenario  # noqa: E402


def _one_pass(workload):
    workload.setup()
    return run.measure(workload, 0.0, [], setup_samples=1)


def test_planted_negated_curvature_is_counted(monkeypatch):
    workload = workloads.AcceptanceSweep(ROOT, 5)
    assert _one_pass(workload)["extra"]["fail_frac"] == 0.0

    direct = curvature.curvature_direct
    monkeypatch.setattr(curvature, "curvature_direct", lambda *a, **k: -direct(*a, **k))
    result = _one_pass(workload)
    assert result["extra"]["fail_frac"] > 0.0
    assert result["failed"] > 0


def _cli_doc(command, fixture, emit=False):
    scen = parse_scenario(ROOT / "fixtures" / fixture)
    return cli_run(command, scen, emit_matrices=emit).to_dict()


@pytest.mark.parametrize("command, fixture, plant", [
    ("curvature", "two_point_module.json",
     lambda d: d["matrices"].update(curvature=[[[-re, -im] for re, im in row]
                                               for row in d["matrices"]["curvature"]])),
    ("junk", "two_point.json", lambda d: d["values"].update(junk_dim=1)),
    ("submersion", "heisenberg.json",
     lambda d: d["values"]["fibration_curvature"][0][1].__setitem__(0, 1.0)),
    ("validate", "two_point.json", lambda d: d.update(passed=False)),
])
def test_cli_checks_reject_planted_outputs(command, fixture, plant):
    doc = _cli_doc(command, fixture, emit=command == "curvature")
    assert cli_fixtures.check_cli_output(command, fixture, 0, json.dumps(doc))
    assert not cli_fixtures.check_cli_output(command, fixture, 1, json.dumps(doc))
    plant(doc)
    assert not cli_fixtures.check_cli_output(command, fixture, 0, json.dumps(doc))


EXACT = ("calls", "failed", "useful_ratio", "svd_flops", "svd_bytes")


@pytest.mark.parametrize("make", [
    lambda: workloads.AcceptanceSweep(ROOT, 3),
    lambda: workloads.SizeLadder(ROOT, 3, rungs=workloads.LADDER[:2]),
])
def test_traced_counts_repeat_exactly(make, tmp_path):
    runs = []
    for k in range(2):
        workload = make()
        result = run.traced(workload, 0.0, [], tmp_path / f"spans{k}.json.gz")
        assert result["failed"] == 0
        counts = {name: v for name, v in result["metrics"].items()
                  if name.rsplit(".", 1)[-1] in EXACT}
        runs.append((counts, getattr(workload, "junk_dim", None)))
    assert runs[0] == runs[1]
    assert runs[0][0]["glinalg.subspace_basis.calls"] > 0


def test_tracer_skips_missing_names_and_restores(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("curvature", "no_such_function", "curvature.no_such_function"),
        ("no_such_module", "f", "no_such_module.f"),
    ))
    original = curvature.curvature_report
    t = tracer.Tracer()
    t.install()
    try:
        assert curvature.curvature_report is not original
    finally:
        t.uninstall()
    assert curvature.curvature_report is original


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 1, 0, -1, 0.0, 10.0, False, None),
        ("b", 1, 0, 0, 1.0, 4.0, False, None),
        ("c", 1, 0, 1, 2.0, 3.0, False, None),
        ("b", 1, 0, 0, 5.0, 6.0, False, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
