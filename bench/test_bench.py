"""Smoke test of the benchmark's own code at small sizes.

    python3 -m pytest bench

The workloads are shrunk (N=20, a few hundred trees); the checks whose
thresholds are set for the full sizes are widened to the finite-size
values at N=20.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "giant": dataclasses.replace(workloads.WORKLOADS["giant"], N=20, min_batches=6, beta_tol=0.1),
    "weighted_sub": dataclasses.replace(workloads.WORKLOADS["weighted_sub"], N=20,
                                        min_batches=6, max_C_frac=0.2),
    "branching": dataclasses.replace(workloads.WORKLOADS["branching"], trees_per_batch=200),
}


def run_small(name, seed):
    wl = SMALL[name]
    state = workloads.setup(wl)
    return workloads.finish(wl, state, workloads.run(wl, state, seed, 0))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_checked_and_reproducible(name):
    a, b = run_small(name, 11), run_small(name, 11)
    assert a.attempted >= 2 and a.failed == 0
    assert all(ok for _, ok, _ in a.checks), a.checks
    assert a.digest == b.digest
    assert run_small(name, 12).digest != a.digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_split_over_processes_has_the_same_output(name):
    whole = run_small(name, 11)
    split = workloads.Outcome()
    for part in range(3):
        # through JSON, as the worker processes send their outcomes
        text = workloads.run(SMALL[name], workloads.setup(SMALL[name]), 11, 0,
                             part=part, parts=3).to_json()
        split.merge(workloads.Outcome.from_json(text))
    workloads.finish(SMALL[name], workloads.setup(SMALL[name]), split)
    assert split.digest == whole.digest
    assert split.attempted == whole.attempted and split.failed == 0
    assert split.peak_rss_mb > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_and_reports_every_layer(name):
    tracer, probe_tracer = Tracer(), Tracer()
    wl = SMALL[name]
    out = workloads.run_traced(wl, workloads.setup(wl), 11, 0, tracer, probe_tracer)
    # a traced (seed, C, edges) row that differs from run_experiment's counts as failed
    assert out.failed == 0, out.checks
    assert out.digest == run_small(name, 11).digest
    metrics = workloads.layer_metrics(out, tracer, probe_tracer)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name_, value in metrics.items():
        assert value == value and (value > 0 or name_ == "trace.overhead_frac"), (name_, value)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", rep="0") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and inner["rep"] == "0"
    expected = (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    assert tracer.median_self_s("outer") == pytest.approx(expected)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "giant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
