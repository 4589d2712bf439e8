"""Benchmark of the torusgraph package.

Run from the root of a checkout; the package is imported from ``src/``
as it stands, nothing is installed:

    python3 bench/run.py --workload giant --seed 1 --seconds 28 --trace 0

Workloads are defined in ``bench/workloads.py``.  With ``--trace 0``,
PARTS worker processes run the workload's batches in turn (each for a
share of ``--seconds``) and the run reports the end-to-end metrics:

    throughput_per_s  work items completed per calibrated second, where an
                      item is a replicate (giant, weighted_sub; timed over
                      run_experiment + to_csv) or a tree (branching)
    setup_s           median over SETUP_SAMPLES fresh processes (the workers
                      and more) of the time from process start until the
                      first replicate or tree is ready (imports, plan and
                      WeightSpec build, build_report, and size_biased on
                      branching), in calibrated seconds at the run's median
                      calibration factor
    peak_rss_mb       largest ru_maxrss of a worker when its share of the
                      fixed-work prefix (the batches the digest covers) ends,
                      so it does not depend on how many batches fit the time

Calibrated seconds are wall seconds scaled by a CPU-speed probe timed
on either side of each unit of work (see ``bench/calibrate.py``); the
wall-clock figures are kept in the run details.  Set-up time is scaled
by the median factor of the whole run, not by probes next to each
process start: the run's factor follows the host's slow and fast
periods, while single probes scatter more than set-up time does.

With ``--trace 1`` it runs in one process and reports the per-layer
metrics of ``BENCHMARK.json`` from spans recorded around the calls into
each module, and writes the spans as JSON lines.  Both modes check every output; ``failed`` counts
checked operations that raised or failed a check.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run details (checks, output
digest, provenance) are also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PARTS = 3            # worker processes that share an untraced run's batches
SETUP_SAMPLES = 5    # set-up times per run: the workers', then set-up-only processes
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a process that sets up, prints "ready", runs share --part
    # of --parts (none with --parts 0) and prints its outcome as JSON
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--parts", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_child(args, part: int, parts: int) -> tuple[float, str]:
    """Start a worker; return its wall time from start to the end of
    set-up, and its last line of output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds / PARTS), "--part", str(part), "--parts", str(parts)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker {part}/{parts} failed (exit {proc.returncode})")
    return setup_s, (rest.strip().splitlines() or [""])[-1]


def run_untraced(workloads, wl, args):
    """PARTS workers run the batches in turn, so that what differs from
    one process to the next (memory layout, above all) averages out
    within a run; then set-up-only processes fill up the set-up
    samples."""
    out = workloads.Outcome()
    setup_samples = []
    for part in range(PARTS):
        setup_s, line = run_child(args, part, PARTS)
        setup_samples.append(setup_s)
        out.merge(workloads.Outcome.from_json(line))
    for _ in range(SETUP_SAMPLES - PARTS):
        setup_samples.append(run_child(args, 0, 0)[0])
    return out, setup_samples


def provenance(wl, seed: int) -> dict:
    import numpy
    import scipy
    import torusgraph

    commit = None
    if (ROOT / ".git").exists():  # a checkout without one may sit inside another repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "torusgraph": torusgraph.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": dataclasses.asdict(wl),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torusgraph" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.worker:
        state = workloads.setup(wl)
        print("ready", flush=True)
        if args.parts:
            out = workloads.run(wl, state, args.seed, args.seconds, part=args.part, parts=args.parts)
            print(out.to_json(), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    state = workloads.setup(wl)
    if args.trace:
        setup_samples = []
        tracer, probe_tracer = Tracer(), Tracer()
        out = workloads.run_traced(wl, state, args.seed, args.seconds, tracer, probe_tracer)
        values = workloads.layer_metrics(out, tracer, probe_tracer)
    else:
        out, setup_samples = run_untraced(workloads, wl, args)
        workloads.finish(wl, state, out)
        speed = statistics.median(c / w for c, w in zip(out.calibrated_s, out.wall_s))
        values = {
            "throughput_per_s": out.throughput_per_s,
            "setup_s": statistics.median(setup_samples) * speed,
            "peak_rss_mb": out.peak_rss_mb,
        }
    if set(values) != {m["name"] for m in declared}:
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3

    correct = out.failed == 0 and all(ok for _, ok, _ in out.checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "wall_throughput_per_s": out.wall_throughput_per_s,
        "batches": {"items": out.items, "wall_s": out.wall_s, "calibrated_s": out.calibrated_s},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.checks],
        "failed_frac": out.failed / out.attempted,
        "digest": out.digest,
        "setup_wall_samples_s": setup_samples,
        "provenance": provenance(wl, args.seed),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
        probe_tracer.write_jsonl(OUT_DIR / f"{stem}-probe-spans.jsonl")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(out.items)} batches")
    for n, ok, d in out.checks:
        print(f"check {n}: {'ok' if ok else 'FAIL'} ({d})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {out.failed}/{out.attempted} = {out.failed / out.attempted:.6g}")
    print(f"digest sha256:{out.digest}")
    print(f"provenance {json.dumps(details['provenance'])}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
