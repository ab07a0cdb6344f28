#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig8-closed --seed 12648430 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics.  Every run is
checked (see ``perfbench/check.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record`` runs the matrix once and stores its outputs as the reference
for the seed; a deliberate model change re-records them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Times the import of every ``repro`` module the benchmark drives, in a
#: fresh interpreter (argv[1] is the source directory).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.eval.load, repro.eval.scaling, repro.eval.autotune; "
    "print(time.perf_counter() - t)"
)
#: Set-up is measured at least this many times per run, interleaved with
#: the matrix iterations, and the median reported.
SETUP_SAMPLES = 3

#: name -> (unit, better); the order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_speedup": ("x", "higher"),
    "sustained_rate": ("req/Mcycle", "higher"),
}
PER_LAYER = {
    "sim.self_s": ("s", "lower"),
    "sim.timeout_calls": ("count", "lower"),
    "sim.event_inits": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.pending_p50": ("entries", "lower"),
    "sim.pending_max": ("entries", "lower"),
    "vlink.self_s": ("s", "lower"),
    "vlink.ondemand_pushes": ("count", "lower"),
    "vlink.request_packets": ("count", "lower"),
    "vlink.push_failures": ("count", "lower"),
    "vlink.line_empty_cycles": ("cycles", "lower"),
    "mem.self_s": ("s", "lower"),
    "mem.bus_busy_cycles": ("cycles", "lower"),
    "mem.bus_packets": ("count", "lower"),
    "mem.bus_util": ("fraction", "lower"),
    "net.self_s": ("s", "lower"),
    "net.wait_cycles": ("cycles", "lower"),
    "net.utilization": ("fraction", "lower"),
    "spamer.self_s": ("s", "lower"),
    "spamer.spec_pushes": ("count", "higher"),
    "spamer.spec_failures": ("count", "lower"),
    "spamer.spec_precision": ("fraction", "higher"),
    "spamer.burst_claims": ("count", "higher"),
    "spamer.spec_rollbacks": ("count", "lower"),
    "spamer.rollback_invalidations": ("count", "lower"),
    "cpu.self_s": ("s", "lower"),
    "workloads.self_s": ("s", "lower"),
    "workloads.requests_completed": ("count", "higher"),
    "workloads.messages_delivered": ("count", "higher"),
    "eval.self_s": ("s", "lower"),
    "eval.build_s": ("s", "lower"),
    "eval.run_s": ("s", "lower"),
    "eval.validate_s": ("s", "lower"),
    "eval.collect_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "host.other_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
#: Reported in the human-readable lines and the report, not bounded.
REPORTED = {
    "fail_ratio": "fraction",
    "sojourn_p50_cyc": "cycles",
    "sojourn_p99_cyc": "cycles",
    "sojourn_samples": "count",
    "paper_err": "x",
    "geomean_0delay": "x",
    "geomean_adapt": "x",
    "geomean_tuned": "x",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="multiply every simulation's size (smoke tests); references "
        "apply at 1.0 only",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="store this seed's outputs as the reference and exit",
    )
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def build_seconds(requests) -> float:
    """Time to build every simulation of the matrix without running it."""
    from perfbench.matrix import build

    start = time.perf_counter()
    for request in requests:
        build(request)
    return time.perf_counter() - start


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def provenance(seed: int, workload: str, events: int) -> Dict[str, object]:
    """Which code and host produced the numbers."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    return {
        "commit": commit or None,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if commit else None,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload,
        "events": events,
    }


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, runs: int, failures: Dict[int, List[str]]) -> None:
        self.attempted += runs
        self.failed += len(failures)
        for index in sorted(failures):
            self.messages.extend(f"run {index}: {m}" for m in failures[index])


def iterate(workload, recorder, seed: int, tally: Tally, expected=None) -> Tuple[list, float]:
    """Run the matrix once; returns (records, wall seconds).

    A raise fails every run of the iteration that did not finish.
    """
    from perfbench import check

    start = time.perf_counter()
    try:
        workload.run(recorder, seed)
    except Exception as exc:  # noqa: BLE001 - a failing run is a result
        wall = time.perf_counter() - start
        done = len(recorder.records)
        failures = {i: [f"raised {type(exc).__name__}: {exc}"] for i in range(done, workload.runs)}
        tally.add(workload.runs, failures)
        return recorder.records, wall
    wall = time.perf_counter() - start
    records = recorder.records
    failures = check.invariants(records)
    if expected is not None:
        for index, problems in check.diff(records, expected).items():
            failures.setdefault(index, []).extend(problems)
    tally.add(workload.runs, failures)
    return records, wall


def measure_untraced(workload, seed, deadline, baseline, tally) -> Dict[str, float]:
    """End-to-end metrics: the matrix repeated until *deadline*, with a
    set-up sample after each repeat.

    The first iteration (*baseline*) counts as one repeat.
    """
    from perfbench import check
    from perfbench.matrix import Recorder

    requests = [r.request for r in baseline]
    expected = check.snapshot(baseline)
    walls = [sum(r.wall_s for r in baseline)]
    cells = [[r.wall_s for r in baseline]]
    imports, builds = [], []
    while time.perf_counter() < deadline or len(imports) < SETUP_SAMPLES:
        imports.append(import_seconds())
        builds.append(build_seconds(requests))
        if time.perf_counter() >= deadline:
            continue
        records, wall = iterate(workload, Recorder(), seed, tally, expected)
        walls.append(wall)
        cells.append([r.wall_s for r in records])
    # Each simulation is deterministic and co-tenant load only ever adds
    # time, so its fastest repeat is its cost; the matrix is their sum.
    wall_s = sum(min(times) for times in zip(*cells))
    events = sum(r.events for r in baseline)
    return {
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": statistics.median(imports),
        "wall_median_s": statistics.median(walls),
        "iterations": len(walls),
    }


def measure_traced(workload, seed, deadline, baseline, tally) -> Dict[str, float]:
    """Per-layer metrics: timed public calls untraced until *deadline*,
    then one profiled pass."""
    from perfbench import check, layers
    from perfbench.matrix import Recorder, run_phases
    from repro.sim.event import Event
    from repro.sim.kernel import Environment

    expected = check.snapshot(baseline)
    requests = [r.request for r in baseline]
    passes, walls = [], []
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        times = run_phases(requests)
        walls.append(time.perf_counter() - start)
        passes.append(times)
        replayed = [dataclasses.replace(r, metrics=m) for r, m in zip(baseline, times.metrics)]
        tally.add(len(requests), check.diff(replayed, expected))

    sampler = layers.QueueSampler()
    recorder = Recorder(observe=sampler)
    start = time.perf_counter()
    stats = layers.profile(lambda: iterate(workload, recorder, seed, tally, expected))
    traced_wall = time.perf_counter() - start

    events = sum(r.events for r in baseline)
    self_s = layers.self_time_by_layer(stats, str(SRC / "repro"))
    pooled = sampler.pooled()
    run_s = statistics.median(p.run_s for p in passes)
    out = {f"{layer}.self_s": self_s[layer] for layer in layers.LAYERS}
    out.update(
        {
            "sim.timeout_calls": layers.call_count(stats, getattr(Environment, "timeout", None)),
            "sim.event_inits": layers.call_count(stats, Event.__init__),
            "sim.ns_per_event": run_s / events * 1e9,
            "sim.pending_p50": layers.QueueSampler.percentile(pooled, 50),
            "sim.pending_max": max(pooled, default=0),
            "eval.build_s": statistics.median(p.build_s for p in passes),
            "eval.run_s": run_s,
            "eval.validate_s": statistics.median(p.validate_s for p in passes),
            "eval.collect_s": statistics.median(p.collect_s for p in passes),
            "other.self_s": self_s[layers.OTHER],
            "host.other_s": self_s[layers.HOST],
            "trace.overhead_pct": (traced_wall / statistics.median(walls) - 1.0) * 100.0,
        }
    )
    out.update(layers.model_counters(baseline))
    per_run = [layers.QueueSampler.percentile(d, 50) for d in sampler.per_run]
    out["pending_p50_per_run"] = f"{min(per_run)}-{max(per_run)}"
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import check
    from perfbench.matrix import MIN_SOJOURN_SAMPLES, WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale_factor)
    full_size = args.scale_factor == 1.0

    tally = Tally()
    start = time.perf_counter()
    reference = check.load_reference(args.seed, args.workload) if full_size else None
    if args.record:
        reference = None
    baseline, _ = iterate(workload, Recorder(), args.seed, tally, reference)
    if len(baseline) != workload.runs:
        print("\n".join(tally.messages), file=sys.stderr)
        print(f"error: {args.workload} did not complete", file=sys.stderr)
        return 1
    if args.record:
        if tally.failed:
            print("\n".join(tally.messages), file=sys.stderr)
            return 1
        check.save_reference(args.seed, args.workload, check.snapshot(baseline))
        print(f"recorded {len(baseline)} runs of {args.workload} for seed {args.seed}")
        return 0

    sim = workload.sim_metrics(baseline)
    if full_size and sim["sojourn_samples"] < MIN_SOJOURN_SAMPLES:
        tally.add(0, {0: [f"sojourn cell completed only {sim['sojourn_samples']} requests"]})
    if args.trace:
        # Half the window untraced, then one profiled pass of any length.
        measured = measure_traced(workload, args.seed, start + args.seconds / 2, baseline, tally)
    else:
        measured = measure_untraced(workload, args.seed, start + args.seconds, baseline, tally)
    values = {**sim, **measured}
    values["fail_ratio"] = tally.failed / tally.attempted

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, unit in REPORTED.items():
        if name in values:
            print(f"  {name} = {values[name]:.6g} {unit}")
    for message in tally.messages:
        print(f"  FAIL {message}")
    events = sum(r.events for r in baseline)
    report = {
        "provenance": provenance(args.seed, args.workload, events),
        "values": {k: v for k, v in values.items() if k not in metrics},
    }
    print("report: " + json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
