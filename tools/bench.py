#!/usr/bin/env python
"""Wall-clock benchmark: serial vs. parallel experiment execution.

Runs a fixed workload × setting matrix (the Figure 8 grid by default) twice
— once serially in-process, once fanned across worker processes via
:mod:`repro.eval.parallel` — and records wall times, the speedup, and the
kernel event-dispatch rate.  The two legs' metrics are asserted equal, so a
recorded speedup can never come from computing something different.

This seeds the repo's perf trajectory: the committed ``BENCH_parallel.json``
is a *record*, not a threshold — CI re-measures and uploads its own copy as
an artifact but only asserts the equality invariant, never a timing (see
docs/PERFORMANCE.md for how to read the file).

Usage::

    python tools/bench.py                 # full Fig-8 matrix, scale 0.25
    python tools/bench.py --quick         # small matrix for CI smoke runs
    python tools/bench.py --jobs 8 --out BENCH_parallel.json
    python tools/bench.py --load --out BENCH_load.json   # open-system sweep
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval.parallel import (  # noqa: E402
    RunRequest,
    _check_picklable,
    _mp_context,
    execute_request,
    resolve_jobs,
    run_requests,
)
from repro.eval.runner import run_workload, setting_by_name  # noqa: E402
from repro.workloads.registry import workload_names  # noqa: E402

#: The four evaluated settings' short-names, Figure 8 order.
FIG8_SETTINGS = ("vl", "0delay", "adapt", "tuned")

#: --quick: a 2-workload × 2-setting corner of the matrix at a small scale,
#: sized for a CI smoke job rather than a meaningful timing.
QUICK_WORKLOADS = ("ping-pong", "incast")
QUICK_SETTINGS = ("vl", "tuned")
QUICK_SCALE = 0.05


def build_requests(
    workloads: Sequence[str],
    settings: Sequence[str],
    scale: float,
    seed: int,
) -> List[RunRequest]:
    """The fixed matrix, flattened in Figure-8 (workload-major) order."""
    return [
        RunRequest.from_setting(w, setting_by_name(s), scale=scale, seed=seed)
        for w in workloads
        for s in settings
    ]


def measure_serial(requests: Sequence[RunRequest], clock=time.perf_counter):
    """Serial leg: metrics, wall seconds, and total kernel events dispatched.

    Runs in-process with ``return_system=True`` so the kernel's
    ``events_processed`` counter can be read per run — the events/sec
    denominator.  Event counts are deterministic, so they also stand for
    the parallel leg's work.
    """
    metrics, events = [], 0
    start = clock()
    for request in requests:
        m, system = run_workload(
            request.workload,
            request.setting(),
            scale=request.scale,
            config=request.config,
            seed=request.seed,
            limit=request.limit,
            return_system=True,
        )
        metrics.append(m)
        events += system.env.events_processed
    return metrics, clock() - start, events


def _warm_worker(token: int) -> int:
    """No-op task submitted once per worker to force its spawn."""
    return token


def measure_parallel(
    requests: Sequence[RunRequest],
    jobs: int,
    clock=time.perf_counter,
    pool_factory=None,
):
    """Parallel leg: metrics and wall seconds for the *simulation work only*.

    The pool is created and warmed (one no-op task per worker, so every
    worker process exists) before the clock starts: an events/sec figure
    that includes fork/spawn overhead understates throughput and shrinks
    as the matrix shrinks, which is exactly the distortion a CI smoke
    matrix maximizes.  *clock* and *pool_factory* are injectable for the
    fake-clock unit test (tests/test_bench_tool.py).
    """
    requests = list(requests)
    workers = min(resolve_jobs(jobs), len(requests)) if requests else 1
    if workers <= 1 and pool_factory is None:
        start = clock()
        metrics = run_requests(requests, jobs=1)
        return metrics, clock() - start
    if pool_factory is None:
        from concurrent.futures import ProcessPoolExecutor

        _check_picklable(requests)

        def pool_factory():
            return ProcessPoolExecutor(
                max_workers=workers, mp_context=_mp_context()
            )

    with pool_factory() as pool:
        # Warm-up outside the timed region: one submit per worker makes
        # the executor spawn its full complement before the clock starts.
        for future in [pool.submit(_warm_worker, i) for i in range(workers)]:
            future.result()
        start = clock()
        futures = [pool.submit(execute_request, request) for request in requests]
        metrics = [future.result() for future in futures]
        wall = clock() - start
    return metrics, wall


def measure_obs_overhead(
    repeats: int = 3,
    scale: float = QUICK_SCALE,
    seed: int = 0xC0FFEE,
    threshold_pct: float = 3.0,
    clock=time.perf_counter,
) -> Dict:
    """The observability overhead gate (docs/OBSERVABILITY.md).

    Three serial legs over the quick matrix, best-of-*repeats* each:

    * ``off``  — plain runs, no registry, no subscribers (the perf-smoke
      path; every instrumentation site is behind a ``wants()``/``None``
      guard).
    * ``null`` — a :class:`~repro.obs.metrics.NullMetricsRegistry`
      attached: the disabled-stub configuration.  Its overhead over
      ``off`` is what the <3% gate bounds — the price of *having* the
      observability layer while it is switched off.
    * ``on``   — full MetricsRegistry + collector subscribed (recorded
      for the docs, not gated: enabling observability may legitimately
      cost more).

    Best-of-N damps scheduler noise; the legs alternate nothing (each leg
    finishes its repeats before the next starts) so turbo/thermal drift
    biases against no particular leg systematically.
    """
    from repro.obs.collector import MetricsCollector
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    requests = build_requests(QUICK_WORKLOADS, QUICK_SETTINGS, scale, seed)

    def leg(on_system) -> float:
        best = None
        for _ in range(max(1, repeats)):
            start = clock()
            for request in requests:
                run_workload(
                    request.workload,
                    request.setting(),
                    scale=request.scale,
                    seed=request.seed,
                    on_system=on_system,
                )
            wall = clock() - start
            best = wall if best is None else min(best, wall)
        return best

    def attach_null(system) -> None:
        system.metrics = NULL_METRICS

    def attach_full(system) -> None:
        registry = MetricsRegistry()
        system.metrics = registry
        MetricsCollector(system.hooks, registry)

    # Untimed warmup pass: imports, registry resolution and allocator
    # warm-up otherwise land entirely on the first leg.
    for request in requests:
        run_workload(request.workload, request.setting(),
                     scale=request.scale, seed=request.seed)

    off = leg(None)
    null = leg(attach_null)
    on = leg(attach_full)
    overhead_null_pct = 100.0 * (null - off) / off if off else 0.0
    overhead_on_pct = 100.0 * (on - off) / off if off else 0.0
    return {
        "name": "obs-overhead-gate",
        "matrix": {
            "workloads": list(QUICK_WORKLOADS),
            "settings": list(QUICK_SETTINGS),
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
        },
        "off_s": round(off, 4),
        "null_s": round(null, 4),
        "on_s": round(on, 4),
        "overhead_disabled_pct": round(overhead_null_pct, 2),
        "overhead_enabled_pct": round(overhead_on_pct, 2),
        "threshold_pct": threshold_pct,
        "pass": overhead_null_pct < threshold_pct,
    }


def run_load_benchmark(
    workload: str = "incast",
    arrival: str = "poisson",
    scale: float = 0.25,
    seed: int = 0xC0FFEE,
    jobs: int = 0,
    quick: bool = False,
    clock=time.perf_counter,
) -> Dict:
    """Wall-clock the open-system load sweep (BENCH_load.json).

    Runs :func:`repro.eval.load.load_experiment` twice — ``jobs=1`` and
    ``jobs=N`` — and asserts the two reports are byte-identical before
    recording anything: the load sweep carries the same deterministic-
    across-``--jobs`` contract as the Figure-8 matrix.  The recorded rate
    is *simulated requests completed per wall second*, summed over the
    calibration and sweep phases.  Unlike :func:`measure_parallel` the
    parallel leg here includes pool spawn (the sweep spawns its own
    executors internally), so quick-matrix rates understate steady-state
    throughput — they are trend lines, not absolutes.
    """
    from repro.eval.load import (
        DEFAULT_RHOS,
        DEFAULT_SETTINGS,
        DEFAULT_TOPOLOGIES,
        load_experiment,
    )

    topologies = ("single-bus", "mesh") if quick else DEFAULT_TOPOLOGIES
    rhos = (0.5, 1.1) if quick else DEFAULT_RHOS
    settings = DEFAULT_SETTINGS
    effective_jobs = resolve_jobs(jobs)

    def leg(n_jobs: int):
        start = clock()
        result = load_experiment(
            workload=workload,
            arrival=arrival,
            settings=settings,
            topologies=topologies,
            rhos=rhos,
            scale=scale,
            seed=seed,
            jobs=n_jobs,
        )
        return result, clock() - start

    serial, serial_wall = leg(1)
    parallel, parallel_wall = leg(effective_jobs)
    identical = serial.to_json() == parallel.to_json()

    completed = sum(row["requests"] for row in serial.rows) + sum(
        cell["requests"] for cell in serial.calibration
    )
    return {
        "name": "load-sweep-wallclock",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "matrix": {
            "workload": workload,
            "arrival": arrival,
            "settings": list(settings),
            "topologies": list(topologies),
            "rhos": list(rhos),
            "scale": scale,
            "seed": seed,
            "runs": len(serial.calibration) + len(serial.rows),
        },
        "requests_completed": completed,
        "serial": {
            "wall_s": round(serial_wall, 4),
            "requests_per_s": (
                round(completed / serial_wall) if serial_wall else None
            ),
        },
        "parallel": {
            "jobs": effective_jobs,
            "wall_s": round(parallel_wall, 4),
            "requests_per_s": (
                round(completed / parallel_wall) if parallel_wall else None
            ),
        },
        "speedup": (
            round(serial_wall / parallel_wall, 3) if parallel_wall else None
        ),
        "identical": identical,
    }


def run_benchmark(
    workloads: Optional[Sequence[str]] = None,
    settings: Optional[Sequence[str]] = None,
    scale: float = 0.25,
    seed: int = 0xC0FFEE,
    jobs: int = 0,
    requests: Optional[List[RunRequest]] = None,
    name: str = "parallel-executor-wallclock",
    matrix_extra: Optional[Dict] = None,
) -> Dict:
    """Measure both legs and return the BENCH_parallel.json document.

    *requests* overrides the workload × setting matrix with a prebuilt
    request list (the ``--net`` scaling matrix); *matrix_extra* merges
    extra keys into the recorded matrix description.
    """
    workloads = list(workloads or workload_names())
    settings = list(settings or FIG8_SETTINGS)
    effective_jobs = resolve_jobs(jobs)
    if requests is None:
        requests = build_requests(workloads, settings, scale, seed)

    serial_metrics, serial_wall, events = measure_serial(requests)
    parallel_metrics, parallel_wall = measure_parallel(requests, jobs=jobs)

    identical = [dataclasses.asdict(m) for m in serial_metrics] == [
        dataclasses.asdict(m) for m in parallel_metrics
    ]
    matrix = {
        "workloads": workloads,
        "settings": settings,
        "scale": scale,
        "seed": seed,
        "runs": len(requests),
    }
    if matrix_extra:
        matrix.update(matrix_extra)
    return {
        "name": name,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "matrix": matrix,
        "serial": {
            "wall_s": round(serial_wall, 4),
            "kernel_events": events,
            "events_per_s": round(events / serial_wall) if serial_wall else None,
        },
        "parallel": {
            "jobs": effective_jobs,
            "wall_s": round(parallel_wall, 4),
            "events_per_s": (
                round(events / parallel_wall) if parallel_wall else None
            ),
        },
        "speedup": round(serial_wall / parallel_wall, 3) if parallel_wall else None,
        "identical": identical,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serial vs parallel wall-clock benchmark "
                    "(record-only timings + equality check)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="small matrix for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel-leg worker count (0 = all cores)")
    parser.add_argument("--scale", type=float, default=None,
                        help="message-count scale (default 0.25, quick 0.05)")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON document here "
                             "(e.g. BENCH_parallel.json)")
    parser.add_argument("--net", action="store_true",
                        help="bench the interconnect scaling matrix "
                             "(repro scale: cores x topology x device) "
                             "instead of the Fig-8 grid")
    parser.add_argument("--load", action="store_true",
                        help="bench the open-system load sweep "
                             "(repro load: tail latency vs offered load) "
                             "instead of the Fig-8 grid")
    parser.add_argument("--obs-gate", type=int, default=0, metavar="N",
                        help="run the observability overhead gate instead "
                             "(best-of-N legs; fails if the disabled-"
                             "instrumentation overhead exceeds 3%%)")
    args = parser.parse_args(argv)

    if args.obs_gate:
        result = measure_obs_overhead(
            repeats=args.obs_gate,
            scale=args.scale if args.scale is not None else QUICK_SCALE,
            seed=args.seed,
        )
        document = json.dumps(result, indent=2, sort_keys=True)
        print(document)
        if args.out:
            Path(args.out).write_text(document + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        if not result["pass"]:
            print(
                f"FAIL: disabled-observability overhead "
                f"{result['overhead_disabled_pct']}% exceeds "
                f"{result['threshold_pct']}%",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.load:
        result = run_load_benchmark(
            scale=args.scale if args.scale is not None else (
                QUICK_SCALE if args.quick else 0.25
            ),
            seed=args.seed,
            jobs=args.jobs,
            quick=args.quick,
        )
    elif args.net:
        from repro.eval.scaling import (  # noqa: E402
            DEFAULT_CORES,
            DEFAULT_SCALE,
            DEFAULT_SETTINGS,
            DEFAULT_TOPOLOGIES,
            scaling_requests,
        )

        cores = (8, 16) if args.quick else DEFAULT_CORES
        scale = args.scale if args.scale is not None else DEFAULT_SCALE
        result = run_benchmark(
            scale=scale,
            seed=args.seed,
            jobs=args.jobs,
            requests=scaling_requests(cores=cores, scale=scale,
                                      seed=args.seed),
            name="net-scaling-wallclock",
            matrix_extra={
                "workloads": ["scaling-halo"],
                "settings": list(DEFAULT_SETTINGS),
                "cores": list(cores),
                "topologies": list(DEFAULT_TOPOLOGIES),
            },
        )
    else:
        result = run_benchmark(
            workloads=QUICK_WORKLOADS if args.quick else None,
            settings=QUICK_SETTINGS if args.quick else None,
            scale=args.scale if args.scale is not None else (
                QUICK_SCALE if args.quick else 0.25
            ),
            seed=args.seed,
            jobs=args.jobs,
        )

    document = json.dumps(result, indent=2, sort_keys=True)
    print(document)
    if args.out:
        Path(args.out).write_text(document + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if not result["identical"]:
        print("FAIL: parallel metrics differ from serial metrics",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
