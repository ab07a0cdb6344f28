#!/usr/bin/env python3
"""Observability overhead gate (docs/OBSERVABILITY.md, "Overhead gate").

    python tools/obs_gate.py

Times three serial legs over the ``repro obs`` smoke matrix, best of three
each, prints one JSON document and exits 1 when the ``null`` leg costs 3%
or more over the ``off`` leg.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval.runner import run_workload, setting_by_name  # noqa: E402
from repro.obs.runner import (  # noqa: E402
    SMOKE_SCALE,
    SMOKE_SEED,
    SMOKE_SETTINGS,
    SMOKE_WORKLOADS,
)

REPEATS = 3
THRESHOLD_PCT = 3.0


def measure_obs_overhead(
    repeats: int = REPEATS,
    scale: float = SMOKE_SCALE,
    seed: int = SMOKE_SEED,
    threshold_pct: float = THRESHOLD_PCT,
    clock=time.perf_counter,
) -> Dict:
    """Three serial legs over the smoke matrix, best-of-*repeats* each:

    * ``off``  — plain runs, no registry, no subscribers.
    * ``null`` — :data:`~repro.obs.metrics.NULL_METRICS` assigned to
      ``system.metrics`` before the run.  Its overhead over ``off`` is what
      the gate bounds.
    * ``on``   — full MetricsRegistry + collector subscribed (recorded
      for the docs, not gated: enabling observability may legitimately
      cost more).

    Best-of-N damps scheduler noise; each leg finishes its repeats before
    the next starts, so turbo/thermal drift biases against no particular
    leg systematically.
    """
    from repro.obs.collector import MetricsCollector
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    cells = [(w, setting_by_name(s)) for w in SMOKE_WORKLOADS for s in SMOKE_SETTINGS]

    def leg(on_system) -> float:
        best = None
        for _ in range(max(1, repeats)):
            start = clock()
            for workload, setting in cells:
                run_workload(workload, setting, scale=scale, seed=seed,
                             on_system=on_system)
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
    for workload, setting in cells:
        run_workload(workload, setting, scale=scale, seed=seed)

    off = leg(None)
    null = leg(attach_null)
    on = leg(attach_full)
    overhead_null_pct = 100.0 * (null - off) / off if off else 0.0
    overhead_on_pct = 100.0 * (on - off) / off if off else 0.0
    return {
        "name": "obs-overhead-gate",
        "matrix": {
            "workloads": list(SMOKE_WORKLOADS),
            "settings": list(SMOKE_SETTINGS),
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


def main() -> int:
    result = measure_obs_overhead()
    print(json.dumps(result, indent=2, sort_keys=True))
    if not result["pass"]:
        print(
            f"FAIL: disabled-observability overhead "
            f"{result['overhead_disabled_pct']}% exceeds "
            f"{result['threshold_pct']}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
