#!/usr/bin/env python3
"""Observability overhead gate (docs/OBSERVABILITY.md, "Overhead gate").

    python tools/obs_gate.py

Times three interleaved legs over the ``repro obs`` smoke matrix (single
bus) and over ``scaling-halo`` at 64 cores on ``mesh``, best of three each,
prints one JSON document and exits 1 when, on either matrix, the ``null``
leg costs 3% or more over the ``off`` leg.
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
#: The fabric leg: a 64-core mesh, where every packet crosses the
#: ``BusHook`` guard and each of its hops a ``LinkHook`` guard.
FABRIC_WORKLOAD = "scaling-halo"
FABRIC_CORES = 64
FABRIC_TOPOLOGY = "mesh"


def _legs(cells, repeats: int, scale: float, seed: int, clock) -> Dict:
    """Time the ``off``, ``null`` and ``on`` legs over *cells*, each a
    ``(workload, setting, config)`` triple, best-of-*repeats* each.

    Each round runs every leg once, in an order rotated by one each
    round."""
    from repro.obs.collector import MetricsCollector
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    def run_all(on_system) -> None:
        for workload, setting, config in cells:
            run_workload(workload, setting, scale=scale, seed=seed,
                         config=config, on_system=on_system)

    def attach_null(system) -> None:
        system.metrics = NULL_METRICS

    def attach_full(system) -> None:
        registry = MetricsRegistry()
        system.metrics = registry
        MetricsCollector(system.hooks, registry)

    legs = [("off", None), ("null", attach_null), ("on", attach_full)]
    best: Dict[str, float] = {}
    # Untimed warmup pass: imports, registry resolution and allocator
    # warm-up otherwise land entirely on the first leg.
    run_all(None)
    for round_ in range(max(1, repeats)):
        shift = round_ % len(legs)
        for name, on_system in legs[shift:] + legs[:shift]:
            start = clock()
            run_all(on_system)
            wall = clock() - start
            best[name] = min(best.get(name, wall), wall)
    off, null, on = best["off"], best["null"], best["on"]
    overhead_null_pct = 100.0 * (null - off) / off if off else 0.0
    overhead_on_pct = 100.0 * (on - off) / off if off else 0.0
    return {
        "off_s": round(off, 4),
        "null_s": round(null, 4),
        "on_s": round(on, 4),
        "overhead_disabled_pct": round(overhead_null_pct, 2),
        "overhead_enabled_pct": round(overhead_on_pct, 2),
    }


def measure_obs_overhead(
    repeats: int = REPEATS,
    scale: float = SMOKE_SCALE,
    seed: int = SMOKE_SEED,
    threshold_pct: float = THRESHOLD_PCT,
    clock=time.perf_counter,
) -> Dict:
    """Three interleaved legs, best-of-*repeats* each, over the smoke matrix
    (single bus) and again over the fabric matrix (``scaling-halo`` at 64
    cores on ``mesh``, same settings):

    * ``off``  — plain runs, no registry, no subscribers.
    * ``null`` — :data:`~repro.obs.metrics.NULL_METRICS` assigned to
      ``system.metrics`` before the run.  Its overhead over ``off`` is what
      the gate bounds, on each matrix.
    * ``on``   — full MetricsRegistry + collector subscribed (recorded
      for the docs, not gated: enabling observability may legitimately
      cost more).

    Best-of-N damps scheduler noise.  Each round runs every leg once and
    the next round rotates their order, so host drift over the run (turbo,
    thermal, a neighbour's load) spreads over all three legs instead of
    piling onto whichever leg runs its repeats last.  The smoke matrix's
    numbers sit at the top level of the document, the fabric matrix's
    under ``"fabric"``.
    """
    from repro.eval.scaling import scaling_config

    settings = [setting_by_name(s) for s in SMOKE_SETTINGS]
    bus_cells = [(w, s, None) for w in SMOKE_WORKLOADS for s in settings]
    fabric_config = scaling_config(FABRIC_CORES, FABRIC_TOPOLOGY)
    fabric_cells = [(FABRIC_WORKLOAD, s, fabric_config) for s in settings]
    bus = _legs(bus_cells, repeats, scale, seed, clock)
    fabric = _legs(fabric_cells, repeats, scale, seed, clock)
    fabric["pass"] = fabric["overhead_disabled_pct"] < threshold_pct
    fabric["matrix"] = {
        "workload": FABRIC_WORKLOAD,
        "cores": FABRIC_CORES,
        "topology": FABRIC_TOPOLOGY,
        "settings": list(SMOKE_SETTINGS),
    }
    return {
        "name": "obs-overhead-gate",
        "matrix": {
            "workloads": list(SMOKE_WORKLOADS),
            "settings": list(SMOKE_SETTINGS),
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
        },
        **bus,
        "fabric": fabric,
        "threshold_pct": threshold_pct,
        "pass": bus["overhead_disabled_pct"] < threshold_pct and fabric["pass"],
    }


def main() -> int:
    result = measure_obs_overhead()
    print(json.dumps(result, indent=2, sort_keys=True))
    if not result["pass"]:
        print(
            f"FAIL: disabled-observability overhead "
            f"{result['overhead_disabled_pct']}% (bus), "
            f"{result['fabric']['overhead_disabled_pct']}% (fabric); "
            f"bound {result['threshold_pct']}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
