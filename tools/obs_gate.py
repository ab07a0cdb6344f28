#!/usr/bin/env python3
"""Observability overhead gate (docs/OBSERVABILITY.md, "Overhead gate").

    python tools/obs_gate.py

Times three interleaved legs in process CPU time over the ``repro obs``
smoke matrix (single bus) and over ``scaling-halo`` at 64 cores on
``mesh``, ``REPEATS`` rounds each, prints one JSON document and exits 1
when, on either matrix, the ``null`` leg costs 3% or more over the ``off``
leg (median over rounds).
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

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

#: Rounds per matrix.  One round's ``null``/``off`` ratio still varies by
#: ±10% on a shared 2-vCPU VM, so the gated median needs many rounds: at
#: 3 rounds (best-of, wall clock) unchanged code failed 6 of 8 gate runs.
REPEATS = 60
#: Passes over the smoke matrix (about 0.015 s each) per timed leg.
BUS_PASSES = 2
#: Passes over the fabric matrix (about 0.07 s each) per timed leg.
FABRIC_PASSES = 1
THRESHOLD_PCT = 3.0
#: The fabric leg: a 64-core mesh, where every packet crosses the
#: ``BusHook`` guard and each of its hops a ``LinkHook`` guard.
FABRIC_WORKLOAD = "scaling-halo"
FABRIC_CORES = 64
FABRIC_TOPOLOGY = "mesh"


def _legs(cells, repeats: int, passes: int, scale: float, seed: int,
          clock) -> Dict:
    """Time the ``off``, ``null`` and ``on`` legs over *cells*, each a
    ``(workload, setting, config)`` triple, for *repeats* rounds; a leg
    runs *cells* *passes* times.

    Each round runs every leg once, in an order rotated by one each
    round.  Reports each leg's best round and its overhead over ``off``."""
    from repro.obs.collector import MetricsCollector
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    def run_all(on_system, passes: int = passes) -> None:
        for _ in range(passes):
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
    walls: Dict[str, List[float]] = {name: [] for name, _ in legs}
    # Untimed warmup pass: imports, registry resolution and allocator
    # warm-up otherwise land entirely on the first leg.
    run_all(None, passes=1)
    for round_ in range(max(1, repeats)):
        shift = round_ % len(legs)
        for name, on_system in legs[shift:] + legs[:shift]:
            # As timeit does: no leg pays for another leg's garbage.
            gc.collect()
            gc.disable()
            try:
                start = clock()
                run_all(on_system)
                walls[name].append(clock() - start)
            finally:
                gc.enable()

    def overhead_pct(name: str) -> float:
        """Median over rounds of the leg's wall over the same round's
        ``off`` wall: the host's speed drifts over seconds, and the legs
        of one round share it."""
        ratios = [wall / off for wall, off in zip(walls[name], walls["off"])
                  if off]
        return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0

    return {
        "off_s": round(min(walls["off"]), 4),
        "null_s": round(min(walls["null"]), 4),
        "on_s": round(min(walls["on"]), 4),
        "overhead_disabled_pct": round(overhead_pct("null"), 2),
        "overhead_enabled_pct": round(overhead_pct("on"), 2),
    }


def measure_obs_overhead(
    repeats: int = REPEATS,
    scale: float = SMOKE_SCALE,
    seed: int = SMOKE_SEED,
    threshold_pct: float = THRESHOLD_PCT,
    clock=time.process_time,
) -> Dict:
    """Three interleaved legs, *repeats* rounds each, over the smoke matrix
    (single bus) and again over the fabric matrix (``scaling-halo`` at 64
    cores on ``mesh``, same settings):

    * ``off``  — plain runs, no registry, no subscribers.
    * ``null`` — :data:`~repro.obs.metrics.NULL_METRICS` assigned to
      ``system.metrics`` before the run.  Its overhead over ``off`` is what
      the gate bounds, on each matrix.
    * ``on``   — full MetricsRegistry + collector subscribed (recorded
      for the docs, not gated: enabling observability may legitimately
      cost more).

    *clock* defaults to process CPU time, so time the host hands to other
    tenants does not count.  Each round runs every leg once and the next
    round rotates their order, and the overhead is the median over rounds
    of the leg's time over the same round's ``off`` time, so host drift
    over the run (turbo, thermal, a neighbour's load) cancels within a
    round instead of piling onto one leg.  The ``*_s`` fields are each
    leg's best round.  The smoke matrix's numbers sit at the top level of
    the document, the fabric matrix's under ``"fabric"``.
    """
    from repro.eval.scaling import scaling_config

    settings = [setting_by_name(s) for s in SMOKE_SETTINGS]
    bus_cells = [(w, s, None) for w in SMOKE_WORKLOADS for s in settings]
    fabric_config = scaling_config(FABRIC_CORES, FABRIC_TOPOLOGY)
    fabric_cells = [(FABRIC_WORKLOAD, s, fabric_config) for s in settings]
    bus = _legs(bus_cells, repeats, BUS_PASSES, scale, seed, clock)
    fabric = _legs(fabric_cells, repeats, FABRIC_PASSES, scale, seed, clock)
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
            "passes": {"bus": BUS_PASSES, "fabric": FABRIC_PASSES},
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
