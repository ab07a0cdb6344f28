"""Per-layer numbers for the traced run.

Host time per layer comes from cProfile: each function's self time is
attributed to the ``repro.<module>`` package its file lives in.  Modelled
counters per layer are read from each run's public
:class:`~repro.eval.metrics.RunMetrics` after the run, and the kernel's
pending-queue depth is sampled from a hook-bus subscriber.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.matrix import Record

#: The package's modules that the benchmark reports as layers.
LAYERS = ("sim", "vlink", "mem", "net", "spamer", "cpu", "workloads", "eval")
#: Buckets for self time outside the layers: the rest of ``repro``
#: (system, config, registry, verify, ...) and everything else the process
#: ran (stdlib, builtins, numpy, the benchmark itself).
OTHER = "other"
HOST = "host"


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a profiled function belongs to, from its file name."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return HOST
    module = filename[len(prefix):].split(os.sep)[0]
    return module if module in LAYERS else OTHER


def self_time_by_layer(stats: Dict[Tuple, Tuple], package_dir: str) -> Dict[str, float]:
    """Sum cProfile self time (``tt``) per layer.

    *stats* is :attr:`pstats.Stats.stats`: ``(file, line, function) ->
    (primitive calls, calls, self time, cumulative time, callers)``.
    """
    totals = {name: 0.0 for name in LAYERS + (OTHER, HOST)}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
        totals[layer_of(filename, package_dir)] += tt
    return totals


def call_count(stats: Dict[Tuple, Tuple], function) -> int:
    """Calls to a Python *function* in a profile (0 when absent or removed)."""
    code = getattr(function, "__code__", None)
    if code is None:
        return 0
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.get(key)
    return entry[1] if entry else 0


def profile(fn) -> Dict[Tuple, Tuple]:
    """Run *fn* under cProfile and return the raw stats table."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    return pstats.Stats(profiler).stats


class QueueSampler:
    """Samples ``Environment.queue_length`` at every bus packet.

    Subscribes to :class:`~repro.sim.hooks.BusHook` on each system it is
    given; publishing schedules nothing, so the sampled runs stay
    bit-identical to unsampled ones.
    """

    def __init__(self) -> None:
        self.per_run: List[Counter] = []

    def __call__(self, system) -> None:
        from repro.sim.hooks import BusHook

        depths: Counter = Counter()
        env = system.env
        self.per_run.append(depths)

        def sample(_event) -> None:
            depths[env.queue_length] += 1

        system.hooks.subscribe(BusHook, sample)

    @staticmethod
    def percentile(depths: Counter, q: float) -> int:
        """Nearest-rank percentile of a depth histogram."""
        total = sum(depths.values())
        if not total:
            return 0
        rank, seen = q / 100.0 * total, 0
        for depth in sorted(depths):
            seen += depths[depth]
            if seen >= rank:
                return depth
        return max(depths)

    def pooled(self) -> Counter:
        pooled: Counter = Counter()
        for depths in self.per_run:
            pooled.update(depths)
        return pooled


def _extra_sum(records: Iterable[Record], key: str) -> int:
    return sum((r.metrics.extra or {}).get(key, 0) for r in records)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def model_counters(records: Sequence[Record]) -> Dict[str, float]:
    """Per-layer modelled counters, summed over one iteration of the matrix."""
    m = [r.metrics for r in records]
    bus_runs = [r.metrics for r in records if "net_links" not in (r.metrics.extra or {})]
    noc_runs = [r.metrics.extra for r in records if "net_links" in (r.metrics.extra or {})]
    spec_pushes = sum(x.spec_pushes for x in m)
    spec_failures = sum(x.spec_failures for x in m)
    return {
        "sim.events": sum(r.events for r in records),
        "vlink.ondemand_pushes": sum(x.ondemand_pushes for x in m),
        "vlink.request_packets": sum(x.request_packets for x in m),
        "vlink.push_failures": sum(x.push_failures for x in m),
        "vlink.line_empty_cycles": sum(x.avg_line_empty for x in m),
        "mem.bus_busy_cycles": sum(x.bus_busy_cycles for x in m),
        "mem.bus_packets": sum(x.bus_packets for x in m),
        "mem.bus_util": _mean([x.bus_utilization for x in bus_runs]),
        "net.wait_cycles": _extra_sum(records, "net_wait_cycles"),
        "net.utilization": _mean([e["net_utilization"] for e in noc_runs]),
        "spamer.spec_pushes": spec_pushes,
        "spamer.spec_failures": spec_failures,
        "spamer.spec_precision": (
            (spec_pushes - spec_failures) / spec_pushes if spec_pushes else 0.0
        ),
        "spamer.burst_claims": _extra_sum(records, "burst_claims"),
        "spamer.spec_rollbacks": _extra_sum(records, "spec_rollbacks"),
        "spamer.rollback_invalidations": _extra_sum(records, "rollback_invalidations"),
        "workloads.requests_completed": _extra_sum(records, "request_count"),
        "workloads.messages_delivered": sum(x.messages_delivered for x in m),
    }
