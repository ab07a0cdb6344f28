"""Observability: metrics registry, Perfetto trace export, accuracy reports.

The package is strictly *observe-only*: every component here is a
:class:`~repro.sim.hooks.HookBus` subscriber or a post-run reader, records
simulation ticks (never wall-clock), and schedules no events — attaching
the full stack cannot change a run's results, and leaving it off costs the
hot paths nothing (the publishers' ``hooks.wanted`` guards stay False).

Entry points:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, windowed
  histograms, sim-time timers; :data:`~repro.obs.metrics.NULL_METRICS`
  no-op stub when disabled.
* :class:`~repro.obs.collector.MetricsCollector` — folds every bus event
  into a registry (metric catalogue in docs/OBSERVABILITY.md).
* :class:`~repro.obs.perfetto.PerfettoTraceSink` /
  :class:`~repro.obs.perfetto.JsonlTraceSink` — Chrome/Perfetto
  ``trace_event`` JSON and compact JSONL.
* :func:`~repro.obs.runner.run_obs` — the ``repro obs`` engine: fully
  observed cells, ``--jobs`` fan-out, byte-stable merged documents.
"""

from repro.obs.accuracy import (
    SpeculationAccuracy,
    accuracy_from_metrics,
    stage_latency_summary,
)
from repro.obs.collector import MetricsCollector, attach_collector, finalize_system
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    SimTimer,
    WindowedHistogram,
)
from repro.obs.perfetto import JsonlTraceSink, PerfettoTraceSink
from repro.obs.runner import ObsRequest, ObsResult, collect_cell, run_obs, smoke_requests

__all__ = [
    "NULL_METRICS",
    "JsonlTraceSink",
    "MetricsCollector",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "ObsRequest",
    "ObsResult",
    "PerfettoTraceSink",
    "SimTimer",
    "SpeculationAccuracy",
    "WindowedHistogram",
    "accuracy_from_metrics",
    "attach_collector",
    "collect_cell",
    "finalize_system",
    "run_obs",
    "smoke_requests",
    "stage_latency_summary",
]
