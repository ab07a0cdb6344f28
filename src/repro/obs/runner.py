"""The ``repro obs`` engine: run cells with full observability attached.

One :class:`ObsRequest` is a (workload × setting) cell to simulate with a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.collector.MetricsCollector`, a
:class:`~repro.obs.perfetto.PerfettoTraceSink` and a
:class:`~repro.obs.perfetto.JsonlTraceSink` all subscribed before the
first event fires.  :func:`collect_cell` returns plain dicts/lists, so a
cell runs identically in-process or inside a
:class:`~concurrent.futures.ProcessPoolExecutor` worker, and
:func:`run_obs` merges results in **submission order** — the combined
trace and metrics documents are byte-identical for ``--jobs 1`` and
``--jobs N`` (guarded by the golden-trace test).

Determinism inventory: every number in the output derives from simulation
ticks and event counts; there is no wall-clock, no PID, no dict-order
dependence (exports sort keys), and the per-cell Perfetto pid blocks are
assigned from the submission index, not from scheduling.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.eval.parallel import _mp_context, resolve_jobs
from repro.eval.runner import run_workload, setting_by_name
from repro.obs.accuracy import accuracy_from_metrics, stage_latency_summary
from repro.obs.collector import MetricsCollector, finalize_system
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import JsonlTraceSink, PerfettoTraceSink

#: Each cell's Perfetto tracks occupy one block of this many pids, keyed by
#: submission index — disjoint per cell, stable across jobs counts.
PID_BLOCK = 8

#: The fig8 smoke matrix: small enough for CI, golden fixtures and the
#: overhead gate (tools/obs_gate.py), large enough to exercise both devices.
SMOKE_WORKLOADS = ("ping-pong", "incast")
SMOKE_SETTINGS = ("vl", "tuned")
SMOKE_SCALE = 0.05
SMOKE_SEED = 0xC0FFEE


@dataclass(frozen=True)
class ObsRequest:
    """One fully-observed simulation cell (picklable by value)."""

    workload: str
    setting: str          # a setting_by_name short-name ("vl", "tuned", …)
    scale: float = 1.0
    seed: int = 0xC0FFEE
    pid_base: int = 0     # Perfetto pid block offset (submission index × 8)


def smoke_requests(
    scale: float = SMOKE_SCALE, seed: int = SMOKE_SEED
) -> List[ObsRequest]:
    """The fig8 smoke matrix as observation requests, in matrix order."""
    requests = []
    for workload in SMOKE_WORKLOADS:
        for setting in SMOKE_SETTINGS:
            requests.append(
                ObsRequest(workload, setting, scale=scale, seed=seed)
            )
    return [
        replace(r, pid_base=i * PID_BLOCK) for i, r in enumerate(requests)
    ]


def collect_cell(request: ObsRequest) -> Dict:
    """Run one cell with every sink attached; returns plain data.

    The worker-process entry point *and* the serial path — the same code
    object produces the bytes either way.
    """
    registry = MetricsRegistry()
    sinks: List[object] = []

    def attach(system) -> None:
        sinks.append(MetricsCollector(system.hooks, registry))
        sinks.append(
            PerfettoTraceSink(
                system.hooks,
                pid_base=request.pid_base,
                label=f"{request.workload}/{request.setting}",
            )
        )
        sinks.append(JsonlTraceSink(system.hooks))

    metrics, system = run_workload(
        request.workload,
        setting_by_name(request.setting),
        scale=request.scale,
        seed=request.seed,
        on_system=attach,
        return_system=True,
    )
    finalize_system(system, registry)
    collector, perfetto, jsonl = sinks
    accuracy = accuracy_from_metrics(metrics)
    return {
        "workload": request.workload,
        "setting": request.setting,
        "scale": request.scale,
        "seed": request.seed,
        "exec_cycles": metrics.exec_cycles,
        "metrics": registry.as_dict(),
        "accuracy": accuracy.as_dict(),
        "stage_latency": stage_latency_summary(registry),
        "trace_events": perfetto.events,
        "jsonl": jsonl.lines,
    }


@dataclass(frozen=True)
class ObsResult:
    """Merged observation documents for one request list."""

    cells: List[Dict]

    # ------------------------------------------------------------- documents
    def trace_document(self) -> Dict:
        events: List[Dict] = []
        for cell in self.cells:
            events.extend(cell["trace_events"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def trace_json(self) -> str:
        return json.dumps(
            self.trace_document(), sort_keys=True, separators=(",", ":")
        )

    def metrics_document(self) -> Dict:
        return {
            "cells": [
                {k: cell[k] for k in (
                    "workload", "setting", "scale", "seed", "exec_cycles",
                    "metrics", "accuracy", "stage_latency",
                )}
                for cell in self.cells
            ]
        }

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            self.metrics_document(), sort_keys=True, indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def jsonl(self) -> str:
        lines: List[str] = []
        for cell in self.cells:
            lines.extend(cell["jsonl"])
        return "\n".join(lines) + ("\n" if lines else "")

    # --------------------------------------------------------------- summary
    def summary(self) -> str:
        from repro.eval.report import format_accuracy_table, format_stage_table

        blocks = [format_accuracy_table(
            [cell["accuracy"] for cell in self.cells]
        )]
        for cell in self.cells:
            if cell["stage_latency"]:
                blocks.append(
                    format_stage_table(
                        f"stage latency — {cell['workload']} × {cell['setting']}",
                        cell["stage_latency"],
                    )
                )
        return "\n\n".join(blocks)


def run_obs(
    requests: Sequence[ObsRequest], jobs: Optional[int] = None
) -> ObsResult:
    """Run every cell and merge in submission order (jobs-invariant)."""
    requests = list(requests)
    workers = min(resolve_jobs(jobs), len(requests)) if requests else 1
    if workers <= 1:
        return ObsResult([collect_cell(request) for request in requests])
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context()
    ) as pool:
        futures = [pool.submit(collect_cell, request) for request in requests]
        return ObsResult([future.result() for future in futures])
