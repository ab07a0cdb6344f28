"""The benchmark's workloads: fixed matrices of simulations run back to back.

Every workload is a closed loop over its matrix: the next simulation starts
when the previous one has finished.  Inside ``incast-open`` the requests of
one simulation arrive on an open Poisson schedule instead.

The matrices are driven through the public entry points only:
:class:`~repro.eval.parallel.RunRequest` names each cell,
:func:`~repro.eval.runner.run_workload` runs it, and
:func:`~repro.eval.load.load_experiment` runs the open-loop sweep with a
:class:`Recorder` as its executor.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.autotune import saturated_bus_config
from repro.eval.load import load_experiment
from repro.eval.metrics import RunMetrics
from repro.eval.parallel import RunRequest
from repro.eval.runner import collect_metrics, run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.system import System
from repro.verify.invariants import StallWatchdog
from repro.workloads.registry import make_workload, workload_names

#: Fig-8 geomean speedups the paper reports (EXPERIMENTS.md).
PAPER_FIG8 = {"0delay": 1.45, "adapt": 1.25, "tuned": 1.33}
#: The SPAMeR setting whose latency and speedup the metrics report.
TUNED = "SPAMeR(tuned)"
VL = "VL(baseline)"
#: Latency limit on the sojourn p99 that defines ``sustained_rate``.
P99_LIMIT_CYC = 10_000
#: Requests the rho-0.8 SPAMeR(tuned) cell must complete at full size, so
#: its p99 has at least ten samples beyond it.
MIN_SOJOURN_SAMPLES = 1000


@dataclass(frozen=True)
class Record:
    """One finished simulation: its metrics plus what they leave out."""

    request: RunRequest
    metrics: RunMetrics
    #: ``Environment.events_processed`` at the end of the run.
    events: int
    #: Host seconds the run took, set-up and checks included.
    wall_s: float
    #: Message latency samples (push call -> pop return); kept for the
    #: SPAMeR(tuned) cells only.
    latencies: Tuple[float, ...] = ()


class Recorder:
    """A ``run_requests``-shaped executor that keeps a :class:`Record` per run.

    Each request runs serially through :func:`run_workload`, the body of
    ``execute_request``; the ``on_system`` hook captures the system so the
    kernel's event count can be read after the run.  *observe* is called
    with each freshly built system before the workload is built, the place
    to subscribe a hook-bus sampler.
    """

    def __init__(self, observe: Optional[Callable[[System], None]] = None) -> None:
        self.records: List[Record] = []
        self.observe = observe

    def __call__(self, requests: Sequence[RunRequest], jobs=None) -> List[RunMetrics]:
        return [self.run(request) for request in requests]

    def run(self, request: RunRequest) -> RunMetrics:
        systems: List[System] = []
        start = time.perf_counter()

        def on_system(system: System) -> None:
            systems.append(system)
            if self.observe is not None:
                self.observe(system)

        metrics = run_workload(
            request.workload,
            request.setting(),
            scale=request.scale,
            config=request.config,
            seed=request.seed,
            limit=request.limit,
            validate=request.validate,
            verify=request.verify,
            arrival=request.arrival,
            on_system=on_system,
        )
        wall_s = time.perf_counter() - start
        system = systems[0]
        latencies = (
            tuple(system.latency_stats.samples) if metrics.setting == TUNED else ()
        )
        self.records.append(
            Record(request, metrics, system.env.events_processed, wall_s, latencies)
        )
        return metrics


@dataclass
class PhaseTimes:
    """Host seconds spent in each public call of one run, summed over runs."""

    build_s: float = 0.0
    run_s: float = 0.0
    validate_s: float = 0.0
    collect_s: float = 0.0
    metrics: List[RunMetrics] = field(default_factory=list)


def build(request: RunRequest):
    """``make_workload`` + ``Setting.build_system`` + ``Workload.build``:
    the set-up part of :func:`run_workload`, for one request."""
    workload = make_workload(request.workload, scale=request.scale, arrival=request.arrival)
    system = request.setting().build_system(config=request.config, seed=request.seed)
    workload.build(system)
    return workload, system


def run_phases(requests: Sequence[RunRequest]) -> PhaseTimes:
    """Run *requests* the way :func:`run_workload` does, timing each call."""
    times = PhaseTimes()
    clock = time.perf_counter
    for request in requests:
        t0 = clock()
        workload, system = build(request)
        t1 = clock()
        if not system.env.has_watchdog:
            StallWatchdog(system).install()
        system.run_to_completion(limit=request.limit)
        t2 = clock()
        workload.validate()
        t3 = clock()
        times.metrics.append(collect_metrics(system, workload, request.setting()))
        t4 = clock()
        times.build_s += t1 - t0
        times.run_s += t2 - t1
        times.validate_s += t3 - t2
        times.collect_s += t4 - t3
    return times


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _pooled_latency(records: Sequence[Record]) -> Dict[str, float]:
    """Closed loop: SPAMeR(tuned) message latency, pooled over its cells,
    and its completion rate."""
    tuned = [r for r in records if r.metrics.setting == TUNED]
    samples = np.concatenate([np.asarray(r.latencies) for r in tuned])
    delivered = sum(r.metrics.messages_delivered for r in tuned)
    cycles = sum(r.metrics.exec_cycles for r in tuned)
    return {
        "sojourn_p50_cyc": float(np.percentile(samples, 50)),
        "sojourn_p99_cyc": float(np.percentile(samples, 99)),
        "sojourn_samples": int(samples.size),
        "sustained_rate": delivered / cycles * 1e6,
    }


def _speedup(records: Sequence[Record], setting: str, cell: Callable[[Record], object]) -> float:
    """Geomean over cells of VL cycles / *setting* cycles."""
    vl = {cell(r): r.metrics.exec_cycles for r in records if r.metrics.setting == VL}
    ratios = [
        vl[cell(r)] / r.metrics.exec_cycles
        for r in records
        if r.metrics.setting == setting
    ]
    return geomean(ratios)


class Workload:
    """A named matrix of simulations and the simulated metrics it yields."""

    name = ""
    #: Matrix cells per iteration.
    runs = 0

    def __init__(self, scale_factor: float = 1.0) -> None:
        self.scale_factor = scale_factor

    def requests(self, seed: int) -> List[RunRequest]:
        """The matrix, one request per cell, in run order."""
        raise NotImplementedError

    def run(self, recorder: Recorder, seed: int) -> None:
        """Run the whole matrix once through *recorder*."""
        recorder(self.requests(seed))

    def sim_metrics(self, records: Sequence[Record]) -> Dict[str, float]:
        """Modelled-cycle metrics of one iteration (deterministic)."""
        raise NotImplementedError


class Fig8Closed(Workload):
    """Figure 8: the 8 Table-2 workloads x 4 settings, 16-core bus."""

    name = "fig8-closed"
    scale = 0.25
    settings = ("vl", "0delay", "adapt", "tuned")
    runs = 8 * len(settings)

    def requests(self, seed: int) -> List[RunRequest]:
        return [
            RunRequest.from_setting(
                name, setting_by_name(setting), scale=self.scale * self.scale_factor, seed=seed
            )
            for name in workload_names()
            for setting in self.settings
        ]

    def sim_metrics(self, records: Sequence[Record]) -> Dict[str, float]:
        by_workload = lambda r: r.metrics.workload  # noqa: E731
        geomeans = {
            algo: _speedup(records, f"SPAMeR({algo})", by_workload) for algo in PAPER_FIG8
        }
        out = {"sim_speedup": geomeans["tuned"]}
        out.update(_pooled_latency(records))
        out["paper_err"] = sum(
            abs(geomeans[algo] - paper) for algo, paper in PAPER_FIG8.items()
        ) / len(PAPER_FIG8)
        for algo, value in geomeans.items():
            out[f"geomean_{algo}"] = value
        return out


class Halo64Fabric(Workload):
    """``scaling-halo`` at 64 cores on three fabrics x VL/tuned."""

    name = "halo64-fabric"
    scale = 0.25
    topologies = ("single-bus", "mesh", "torus")
    settings = ("vl", "tuned")
    runs = len(topologies) * len(settings)

    def requests(self, seed: int) -> List[RunRequest]:
        return [
            RunRequest.from_setting(
                "scaling-halo",
                setting_by_name(setting),
                scale=self.scale * self.scale_factor,
                seed=seed,
                config=scaling_config(64, topology),
            )
            for topology in self.topologies
            for setting in self.settings
        ]

    def sim_metrics(self, records: Sequence[Record]) -> Dict[str, float]:
        by_topology = lambda r: r.request.config.topology  # noqa: E731
        out = {"sim_speedup": _speedup(records, TUNED, by_topology)}
        out.update(_pooled_latency(records))
        return out


class IncastOpen(Workload):
    """``incast`` under Poisson arrivals on the saturated 64-core bus.

    ``load_experiment`` calibrates each setting with a closed batch, then
    offers ``rho`` x the calibrated service rate.  Multi-push needs
    ``burst_k`` in the config, which would also turn the other settings
    into bursts, so it runs as a second sweep with its own base config.
    The simulated metrics are read from the latest run's sweep results.
    """

    name = "incast-open"
    scale = 0.5
    rhos = (0.5, 0.8, 1.1)
    sweeps = (
        (("vl", "tuned"), {}),
        (("multipush",), {"burst_k": 2, "p_min": 0.0}),
    )
    runs = 3 * (1 + len(rhos))

    def run(self, recorder: Recorder, seed: int) -> None:
        self.results = [
            load_experiment(
                "incast",
                "poisson",
                settings=settings,
                topologies=("single-bus",),
                rhos=self.rhos,
                scale=self.scale * self.scale_factor,
                seed=seed,
                base=saturated_bus_config().with_overrides(**overrides),
                executor=recorder,
            )
            for settings, overrides in self.sweeps
        ]

    def sim_metrics(self, records: Sequence[Record]) -> Dict[str, float]:
        main = self.results[0]
        service = {
            c["setting"]: c["requests"] / c["cycles"] for c in main.calibration
        }
        tuned = [row for row in main.rows if row["setting"] == TUNED]
        at_08 = next(row for row in tuned if row["rho"] == 0.8)
        sustained = [
            row["rho"] * service[TUNED] * 1e6
            for row in tuned
            if row["p99"] <= P99_LIMIT_CYC
        ]
        return {
            "sim_speedup": service[TUNED] / service[VL],
            "sojourn_p50_cyc": float(at_08["p50"]),
            "sojourn_p99_cyc": float(at_08["p99"]),
            "sojourn_samples": at_08["requests"],
            "sustained_rate": max(sustained, default=0.0),
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig8Closed, Halo64Fabric, IncastOpen)
}
