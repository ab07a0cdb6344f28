"""The open-system load sweep: tail latency vs offered load.

A closed batch can only report batch runtime; the questions an
interconnect paper's readers actually ask — *what does p99 response time
look like at 80% load?  where does the system saturate?* — need requests
arriving over time.  This experiment drives an open-capable workload
(:mod:`repro.workloads.arrival`) from light load to past saturation and
reports the per-request sojourn percentiles at every point, per device
flavor and per topology.

Two phases, both through the deterministic multiprocess executor so the
whole report is byte-identical across ``--jobs``:

1. **Calibrate** — run the workload as a closed batch per (topology,
   setting) cell.  The batch's ``requests / exec_cycles`` is that cell's
   maximum service rate: the fastest the system can drain requests when
   they are all already there.
2. **Sweep** — re-run the workload under an open arrival process at
   offered load ``rho = offered rate / service rate`` for each requested
   rho, splitting the aggregate rate evenly across the workload's
   sessions.  Below saturation (rho < 1) sojourn times are flat-ish;
   past it (rho > 1) the arrival backlog grows without bound and the
   tail explodes — the classic hockey stick, now measurable per device.

Exposed as ``repro load`` on the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.report import format_table
from repro.eval.runner import setting_by_name
from repro.registry import ARRIVALS
from repro.workloads.arrival import ArrivalSpec
from repro.workloads.registry import make_workload

#: Offered-load points: light, moderate, heavy, past saturation.
DEFAULT_RHOS: Tuple[float, ...] = (0.2, 0.5, 0.8, 1.1)
DEFAULT_SETTINGS: Tuple[str, ...] = ("vl", "tuned")
#: The topology axis (torus included: same grid as mesh plus wraparound).
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("single-bus", "mesh", "torus")
DEFAULT_SCALE = 0.25


def load_config(
    topology: str, base: Optional[SystemConfig] = None
) -> SystemConfig:
    """The :class:`SystemConfig` for one topology column of the sweep."""
    base = base or SystemConfig()
    if base.topology == topology:
        return base
    return base.with_overrides(topology=topology)


def arrival_spec_for(
    arrival: str, rate: float, churn: float = 0.0
) -> ArrivalSpec:
    """A picklable spec for *arrival* running at mean *rate* req/cycle.

    The registered class maps the rate onto its own parameters
    (:meth:`~repro.workloads.arrival.ArrivalProcess.params_for_rate`); the
    closed batch refuses, having no rate to sweep.
    """
    params = ARRIVALS.resolve(arrival).params_for_rate(rate)
    if churn:
        params["churn"] = churn
    return ArrivalSpec.make(arrival, **params)


@dataclass
class LoadResult:
    """The executed sweep plus its rendering."""

    workload: str = ""
    arrival: str = ""
    #: Calibrated closed-batch service rates, one per (topology, setting).
    calibration: List[Dict] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)

    def add_calibration(
        self, topology: str, setting: str, requests: int, cycles: int
    ) -> None:
        self.calibration.append(
            {
                "topology": topology,
                "setting": setting,
                "requests": requests,
                "cycles": cycles,
                "service_rate": round(requests / cycles, 9) if cycles else 0.0,
            }
        )

    def add(
        self,
        topology: str,
        setting: str,
        rho: float,
        rate: float,
        metrics,
    ) -> None:
        extra = metrics.extra or {}
        completed = extra.get("request_count", 0)
        cycles = metrics.exec_cycles
        self.rows.append(
            {
                "topology": topology,
                "setting": setting,
                "rho": rho,
                "rate": round(rate, 9),
                "requests": completed,
                "cycles": cycles,
                "throughput": round(completed / cycles, 9) if cycles else 0.0,
                "mean": extra.get("request_mean", 0.0),
                "p50": extra.get("request_p50", 0.0),
                "p99": extra.get("request_p99", 0.0),
                "p999": extra.get("request_p999", 0.0),
            }
        )

    # ------------------------------------------------------------- rendering
    def render(self) -> str:
        """The deterministic p50/p99/p999 table, sweep order."""
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row["topology"],
                    row["setting"],
                    f"{row['rho']:g}",
                    f"{row['rate']:.2e}",
                    row["requests"],
                    row["cycles"],
                    f"{row['mean']:.0f}",
                    f"{row['p50']:.0f}",
                    f"{row['p99']:.0f}",
                    f"{row['p999']:.0f}",
                ]
            )
        return format_table(
            [
                "topology", "setting", "rho", "rate", "requests",
                "cycles", "mean", "p50", "p99", "p999",
            ],
            table_rows,
            title=(
                f"Load sweep: {self.workload} under {self.arrival} arrivals "
                "(sojourn cycles)"
            ),
        )

    def to_json(self) -> str:
        """Machine-readable record (sorted keys, deterministic)."""
        doc = {
            "workload": self.workload,
            "arrival": self.arrival,
            "calibration": self.calibration,
            "rows": self.rows,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def load_experiment(
    workload: str = "incast",
    arrival: str = "poisson",
    settings: Sequence[str] = DEFAULT_SETTINGS,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    rhos: Sequence[float] = DEFAULT_RHOS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0xC0FFEE,
    churn: float = 0.0,
    jobs: Optional[int] = None,
    base: Optional[SystemConfig] = None,
    executor=None,
) -> LoadResult:
    """Calibrate then sweep; bit-identical across ``jobs`` values.

    *executor* is any ``run_requests``-shaped callable (e.g.
    ``functools.partial(run_requests, cache=ResultCache(dir))``, which
    is ``repro load --cache DIR``): both phases route through it, so a
    result cache makes every repeated cell — including the calibration
    runs a later sweep repeats — free.
    """
    runner = executor if executor is not None else run_requests
    probe = make_workload(workload, scale=scale)
    if not probe.open_capable:
        raise ConfigError(
            f"workload {workload!r} is closed-only (dependency-driven); "
            "open-capable workloads: ping-pong, incast, pipeline, firewall, "
            "FIR"
        )
    quotas = probe.session_quotas()
    total_requests = sum(quotas.values())
    n_sessions = len(quotas)

    cells = [
        (topology, setting_name)
        for topology in topologies
        for setting_name in settings
    ]

    # Phase 1: closed-batch calibration, one run per cell.
    calib_requests = [
        RunRequest.from_setting(
            workload,
            setting_by_name(setting_name),
            scale=scale,
            seed=seed,
            config=load_config(topology, base=base),
        )
        for topology, setting_name in cells
    ]
    calib_metrics = runner(calib_requests, jobs=jobs)

    result = LoadResult(workload=workload, arrival=arrival)
    service_rates: Dict[Tuple[str, str], float] = {}
    for (topology, setting_name), metrics in zip(cells, calib_metrics):
        cycles = metrics.exec_cycles
        service_rates[(topology, setting_name)] = (
            total_requests / cycles if cycles else 0.0
        )
        result.add_calibration(
            topology, metrics.setting, total_requests, cycles
        )

    # Phase 2: the open sweep — (cell × rho) grid in deterministic order.
    sweep: List[Tuple[str, str, float, float]] = []
    sweep_requests: List[RunRequest] = []
    for topology, setting_name in cells:
        service_rate = service_rates[(topology, setting_name)]
        for rho in rhos:
            session_rate = rho * service_rate / n_sessions
            sweep.append((topology, setting_name, rho, session_rate))
            sweep_requests.append(
                RunRequest.from_setting(
                    workload,
                    setting_by_name(setting_name),
                    scale=scale,
                    seed=seed,
                    config=load_config(topology, base=base),
                    arrival=arrival_spec_for(arrival, session_rate, churn),
                )
            )
    sweep_metrics = runner(sweep_requests, jobs=jobs)
    for (topology, setting_name, rho, session_rate), metrics in zip(
        sweep, sweep_metrics
    ):
        result.add(topology, metrics.setting, rho, session_rate, metrics)
    return result
