"""Experiment runner: build a system, run a workload, collect metrics.

A :class:`Setting` names one of the evaluated configurations —
``VL(baseline)``, ``SPAMeR(0delay)``, ``SPAMeR(adapt)``, ``SPAMeR(tuned)``
(Figures 8–10) — or any custom device/algorithm combination (the Figure 11
parameter sweep builds tuned settings on the fly).  Settings resolve their
device and algorithm through :mod:`repro.registry`, so any component
registered with ``DEVICES.register`` / ``ALGORITHMS.register`` is
immediately runnable here, in the batch runner and from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.eval.metrics import RunMetrics
from repro.errors import SimDeadlockError, SimulationError
from repro.registry import ALGORITHMS, DEVICES, registry_generation
from repro.spamer.delay import DelayAlgorithm, TunedDelay, TunedParams
from repro.system import System
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload

#: Guardrail: a benchmark run that exceeds this many cycles has deadlocked
#: or been mis-scaled (the paper's longest runs are a few ms = a few Mcycles).
DEFAULT_CYCLE_LIMIT = 2_000_000_000


@dataclass(frozen=True)
class Setting:
    """One evaluated device/algorithm configuration.

    ``device`` is any registered device name; ``algorithm`` may be a
    registered algorithm name, a zero-arg factory (for parameterized
    algorithms, e.g. the Figure 11 sweep), or None for devices that do not
    speculate / to use the device's registered default.
    """

    label: str
    device: str
    algorithm: Union[str, Callable[[], DelayAlgorithm], None] = None

    def build_system(
        self,
        config: Optional[SystemConfig] = None,
        seed: int = 0xC0FFEE,
    ) -> System:
        algo = self.algorithm() if callable(self.algorithm) else self.algorithm
        return System(config=config, device=self.device, algorithm=algo, seed=seed)


def standard_settings() -> List[Setting]:
    """The four configurations of Figures 8–10, in plot order."""
    return [
        Setting("VL(baseline)", "vl"),
        Setting("SPAMeR(0delay)", "spamer", "0delay"),
        Setting("SPAMeR(adapt)", "spamer", "adapt"),
        Setting("SPAMeR(tuned)", "spamer", "tuned"),
    ]


#: Registry-derived settings cache: (generation, settings, name->setting).
#: Rebuilding the list walks every registered device × algorithm, and the
#: batch runner resolves names in a tight loop — so it is computed once per
#: registry generation and invalidated by any (un)registration.
_settings_cache: Optional[Tuple[int, List[Setting], Dict[str, Setting]]] = None


def _settings_index() -> Tuple[List[Setting], Dict[str, Setting]]:
    global _settings_cache
    generation = registry_generation()
    if _settings_cache is not None and _settings_cache[0] == generation:
        return _settings_cache[1], _settings_cache[2]
    algorithms = [
        name
        for name in ALGORITHMS.names()
        if not ALGORITHMS.resolve(name).requires_params
    ]
    settings: List[Setting] = []
    for device in DEVICES.names():
        if not DEVICES.resolve(device).accepts_algorithm:
            settings.append(Setting(_device_label(device), device))
            continue
        for algo in algorithms:
            settings.append(Setting(f"SPAMeR({algo})", device, algo))
    by_name: Dict[str, Setting] = {}
    for setting in settings:
        if setting.algorithm is None:
            by_name.setdefault(setting.device, setting)
        elif isinstance(setting.algorithm, str) and setting.device == "spamer":
            by_name.setdefault(setting.algorithm, setting)
    _settings_cache = (generation, settings, by_name)
    return settings, by_name


def setting_names() -> List[Setting]:
    """Every zero-configuration setting the registry can offer.

    One setting per registered device; speculating devices additionally get
    one per registered zero-arg algorithm.  This is the list the CLI and
    the batch runner expose — registering a new device or algorithm extends
    it with no edits here.
    """
    return list(_settings_index()[0])


def _device_label(device: str) -> str:
    return "VL(baseline)" if device == "vl" else f"{device}(baseline)"


def setting_by_name(name: str) -> Setting:
    """Resolve a CLI/batch short-name to a :class:`Setting`.

    A short-name is either a registered non-speculating device name
    (``vl``) or a registered zero-arg algorithm name (``tuned``), which
    implies the ``spamer`` device — matching the four evaluated settings'
    naming.  Unknown names raise listing what is available.
    """
    from repro.errors import ConfigError

    setting = _settings_index()[1].get(name)
    if setting is not None:
        return setting
    raise ConfigError(
        f"unknown setting {name!r}; available settings: {available_setting_names()}"
    )


def available_setting_names() -> List[str]:
    """The short-names :func:`setting_by_name` accepts, in stable order."""
    return list(_settings_index()[1])


@dataclass(frozen=True)
class TunedFactory:
    """Zero-arg :class:`TunedDelay` factory that survives pickling.

    :func:`tuned_setting` used to close over its parameters with a lambda,
    which made Figure-11 sweep settings unpicklable and therefore unusable
    with the multiprocess executor (:mod:`repro.eval.parallel`).  A frozen
    dataclass with ``__call__`` carries the parameters across the process
    boundary and rebuilds the algorithm inside the worker.
    """

    params: TunedParams

    def __call__(self) -> TunedDelay:
        return TunedDelay(self.params)


def tuned_setting(params: TunedParams) -> Setting:
    """A SPAMeR(tuned) setting with explicit parameters (Figure 11 sweep)."""
    return Setting(f"SPAMeR(tuned:{params.label()})", "spamer", TunedFactory(params))


def collect_metrics(system: System, workload: Workload, setting: Setting) -> RunMetrics:
    """Assemble :class:`RunMetrics` from a finished run."""
    stats = system.aggregate_device_stats()
    empty, valid = system.consumer_line_cycles()
    lat = system.latency_stats
    return RunMetrics(
        workload=workload.name,
        setting=setting.label,
        exec_cycles=system.env.now,
        messages_delivered=system.messages_delivered(),
        messages_produced=system.messages_produced(),
        push_attempts=stats.get("push_attempts"),
        push_failures=stats.get("push_failures"),
        ondemand_pushes=stats.get("ondemand_pushes"),
        ondemand_failures=stats.get("ondemand_failures"),
        spec_pushes=stats.get("spec_pushes"),
        spec_failures=stats.get("spec_failures"),
        bus_busy_cycles=system.network.busy_cycles,
        bus_packets=system.network.total_packets,
        request_packets=stats.get("request_arrivals"),
        avg_line_empty=empty,
        avg_line_valid=valid,
        latency_mean=lat.mean,
        latency_p50=lat.percentile(50) if lat.n else 0.0,
        latency_p99=lat.percentile(99) if lat.n else 0.0,
        extra=_with_burst_extras(
            stats,
            _with_request_extras(
                system,
                _with_net_extras(
                    system,
                    {
                        "requests_dropped": stats.get("requests_dropped"),
                        "buffered": stats.get("buffered"),
                        "spec_selected": stats.get("spec_selected"),
                    },
                ),
            ),
        ),
    )


def _with_net_extras(system: System, extra: Dict) -> Dict:
    """Add fabric metrics on NoC topologies (single-bus has no links, so
    bus-model RunMetrics stay byte-identical)."""
    links = system.network.links()
    if links:
        extra["net_links"] = len(links)
        extra["net_wait_cycles"] = system.network.wait_cycles
        extra["net_utilization"] = round(system.network.utilization(), 6)
    return extra


def _with_burst_extras(stats, extra: Dict) -> Dict:
    """Add multi-push burst counters when any burst activity happened
    (single-push runs never claim a burst slot, so their RunMetrics stay
    byte-identical)."""
    if stats.get("burst_claims") or stats.get("spec_rollbacks"):
        extra["burst_claims"] = stats.get("burst_claims")
        extra["burst_confirms"] = stats.get("burst_confirms")
        extra["spec_rollbacks"] = stats.get("spec_rollbacks")
        extra["rollback_invalidations"] = stats.get("rollback_invalidations")
    return extra


def _with_request_extras(system: System, extra: Dict) -> Dict:
    """Add open-system sojourn metrics when a request log is active
    (closed-batch runs never activate one, so their RunMetrics stay
    byte-identical)."""
    log = system.requests
    if log.active:
        extra["request_count"] = log.completed
        extra["request_opened"] = log.opened
        extra["request_mean"] = round(log.sojourn_stats.mean, 6)
        extra["request_p50"] = log.percentile(50)
        extra["request_p99"] = log.percentile(99)
        extra["request_p999"] = log.percentile(99.9)
    return extra


def run_workload(
    workload_name: str,
    setting: Setting,
    scale: float = 1.0,
    config: Optional[SystemConfig] = None,
    seed: int = 0xC0FFEE,
    limit: int = DEFAULT_CYCLE_LIMIT,
    validate: bool = True,
    on_system: Optional[Callable[[System], None]] = None,
    verify: bool = False,
    return_system: bool = False,
    arrival=None,
):
    """Run one (workload, setting) pair end to end and return its metrics.

    *on_system* is called with the freshly built :class:`System` before the
    run starts — the hook point for attaching instrumentation without
    threading subscriber objects through every caller.  The Figure 7
    trace experiment is such a run: it subscribes to
    :class:`~repro.sim.hooks.TraceHook` here.  For per-stage transaction
    latencies use ``repro obs <workload> --setting S --summary``, whose
    collector records the ``txn.stage.<edge>`` histograms.

    ``verify=True`` attaches the live invariant checker
    (:mod:`repro.verify.invariants`) and raises
    :class:`~repro.errors.VerificationError` on any semantic violation.
    Every run additionally gets the stall watchdog: a silent deadlock
    (e.g. the ``never`` ablation on fetch-skipping consumers) aborts with
    a diagnostic :class:`~repro.errors.SimDeadlockError` instead of
    spinning until the cycle limit.

    ``return_system=True`` returns ``(metrics, system)`` so callers can
    inspect device state post-run.  Otherwise the finished system is closed
    (:meth:`~repro.system.System.close`) before the call returns, so it is
    freed by reference counting.  A run that raises anything (a stall,
    the cycle limit, a model process's own exception) closes its system
    either way before the error propagates: once the caller drops the
    error, the system goes with it.

    *arrival* selects the open-system arrival process (None = closed
    batch, the historical behaviour); see :mod:`repro.workloads.arrival`.
    """
    from repro.verify.invariants import StallWatchdog

    if verify:
        config = (config or SystemConfig()).with_overrides(verify=True)
    workload = make_workload(workload_name, scale=scale, arrival=arrival)
    system = setting.build_system(config=config, seed=seed)
    if on_system is not None:
        on_system(system)
    workload.build(system)
    if not system.env.has_watchdog:
        StallWatchdog(system).install()
    try:
        system.run_to_completion(limit=limit)
    except BaseException as exc:
        system.close()
        # A typed stall diagnostic passes through unwrapped so callers can
        # read .tick and .blocked; so does a model process's own error.
        if isinstance(exc, SimulationError) and not isinstance(
            exc, SimDeadlockError
        ):
            raise SimulationError(
                f"{workload_name} under {setting.label} did not complete: {exc}"
            ) from exc
        raise
    if validate:
        workload.validate()
    if system.verifier is not None:
        system.verifier.quiesce()
    metrics = collect_metrics(system, workload, setting)
    if return_system:
        return metrics, system
    system.close()
    return metrics
