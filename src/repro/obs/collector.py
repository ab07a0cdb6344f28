"""HookBus → MetricsRegistry bridge.

A :class:`MetricsCollector` subscribes to every instrumentation event the
simulator publishes and folds each into the registry's counters and
windowed histograms — transaction stage durations, specBuf hit/miss,
per-algorithm push-delay decisions, cacheline fill/vacate churn, network
occupancy, semantic push/delivery counts.  It is a plain
:class:`~repro.sim.hooks.HookBus` subscriber: attaching one never changes
a run's tick sequence, and with no collector attached the publishers'
``hooks.wanted`` guards keep the hot path free.

:func:`finalize_system` complements the streaming collector with the
run-boundary numbers that need no per-event work at all: kernel event
totals, network busy cycles/utilization, and consumer-line occupancy.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.sim.hooks import (
    BusHook,
    DeliveryHook,
    HookBus,
    LineHook,
    LinkHook,
    PushHook,
    RequestHook,
    SpecBufHook,
    SpecDecisionHook,
    TransactionHook,
)
from repro.sim.transaction import TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


_RETIRED = TxnState.RETIRED


class MetricsCollector:
    """Subscribe a registry to every bus event family.

    Metric names form a stable dotted catalogue (docs/OBSERVABILITY.md):

    ``txn.stage.<edge>``            histogram of per-stage cycles
    ``txn.latency``                 end-to-end latency, once per retired message
    ``txn.retries``                 stash attempts beyond the first, likewise
    ``spec.hits`` / ``spec.misses`` specBuf response outcomes
    ``spec.decision.<algo>``        push-delay histogram per algorithm
    ``spec.retry.<algo>``           sticky-slot retry count per algorithm
    ``spec.refused.<algo>``         retries the algorithm refused
    ``bus.packets.<kind>``          accepted network packets per class
    ``net.traversals.<kind>``       per-packet-class NoC link crossings
    ``line.fill``/``line.vacate``/``line.failed-fill``  cacheline churn
    ``push.messages`` / ``delivery.messages``  semantic send/receive
    ``request.<state>``             open-system lifecycle transition counts
    ``request.sojourn``             per-request response-time histogram

    ``net.*`` names only appear on hop-routed topologies (mesh/ring/
    crossbar) — the single-bus fabric publishes no :class:`LinkHook`, so
    bus-model metric exports are unchanged byte for byte.  Likewise
    ``request.*`` names only appear on open-system runs: a closed-batch
    run never activates the request log, so no :class:`RequestHook` is
    ever published there.
    """

    def __init__(self, bus: HookBus, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._subs = [
            bus.subscribe(TransactionHook, self._on_transaction),
            bus.subscribe(SpecBufHook, self._on_specbuf),
            bus.subscribe(SpecDecisionHook, self._on_decision),
            bus.subscribe(BusHook, self._on_bus),
            bus.subscribe(LinkHook, self._on_link),
            bus.subscribe(LineHook, self._on_line),
            bus.subscribe(PushHook, self._on_push),
            bus.subscribe(DeliveryHook, self._on_delivery),
            bus.subscribe(RequestHook, self._on_request),
        ]
        self._bus = bus

    def detach(self) -> None:
        for sub in self._subs:
            self._bus.unsubscribe(sub)
        self._subs = []

    # -------------------------------------------------------------- handlers
    def _on_transaction(self, event: TransactionHook) -> None:
        reg = self.registry
        record = event.record
        if len(record.stamps) < 2:
            return
        prev, last = record.stamps[-2], record.stamps[-1]
        reg.observe(
            f"txn.stage.{prev.state.value}->{last.state.value}",
            last.tick - prev.tick,
        )
        # Once per message, on its RETIRED stamp: the hit response of the
        # last stash may stamp RESPONDED after it.
        if event.state is _RETIRED and record.kind == "message":
            reg.observe("txn.latency", record.latency)
            extra = record.attempts - 1
            if extra > 0:
                reg.inc("txn.retries", extra)

    def _on_specbuf(self, event: SpecBufHook) -> None:
        self.registry.inc("spec.hits" if event.hit else "spec.misses")

    def _on_decision(self, event: SpecDecisionHook) -> None:
        reg = self.registry
        if event.delay < 0:
            reg.inc(f"spec.refused.{event.algorithm}")
            return
        reg.observe(f"spec.decision.{event.algorithm}", event.delay)
        if event.retry:
            reg.inc(f"spec.retry.{event.algorithm}")

    def _on_bus(self, event: BusHook) -> None:
        self.registry.inc(f"bus.packets.{event.kind}")

    def _on_link(self, event: LinkHook) -> None:
        self.registry.inc(f"net.traversals.{event.kind}")

    def _on_line(self, event: LineHook) -> None:
        self.registry.inc(f"line.{event.transition}")

    def _on_push(self, event: PushHook) -> None:
        self.registry.inc("push.messages")

    def _on_delivery(self, event: DeliveryHook) -> None:
        self.registry.inc("delivery.messages")

    def _on_request(self, event: RequestHook) -> None:
        reg = self.registry
        reg.inc(f"request.{event.state}")
        if event.sojourn is not None:
            reg.observe("request.sojourn", event.sojourn)


def finalize_system(system: "System", registry: MetricsRegistry) -> None:
    """Record the run-boundary gauges that cost nothing during the run.

    Called once after the simulation completes; reads counters the kernel,
    network and library maintain anyway, so the metrics-off overhead of
    these numbers is exactly zero.  There is no pending-queue gauge: a
    completed run ends on its last process exit with nothing queued, so
    it would read 0 on every run that reaches here.
    """
    env = system.env
    registry.gauge_set("kernel.sim_time", float(env.now))
    registry.gauge_set("kernel.events.dispatched", float(env.events_processed))
    registry.gauge_set("kernel.events.scheduled", float(env.events_scheduled))
    registry.gauge_set("bus.busy_cycles", float(system.network.busy_cycles))
    registry.gauge_set(
        "bus.utilization", round(system.network.utilization(), 6)
    )
    for kind, count in sorted(system.network.counters.as_dict().items()):
        registry.gauge_set(f"bus.accepted.{kind}", float(count))
    # Per-link fabric gauges exist only on NoC topologies: the single-bus
    # fabric reports no links, keeping bus-model exports byte-identical.
    links = system.network.links()
    if links:
        registry.gauge_set("net.links", float(len(links)))
        registry.gauge_set(
            "net.wait_cycles", float(system.network.wait_cycles)
        )
        registry.gauge_set(
            "net.utilization", round(system.network.utilization(), 6)
        )
        for row in system.network.link_report():
            name = row["link"]
            registry.gauge_set(f"net.link.{name}.packets", float(row["packets"]))
            registry.gauge_set(
                f"net.link.{name}.busy_cycles", float(row["busy_cycles"])
            )
            registry.gauge_set(
                f"net.link.{name}.wait_cycles", float(row["wait_cycles"])
            )
            registry.gauge_set(
                f"net.link.{name}.utilization", round(row["utilization"], 6)
            )
    # Open-system gauges exist only when a request log was activated: the
    # closed-batch default keeps metric exports byte-identical.
    requests = system.requests
    if requests.active:
        registry.gauge_set("request.opened", float(requests.opened))
        registry.gauge_set("request.completed", float(requests.completed))
        registry.gauge_set("request.in_flight", float(len(requests.in_flight())))
        if requests.completed:
            registry.gauge_set(
                "request.sojourn.mean", round(requests.sojourn_stats.mean, 6)
            )
            registry.gauge_set("request.sojourn.p50", requests.percentile(50))
            registry.gauge_set("request.sojourn.p99", requests.percentile(99))
            registry.gauge_set("request.sojourn.p999", requests.percentile(99.9))
    empty, valid = system.consumer_line_cycles()
    registry.gauge_set("line.avg_empty_cycles", round(empty, 6))
    registry.gauge_set("line.avg_valid_cycles", round(valid, 6))
    registry.gauge_set(
        "library.messages_produced", float(system.messages_produced())
    )
    registry.gauge_set(
        "library.messages_delivered", float(system.messages_delivered())
    )
    for key, value in sorted(system.aggregate_device_stats().as_dict().items()):
        registry.gauge_set(f"device.{key}", float(value))


def attach_collector(
    system: "System", registry: Optional[MetricsRegistry] = None
) -> MetricsCollector:
    """Convenience: wire a collector onto a system's hook bus."""
    return MetricsCollector(system.hooks, registry or MetricsRegistry())
