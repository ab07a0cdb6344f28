"""The coherence-network model shared by cores and the routing device.

Both Virtual-Link and SPAMeR reuse the existing hierarchical coherence
network rather than a dedicated queue network (Section 2), so every queue
packet — consumer *request* (vl_fetch), producer *data* (vl_push) and
routing-device *stash* — competes for the same interconnect.

The *fabric* underneath is pluggable (:mod:`repro.net`): the default
``single-bus`` topology is a single FIFO server — each packet serializes
onto the network for :attr:`SystemConfig.bus_occupancy` cycles and then
propagates for :attr:`SystemConfig.bus_latency` cycles, and utilization —
the fraction of cycles with a packet occupying the network — is exactly the
metric the paper reports in Figure 10b.  ``mesh``/``ring``/``crossbar``
topologies instead route each packet hop-by-hop through per-link servers,
so source/destination placement matters; callers pass ``src``/``dst`` node
ids read from :attr:`CoherenceNetwork.core_nodes` /
:attr:`CoherenceNetwork.srd_nodes`.

A transit allocates no event.  The caller passes a continuation — a
bound method and its one argument — and the network queues it with
``Environment.call_later`` for the delivery cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.registry import TOPOLOGIES
from repro.sim.hooks import BusHook
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


class PacketKind(Enum):
    """Packet classes that occupy the coherence network."""

    REQUEST = "request"       # consumer vl_fetch  (core -> routing device)
    PUSH_DATA = "push_data"   # producer vl_push   (core -> routing device)
    STASH = "stash"           # data delivery      (routing device -> core)
    REGISTER = "register"     # spamer_register    (core -> routing device)
    COHERENCE = "coherence"   # MOESI snoop/data traffic (software baseline)


class CoherenceNetwork:
    """Shared interconnect with occupancy accounting.

    ``transit_then(kind, fn, arg)`` calls ``fn(arg)`` once the packet has
    been delivered at the far end (serialization + propagation); no event
    is allocated, so a caller hands over a bound method and its one
    argument, and a process parks (:data:`~repro.sim.process.PARK`) with
    ``Process._resume`` as the continuation.  Hit/miss *response signals*
    (``response_then``) ride the dedicated response channel and are
    modelled as pure latency (no occupancy), matching the paper's
    utilization metric which counts request/data packets only.
    """

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        self.env = env
        self.config = config
        #: Instrumentation bus; occupancy events are published per accepted
        #: packet when somebody subscribed to ``BusHook`` (None = silent).
        self.hooks = hooks
        #: The fabric model (:mod:`repro.net`): ``single-bus`` is one FIFO
        #: server; NoC topologies route hop-by-hop through per-link servers.
        self.topology = TOPOLOGIES.resolve(config.topology)(
            env, config, hooks=hooks
        )
        self.counters = Counter()
        #: Node ids by core id and by SRD shard index: placement is
        #: static, so it is read once here and the packet path indexes a
        #: tuple instead of calling into the topology.
        self.core_nodes = tuple(
            self.topology.core_node(core) for core in range(config.num_cores)
        )
        self.srd_nodes = tuple(
            self.topology.srd_node(index)
            for index in range(config.num_srds)
        )

    def transit_then(
        self,
        kind: PacketKind,
        fn: Callable[[Any], None],
        arg: Any,
        src: int = 0,
        dst: int = 0,
    ) -> None:
        """Send one packet from node *src* to node *dst*; ``fn(arg)`` runs
        at delivery.

        On the ``single-bus`` topology *src*/*dst* are ignored (every pair
        is equidistant).
        """
        key = kind._value_
        counts = self.counters.counts
        counts[key] += 1
        counts["total_packets"] += 1
        self.topology.transit_then(key, src, dst, fn, arg)
        hooks = self.hooks
        if hooks is not None and BusHook in hooks.wanted:
            hooks.publish(
                BusHook(
                    tick=self.env._now,
                    kind=key,
                    busy_cycles=self.busy_cycles,
                )
            )

    def response_then(
        self, src: int, dst: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Send a hit/miss response signal (latency only, no occupancy);
        ``fn(arg)`` runs when it arrives.

        Responses ride dedicated wires but still cover the src→dst
        distance; on ``single-bus`` that is the flat ``bus_latency``.
        """
        self.counters.counts["responses"] += 1
        self.env.call_later(self.topology.response_latency(src, dst), fn, arg)

    # -- metrics -----------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        return self.topology.busy_cycles

    @property
    def wait_cycles(self) -> int:
        """Backpressure cycles packets spent queued at NoC links (0 on
        the shared bus, which folds queueing into busy time)."""
        return self.topology.wait_cycles

    def links(self):
        """Per-link objects on NoC topologies; ``[]`` on ``single-bus``."""
        return self.topology.links()

    def link_report(self, elapsed: int = 0):
        """Per-link utilization/backpressure rows (empty on single-bus)."""
        return self.topology.link_report(elapsed)

    def utilization(self, elapsed: int = 0) -> float:
        """Busy fraction over *elapsed* cycles across the bus or all links
        (default window: current sim time)."""
        return self.topology.utilization(elapsed)

    def packets(self, kind: PacketKind) -> int:
        return self.counters.get(kind.value)

    @property
    def total_packets(self) -> int:
        return self.counters.get("total_packets")
