"""The coherence network: placement, routing, contention, packet accounting.

Both Virtual-Link and SPAMeR reuse the existing hierarchical coherence
network rather than a dedicated queue network (Section 2), so every queue
packet — consumer *request* (vl_fetch), producer *data* (vl_push) and
routing-device *stash* — competes for the same interconnect.  A
:class:`Topology` *is* that network: ``System.network`` is the registered
fabric itself.  It places cores and routing devices (SRDs) on nodes,
counts the packets it accepts per :class:`PacketKind`, and routes each one
hop-by-hop through directed links.  A link is a
:class:`~repro.sim.resources.FifoServer`: every hop pays serialization
(``bus_occupancy``) on the contended server plus propagation
(``link_latency``), and the fabric reports per-link utilization and
backpressure.

Topologies resolve by name through :data:`repro.registry.TOPOLOGIES`,
like devices and algorithms: a new fabric is one decorated class::

    from repro.net.topology import Topology
    from repro.registry import TOPOLOGIES

    @TOPOLOGIES.register("torus")
    class TorusTopology(Topology):
        ...

    SystemConfig(topology="torus")          # just works

``single-bus`` (:mod:`repro.net.singlebus`) is one FIFO server for the
whole machine and stays the default; its utilization is exactly the
metric the paper reports in Figure 10b.

A transit allocates no event.  The caller passes a continuation — a
bound method and its one argument — and the network queues it with
``Environment.call_later`` for the delivery cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.hooks import BusHook, HookBus, LinkHook
from repro.sim.resources import FifoServer
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.kernel import Environment


class PacketKind(Enum):
    """Packet classes that occupy the coherence network."""

    REQUEST = "request"       # consumer vl_fetch  (core -> routing device)
    PUSH_DATA = "push_data"   # producer vl_push   (core -> routing device)
    STASH = "stash"           # data delivery      (routing device -> core)
    COHERENCE = "coherence"   # MOESI snoop/data traffic (software baseline)


class Topology:
    """Base class: node placement, hop-by-hop routing, packet accounting.

    Subclasses lay out the nodes and links (:meth:`_build`) and define the
    route; the base class owns the store-and-forward traversal (each hop's
    serialization is reserved only when the packet *arrives* at that hop,
    so contention composes along the path), the per-kind packet counters
    and the :class:`~repro.sim.hooks.BusHook` /
    :class:`~repro.sim.hooks.LinkHook` instrumentation.

    ``transit_then(kind, fn, arg, src, dst)`` calls ``fn(arg)`` once the
    packet has been delivered at node *dst*; a process parks
    (:data:`~repro.sim.process.PARK`) with ``Process._resume`` as the
    continuation.  Hit/miss *response signals* (``response_then``) ride
    the dedicated response channel and are modelled as pure latency (no
    occupancy), matching the paper's utilization metric, which counts
    request/data packets only.
    """

    #: Registry name (set by ``TOPOLOGIES.register``).
    name = "abstract"

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.env = env
        self.config = config
        #: Instrumentation bus; a publish happens only while somebody
        #: subscribed to its event type (``X in hooks.wanted``).
        self.hooks = hooks if hooks is not None else HookBus()
        #: Accepted packets per kind, plus ``total_packets`` and
        #: ``responses``.
        self.counters = Counter()
        self._links: List[FifoServer] = []
        self._route_cache: Dict[Tuple[int, int], Tuple[FifoServer, ...]] = {}
        #: Link traversals so far.  Every link serializes a packet for
        #: ``bus_occupancy`` cycles, so this one count gives the fabric's
        #: busy time without a walk over the links.
        self.packets_served = 0
        self._build()
        #: Node ids by core id and by SRD shard index: placement is
        #: static, so it is read once here and the packet path indexes a
        #: tuple instead of calling :meth:`core_node`/:meth:`srd_node`.
        self.core_nodes = tuple(
            self.core_node(core) for core in range(config.num_cores)
        )
        self.srd_nodes = tuple(
            self.srd_node(index) for index in range(config.num_srds)
        )

    # -------------------------------------------------------------- link setup
    def _build(self) -> None:
        """Lay out the fabric's geometry and links (called once by
        ``__init__``, before node placement is read)."""

    def _add_link(self, name: str) -> FifoServer:
        link = FifoServer(
            self.env, self.config.bus_occupancy, name=name,
            latency=self.config.link_latency,
        )
        self._links.append(link)
        return link

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    def core_node(self, core_id: int) -> int:
        """The node a core's cache controller sits on."""
        raise NotImplementedError

    def srd_node(self, srd_index: int) -> int:
        """The node a routing-device shard sits on."""
        raise NotImplementedError

    # ----------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> Sequence[FifoServer]:
        """The directed links a packet crosses from *src* to *dst*.

        Routes are static (deterministic oblivious routing), so they are
        memoized; subclasses implement :meth:`_compute_route`.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = tuple(self._compute_route(src, dst))
            self._route_cache[key] = cached
        return cached

    def _compute_route(self, src: int, dst: int) -> Sequence[FifoServer]:
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def response_latency(self, src: int, dst: int) -> int:
        """Response-channel delay (latency only, no occupancy): responses
        ride dedicated wires but still cover the same distance."""
        return max(1, self.hops(src, dst)) * self.config.link_latency

    # ------------------------------------------------------------------ transit
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

        Store-and-forward: the packet serializes onto link *i+1* only once
        it has fully arrived over link *i*, so a congested middle hop
        delays exactly the packets routed through it.  A multi-hop packet
        is one :class:`_Transit` record that :func:`_next_hop` walks
        along the route.  Its delivery is a zero-delay call queued after
        the last hop, so it runs behind the work already due in that
        cycle (``tests/test_transit_differential.py`` pins this order).
        """
        key = kind._value_
        counts = self.counters.counts
        counts[key] += 1
        counts["total_packets"] += 1
        links = self.route(src, dst)
        if not links:
            # Same-node delivery: no fabric crossed, but the line still
            # serializes through the local port.
            self.env.call_later(self.config.bus_occupancy, fn, arg)
        elif len(links) == 1:
            self._enter(links[0], key, src, dst, fn, arg)
        else:
            transit = _Transit(self, links, key, src, dst, fn, arg)
            self._enter(links[0], key, src, dst, _next_hop, transit)
        if BusHook in self.hooks.wanted:
            self._publish_bus(key)

    def _publish_bus(self, key: str) -> None:
        """Publish the :class:`~repro.sim.hooks.BusHook` of one accepted
        packet (callers test ``BusHook in hooks.wanted`` first)."""
        self.hooks.publish(
            BusHook(tick=self.env._now, kind=key, busy_cycles=self.busy_cycles)
        )

    def _enter(
        self,
        link: FifoServer,
        kind: str,
        src: int,
        dst: int,
        fn: Callable[[Any], None],
        arg: Any,
    ) -> None:
        """Serialize one packet onto *link*; ``fn(arg)`` runs at its far end."""
        wait = link._free_at - self.env._now
        if wait > 0:
            link.wait_cycles += wait
        link.serve_then(fn, arg)
        self.packets_served += 1
        hooks = self.hooks
        if LinkHook in hooks.wanted:
            hooks.publish(
                LinkHook(
                    tick=self.env._now,
                    link=link.name,
                    kind=kind,
                    src=src,
                    dst=dst,
                    busy_cycles=link.busy_cycles,
                    wait_cycles=link.wait_cycles,
                )
            )

    def response_then(
        self, src: int, dst: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Send a hit/miss response signal (latency only, no occupancy);
        ``fn(arg)`` runs when it arrives."""
        self.counters.counts["responses"] += 1
        self.env.call_later(self.response_latency(src, dst), fn, arg)

    # ------------------------------------------------------------------ metrics
    def links(self) -> List[FifoServer]:
        """Every directed link, in construction order (deterministic)."""
        return list(self._links)

    @property
    def total_packets(self) -> int:
        return self.counters.get("total_packets")

    @property
    def busy_cycles(self) -> int:
        return self.packets_served * self.config.bus_occupancy

    @property
    def wait_cycles(self) -> int:
        """Total backpressure cycles packets spent queued at links."""
        return sum(link.wait_cycles for link in self._links)

    def utilization(self, elapsed: int = 0) -> float:
        """Mean busy fraction across the links (the bus, on ``single-bus``)
        over *elapsed* cycles (default window: current sim time)."""
        window = elapsed or self.env._now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (window * max(1, len(self._links))))

    def link_report(self, elapsed: int = 0) -> List[Dict]:
        """Per-link utilization/backpressure rows, construction order."""
        window = elapsed or self.env._now
        return [
            {
                "link": link.name,
                "packets": link.packets_served,
                "busy_cycles": link.busy_cycles,
                "wait_cycles": link.wait_cycles,
                "utilization": link.utilization(window) if window > 0 else 0.0,
            }
            for link in self._links
        ]


class _Transit:
    """One multi-hop packet in flight: its route and the hop it is on."""

    __slots__ = ("topology", "links", "hop", "kind", "src", "dst", "fn", "arg")

    def __init__(
        self,
        topology: Topology,
        links: Sequence[FifoServer],
        kind: str,
        src: int,
        dst: int,
        fn: Callable[[Any], None],
        arg: Any,
    ) -> None:
        self.topology = topology
        self.links = links
        self.hop = 0
        self.kind = kind
        self.src = src
        self.dst = dst
        self.fn = fn
        self.arg = arg


def _next_hop(transit: _Transit) -> None:
    """The packet has crossed link ``transit.hop``: enter the next one,
    or deliver after the last."""
    hop = transit.hop + 1
    if hop == len(transit.links):
        transit.topology.env.call_later(0, transit.fn, transit.arg)
        return
    transit.hop = hop
    transit.topology._enter(
        transit.links[hop], transit.kind, transit.src, transit.dst,
        _next_hop, transit,
    )


def derive_mesh_dims(num_cores: int) -> Tuple[int, int]:
    """The default mesh geometry: the most-square factorization of the
    core count (rows ≤ cols).  16 → 4×4, 32 → 4×8, 64 → 8×8; a prime
    count degenerates to 1×n (effectively a line)."""
    n = max(1, num_cores)
    rows = int(n ** 0.5)
    while rows > 1 and n % rows:
        rows -= 1
    return rows, n // rows
