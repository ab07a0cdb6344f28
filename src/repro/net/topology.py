"""Interconnect topology abstraction: placement, routing, per-link contention.

The paper evaluates SPAMeR on 16 cores sharing one hierarchical coherence
network, which :mod:`repro.mem.bus` collapses into a FIFO server.  That
model has no notion of *distance*: a stash to the adjacent tile and a stash
across the die cost the same.  This module opens that axis.  A
:class:`Topology` places cores and routing devices (SRDs) on nodes, routes
each packet hop-by-hop through directed :class:`Link` s — every hop pays
serialization (``bus_occupancy``) on a *contended* per-link server plus
propagation (``link_latency``) — and reports per-link utilization and
backpressure.

Topologies resolve by name through :data:`repro.registry.TOPOLOGIES`,
like devices and algorithms: a new fabric is one decorated class::

    from repro.net.topology import Topology
    from repro.registry import TOPOLOGIES

    @TOPOLOGIES.register("torus")
    class TorusTopology(Topology):
        ...

    SystemConfig(topology="torus")          # just works

``single-bus`` (:mod:`repro.net.singlebus`) reproduces the historical
bus arithmetic exactly and stays the default, so every golden metric and
trace fixture is bit-identical to the pre-topology model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.hooks import LinkHook
from repro.sim.resources import FifoServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


class Link:
    """One directed interconnect link: a contended server plus a wire.

    A packet *traverses* the link by serializing onto it (the shared
    :class:`~repro.sim.resources.FifoServer`, ``bus_occupancy`` cycles per
    packet, back-to-back packets queue) and then propagating for
    ``latency`` cycles (:meth:`Topology._enter`).  ``wait_cycles``
    accumulates the backpressure a traversal experienced before its
    serialization could start — the per-link congestion signal the
    scaling study reports.
    """

    __slots__ = ("env", "name", "server", "latency", "wait_cycles")

    def __init__(
        self, env: "Environment", name: str, occupancy: int, latency: int
    ) -> None:
        self.env = env
        self.name = name
        self.server = FifoServer(env, occupancy, name=name)
        self.latency = int(latency)
        self.wait_cycles = 0

    @property
    def busy_cycles(self) -> int:
        return self.server.busy_cycles

    @property
    def packets(self) -> int:
        return self.server.packets_served

    def utilization(self, elapsed: Optional[int] = None) -> float:
        return self.server.utilization(elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} busy={self.busy_cycles} wait={self.wait_cycles}>"


class Topology:
    """Base class: node placement, hop-by-hop routing, link accounting.

    Subclasses define the node set and the route; the base class owns the
    store-and-forward traversal (each hop's serialization is reserved only
    when the packet *arrives* at that hop, so contention composes along
    the path) and the :class:`~repro.sim.hooks.LinkHook` instrumentation.
    """

    #: Registry name (set by ``TOPOLOGIES.register``).
    name = "abstract"

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.hooks = hooks
        self._links: List[Link] = []
        self._route_cache: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        #: Link traversals so far.  Every link serializes a packet for
        #: ``bus_occupancy`` cycles, so this one count gives the fabric's
        #: busy time without a walk over the links.
        self.packets_served = 0

    # -------------------------------------------------------------- link setup
    def _add_link(self, name: str) -> Link:
        link = Link(
            self.env, name, self.config.bus_occupancy, self.config.link_latency
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
    def route(self, src: int, dst: int) -> Sequence[Link]:
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

    def _compute_route(self, src: int, dst: int) -> Sequence[Link]:
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def response_latency(self, src: int, dst: int) -> int:
        """Response-channel delay (latency only, no occupancy): responses
        ride dedicated wires but still cover the same distance."""
        return max(1, self.hops(src, dst)) * self.config.link_latency

    # ------------------------------------------------------------------ transit
    def transit_then(
        self, kind: str, src: int, dst: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Move one packet from *src* to *dst*; ``fn(arg)`` runs at delivery.

        Store-and-forward: the packet serializes onto link *i+1* only once
        it has fully arrived over link *i*, so a congested middle hop
        delays exactly the packets routed through it.  A multi-hop packet
        is one :class:`_Transit` record that :func:`_next_hop` walks
        along the route.  Its delivery is a zero-delay call queued after
        the last hop, so it runs behind the work already due in that
        cycle (``tests/test_transit_differential.py`` pins this order).
        """
        links = self.route(src, dst)
        if not links:
            # Same-node delivery: no fabric crossed, but the line still
            # serializes through the local port.
            self.env.call_later(self.config.bus_occupancy, fn, arg)
        elif len(links) == 1:
            self._enter(links[0], kind, src, dst, fn, arg)
        else:
            transit = _Transit(self, links, kind, src, dst, fn, arg)
            self._enter(links[0], kind, src, dst, _next_hop, transit)

    def _enter(
        self,
        link: Link,
        kind: str,
        src: int,
        dst: int,
        fn: Callable[[Any], None],
        arg: Any,
    ) -> None:
        """Serialize one packet onto *link*; ``fn(arg)`` runs at its far end."""
        server = link.server
        wait = server._free_at - self.env._now
        if wait > 0:
            link.wait_cycles += wait
        server.serve_then(link.latency, fn, arg)
        self.packets_served += 1
        hooks = self.hooks
        if hooks is not None and LinkHook in hooks.wanted:
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

    # ------------------------------------------------------------------ metrics
    def links(self) -> List[Link]:
        """Every directed link, in construction order (deterministic)."""
        return list(self._links)

    @property
    def busy_cycles(self) -> int:
        return self.packets_served * self.config.bus_occupancy

    @property
    def wait_cycles(self) -> int:
        """Total backpressure cycles packets spent queued at links."""
        return sum(link.wait_cycles for link in self._links)

    def utilization(self, elapsed: int = 0) -> float:
        """Mean busy fraction across all links over *elapsed* cycles."""
        window = elapsed or self.env._now
        if window <= 0 or not self._links:
            return 0.0
        return min(1.0, self.busy_cycles / (window * len(self._links)))

    def link_report(self, elapsed: int = 0) -> List[Dict]:
        """Per-link utilization/backpressure rows, construction order."""
        window = elapsed or self.env._now
        return [
            {
                "link": link.name,
                "packets": link.packets,
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
        links: Sequence[Link],
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
