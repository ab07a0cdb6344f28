"""The shared-bus model: the whole coherence network as one FIFO server.

Each packet serializes onto the bus for ``bus_occupancy`` cycles and then
propagates for ``bus_latency``.  Distance is invisible — every (src, dst)
pair costs the same — which is the Table 1 16-core configuration's model
and the default, so golden metrics and trace fixtures stay bit-identical.
A fabric with independent links is ``crossbar``, ``mesh`` or ``torus``.
The bus is not a spatial link: :meth:`~repro.net.topology.Topology.links`
is empty, no :class:`~repro.sim.hooks.LinkHook` is published and
``wait_cycles`` reads 0 (queueing is folded into busy time).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.topology import PacketKind, Topology
from repro.registry import TOPOLOGIES
from repro.sim.hooks import BusHook
from repro.sim.resources import FifoServer


@TOPOLOGIES.register("single-bus")
class SingleBusTopology(Topology):
    """One logical node: every agent hangs off the same shared medium."""

    def _build(self) -> None:
        self.server = FifoServer(
            self.env, self.config.bus_occupancy, name="coherence-network",
            latency=self.config.bus_latency,
        )

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return 1

    def core_node(self, core_id: int) -> int:
        return 0

    def srd_node(self, srd_index: int) -> int:
        return 0

    def response_latency(self, src: int, dst: int) -> int:
        return self.server.latency

    # ------------------------------------------------------------------ transit
    def transit_then(
        self,
        kind: PacketKind,
        fn: Callable[[Any], None],
        arg: Any,
        src: int = 0,
        dst: int = 0,
    ) -> None:
        # Occupancy then propagation on the one server; *src*/*dst* are
        # ignored.  The queue entry count and order are part of the
        # bit-identity contract.
        key = kind._value_
        counts = self.counters.counts
        counts[key] += 1
        counts["total_packets"] += 1
        self.server.serve_then(fn, arg)
        if BusHook in self.hooks.wanted:
            self._publish_bus(key)

    @property
    def busy_cycles(self) -> int:
        return self.server.busy_cycles
