"""The historical shared-bus model, expressed as a topology.

This is *exactly* the arithmetic :class:`~repro.mem.bus.CoherenceNetwork`
used before the topology layer existed: ``bus_channels`` parallel FIFO
servers, each packet picking the earliest-free channel, serializing for
``bus_occupancy`` cycles and propagating for ``bus_latency``.  Distance is
invisible — every (src, dst) pair costs the same — which is the Table 1
16-core configuration's model and the default, so golden metrics and trace
fixtures stay bit-identical.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.net.topology import Topology, register_topology
from repro.sim.resources import FifoServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


@register_topology("single-bus", description="shared bus; distance-free (default)")
class SingleBusTopology(Topology):
    """One logical node: every agent hangs off the same shared medium."""

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        super().__init__(env, config, hooks=hooks)
        self.channels = [
            FifoServer(env, config.bus_occupancy, name=f"coherence-network[{i}]")
            for i in range(config.bus_channels)
        ]
        self.latency = config.bus_latency

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return 1

    def core_node(self, core_id: int) -> int:
        return 0

    def srd_node(self, srd_index: int) -> int:
        return 0

    # ----------------------------------------------------------------- routing
    def _compute_route(self, src: int, dst: int) -> List:
        return []  # no per-link fabric; transit is overridden below

    def hops(self, src: int, dst: int) -> int:
        return 1

    def response_latency(self, src: int, dst: int) -> int:
        return self.latency

    # ------------------------------------------------------------------ transit
    def transit_then(
        self, kind: str, src: int, dst: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        # The pre-topology CoherenceNetwork arithmetic: earliest-free
        # channel (the first on a tie), occupancy then propagation.  The
        # queue entry count and order are part of the bit-identity contract.
        now = self.env._now
        channel = None
        for server in self.channels:
            free_at = server._free_at
            if free_at < now:
                free_at = now
            if channel is None or free_at < best:
                channel, best = server, free_at
        channel.serve_then(self.latency, fn, arg)

    # ------------------------------------------------------------------ metrics
    def links(self) -> List:
        # Channels are not spatial links; per-link reporting stays empty so
        # obs gauges/tracks only appear for real NoC topologies.
        return []

    @property
    def busy_cycles(self) -> int:
        return sum(channel.busy_cycles for channel in self.channels)

    @property
    def wait_cycles(self) -> int:
        return 0

    def utilization(self, elapsed: int = 0) -> float:
        window = elapsed or self.env.now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (window * len(self.channels)))
