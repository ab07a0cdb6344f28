"""The historical shared-bus model, expressed as a topology.

This is *exactly* the arithmetic :class:`~repro.mem.bus.CoherenceNetwork`
used before the topology layer existed: one FIFO server on which each
packet serializes for ``bus_occupancy`` cycles and then propagates for
``bus_latency``.  Distance is invisible — every (src, dst) pair costs the
same — which is the Table 1 16-core configuration's model and the
default, so golden metrics and trace fixtures stay bit-identical.  A
fabric with independent links is ``crossbar``, ``mesh`` or ``torus``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.net.topology import Topology
from repro.registry import TOPOLOGIES
from repro.sim.resources import FifoServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


@TOPOLOGIES.register("single-bus")
class SingleBusTopology(Topology):
    """One logical node: every agent hangs off the same shared medium."""

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        super().__init__(env, config, hooks=hooks)
        self.server = FifoServer(env, config.bus_occupancy, name="coherence-network")
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
        # The pre-topology CoherenceNetwork arithmetic: occupancy then
        # propagation.  The queue entry count and order are part of the
        # bit-identity contract.
        self.server.serve_then(self.latency, fn, arg)

    # ------------------------------------------------------------------ metrics
    def links(self) -> List:
        # The bus is not a spatial link; per-link reporting stays empty so
        # obs gauges/tracks only appear for real NoC topologies.
        return []

    @property
    def busy_cycles(self) -> int:
        return self.server.busy_cycles

    @property
    def wait_cycles(self) -> int:
        return 0

    def utilization(self, elapsed: int = 0) -> float:
        return self.server.utilization(elapsed or None)
