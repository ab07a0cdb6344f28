"""Full crossbar NoC.

Every agent — ``num_cores`` cores plus ``num_srds`` SRD shards —
gets a private ingress link into the switch and a private egress link out
of it; any packet crosses exactly two links.  There is no path contention
(disjoint src/dst pairs never share a link) but there *is* endpoint
contention: two packets bound for the same destination serialize on its
egress link, and one node's burst serializes on its ingress.  This is the
idealized NoC — distance-flat like the single bus, but with per-endpoint
rather than global serialization — and it brackets mesh/ring from above
in the scaling study.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.net.topology import Link, Topology
from repro.registry import TOPOLOGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


@TOPOLOGIES.register("crossbar")
class CrossbarTopology(Topology):
    """Cores on nodes 0..n-1, SRD shards on nodes n..n+k-1, 2-hop routes."""

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        super().__init__(env, config, hooks=hooks)
        self._num_cores = config.num_cores
        self._num_srds = config.num_srds
        total = self._num_cores + self._num_srds
        self._ingress: List[Link] = [
            self._add_link(f"xbar.in[{self._node_label(i)}]") for i in range(total)
        ]
        self._egress: List[Link] = [
            self._add_link(f"xbar.out[{self._node_label(i)}]") for i in range(total)
        ]

    def _node_label(self, node: int) -> str:
        if node < self._num_cores:
            return f"core{node}"
        return f"srd{node - self._num_cores}"

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return self._num_cores + self._num_srds

    def core_node(self, core_id: int) -> int:
        return core_id

    def srd_node(self, srd_index: int) -> int:
        return self._num_cores + srd_index

    # ----------------------------------------------------------------- routing
    def _compute_route(self, src: int, dst: int) -> List[Link]:
        if src == dst:
            return []
        return [self._ingress[src], self._egress[dst]]
