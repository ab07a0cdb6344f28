"""Bidirectional ring NoC.

One node per core, joined into a cycle by two directed links per adjacent
pair (clockwise ``ring.cw[i]``: i → i+1, counter-clockwise ``ring.ccw[i]``:
i → i−1, indices mod n).  Packets take the shorter arc; an exact tie goes
clockwise, keeping routing deterministic.  Mean distance grows linearly
with core count — the ring is the topology where NoC distance hurts
soonest, which makes it the stress case for speculative push at scale.
SRD shards sit at evenly-spaced nodes.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.net.topology import Link, Topology
from repro.registry import TOPOLOGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


@TOPOLOGIES.register("ring")
class RingTopology(Topology):
    """n-node cycle; shortest direction, clockwise on ties."""

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        super().__init__(env, config, hooks=hooks)
        self.n = config.num_cores
        self._cw: List[Link] = []
        self._ccw: List[Link] = []
        if self.n > 1:
            for i in range(self.n):
                self._cw.append(self._add_link(f"ring.cw[{i}]"))
            for i in range(self.n):
                self._ccw.append(self._add_link(f"ring.ccw[{i}]"))

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return self.n

    def core_node(self, core_id: int) -> int:
        return core_id

    def srd_node(self, srd_index: int) -> int:
        srds = self.config.num_srds
        return (srd_index * self.n) // srds

    # ----------------------------------------------------------------- routing
    def _compute_route(self, src: int, dst: int) -> List[Link]:
        if src == dst or self.n < 2:
            return []
        forward = (dst - src) % self.n
        backward = (src - dst) % self.n
        links: List[Link] = []
        if forward <= backward:  # ties go clockwise
            node = src
            for _ in range(forward):
                links.append(self._cw[node])
                node = (node + 1) % self.n
        else:
            node = src
            for _ in range(backward):
                links.append(self._ccw[node])
                node = (node - 1) % self.n
        return links
