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

from typing import List

from repro.net.topology import Topology
from repro.registry import TOPOLOGIES
from repro.sim.resources import FifoServer


@TOPOLOGIES.register("ring")
class RingTopology(Topology):
    """n-node cycle; shortest direction, clockwise on ties."""

    def _build(self) -> None:
        self.n = self.config.num_cores
        self._cw: List[FifoServer] = []
        self._ccw: List[FifoServer] = []
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
    def _compute_route(self, src: int, dst: int) -> List[FifoServer]:
        if src == dst or self.n < 2:
            return []
        forward = (dst - src) % self.n
        backward = (src - dst) % self.n
        links: List[FifoServer] = []
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
