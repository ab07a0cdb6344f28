"""2-D mesh NoC with dimension-order (XY) routing.

Cores tile a ``rows × cols`` grid (node ``r * cols + c``); each pair of
adjacent routers is joined by two directed links (one per direction), so
east- and west-bound traffic never contend with each other.  Packets route
X-first (along the row to the destination column) then Y (along the
column), which is deadlock-free and deterministic.  SRD shards are placed
at evenly-spaced interior nodes so the mean core→SRD distance stays flat
as shard count grows.

Geometry comes from ``SystemConfig.mesh_dims`` or, when unset, the
most-square factorization of the core count (16 → 4×4, 32 → 4×8,
64 → 8×8; see :func:`repro.net.topology.derive_mesh_dims`).
"""

from __future__ import annotations

from typing import List

from repro.net.topology import Topology, derive_mesh_dims
from repro.registry import TOPOLOGIES
from repro.sim.resources import FifoServer


@TOPOLOGIES.register("mesh")
class MeshTopology(Topology):
    """rows × cols grid of routers, one core per node, XY routing."""

    def _build(self) -> None:
        config = self.config
        self.rows, self.cols = config.mesh_dims or derive_mesh_dims(config.num_cores)
        # Directed links keyed (src_node, dst_node), created in row-major
        # scan order so links() enumeration is deterministic.
        self._link_for = {}
        for r in range(self.rows):
            for c in range(self.cols):
                node = r * self.cols + c
                if c + 1 < self.cols:
                    east = node + 1
                    self._connect(node, east, f"mesh.e[{r},{c}]")
                    self._connect(east, node, f"mesh.w[{r},{c + 1}]")
                if r + 1 < self.rows:
                    south = node + self.cols
                    self._connect(node, south, f"mesh.s[{r},{c}]")
                    self._connect(south, node, f"mesh.n[{r + 1},{c}]")

    def _connect(self, src: int, dst: int, name: str) -> None:
        self._link_for[(src, dst)] = self._add_link(name)

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def core_node(self, core_id: int) -> int:
        return core_id

    def srd_node(self, srd_index: int) -> int:
        # Evenly spaced along the row-major scan, offset to interior
        # positions: shard s of k sits at the ((2s+1)/2k)-quantile node.
        srds = self.config.num_srds
        return ((2 * srd_index + 1) * self.num_nodes) // (2 * srds)

    # ----------------------------------------------------------------- routing
    def _compute_route(self, src: int, dst: int) -> List[FifoServer]:
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        links: List[FifoServer] = []
        node = src
        # X first: walk the row to the destination column...
        while sc != dc:
            step = 1 if dc > sc else -1
            nxt = node + step
            links.append(self._link_for[(node, nxt)])
            node, sc = nxt, sc + step
        # ...then Y: walk the column to the destination row.
        while sr != dr:
            step = 1 if dr > sr else -1
            nxt = node + step * self.cols
            links.append(self._link_for[(node, nxt)])
            node, sr = nxt, sr + step
        return links
