"""2-D torus NoC: a mesh plus wraparound links, dimension-order routing.

Same grid as :mod:`repro.net.mesh`, but each row and column closes into a
ring: the last router in a dimension links back to the first.  Routing is
still dimension-ordered (X then Y) but walks each dimension in whichever
direction is shorter around its ring, halving the worst-case hop count —
the diameter drops from ``(rows-1) + (cols-1)`` to
``rows//2 + cols//2``.  Ties (exactly half way around an even ring) break
toward the positive direction (east/south) so routes stay deterministic.

Wraparound links are only created when a dimension has more than two
routers — on a 2-wide dimension the "wrap" edge would duplicate the
existing neighbor link, and on a 1-wide dimension it would be a self-loop.
"""

from __future__ import annotations

from typing import List

from repro.net.topology import Topology, derive_mesh_dims
from repro.registry import TOPOLOGIES
from repro.sim.resources import FifoServer


@TOPOLOGIES.register("torus")
class TorusTopology(Topology):
    """rows × cols grid with wraparound rows/columns, one core per node."""

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
                    self._connect(node, east, f"torus.e[{r},{c}]")
                    self._connect(east, node, f"torus.w[{r},{c + 1}]")
                if r + 1 < self.rows:
                    south = node + self.cols
                    self._connect(node, south, f"torus.s[{r},{c}]")
                    self._connect(south, node, f"torus.n[{r + 1},{c}]")
        # Wraparound edges, one pair per ring with > 2 routers.
        if self.cols > 2:
            for r in range(self.rows):
                first = r * self.cols
                last = first + self.cols - 1
                self._connect(last, first, f"torus.we[{r}]")
                self._connect(first, last, f"torus.ww[{r}]")
        if self.rows > 2:
            for c in range(self.cols):
                first = c
                last = (self.rows - 1) * self.cols + c
                self._connect(last, first, f"torus.ws[{c}]")
                self._connect(first, last, f"torus.wn[{c}]")

    def _connect(self, src: int, dst: int, name: str) -> None:
        self._link_for[(src, dst)] = self._add_link(name)

    # --------------------------------------------------------------- placement
    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def core_node(self, core_id: int) -> int:
        return core_id

    def srd_node(self, srd_index: int) -> int:
        # Same quantile placement as the mesh; on a torus every node is
        # "interior", but keeping the placement identical isolates the
        # wraparound links as the only mesh/torus difference.
        srds = self.config.num_srds
        return ((2 * srd_index + 1) * self.num_nodes) // (2 * srds)

    # ----------------------------------------------------------------- routing
    def _ring_step(self, pos: int, target: int, size: int) -> int:
        """Signed unit step the shorter way around a ring of *size*.

        The positive (east/south) direction wins exact ties so routes are
        deterministic on even rings.
        """
        forward = (target - pos) % size
        backward = (pos - target) % size
        return 1 if forward <= backward else -1

    def _compute_route(self, src: int, dst: int) -> List[FifoServer]:
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        links: List[FifoServer] = []
        # X first: walk the row ring the shorter way to the destination
        # column...
        while sc != dc:
            step = self._ring_step(sc, dc, self.cols)
            nc = (sc + step) % self.cols
            links.append(self._link_for[(sr * self.cols + sc, sr * self.cols + nc)])
            sc = nc
        # ...then Y: walk the column ring to the destination row.
        while sr != dr:
            step = self._ring_step(sr, dr, self.rows)
            nr = (sr + step) % self.rows
            links.append(self._link_for[(sr * self.cols + sc, nr * self.cols + sc)])
            sr = nr
        return links
