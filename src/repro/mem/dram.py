"""DRAM model: fixed loaded-latency main memory behind the L2.

The evaluation's queue traffic never reaches DRAM on the fast path (that is
the whole point of keeping data "on the fast path, within the on-chip
interconnect" — Section 2), but the MOESI software-queue baseline and cold
misses do, so the substrate includes a simple fixed-latency DDR4 model that
counts its line fills.  Dirty victims are absorbed by the L2
(:meth:`~repro.mem.coherence.CoherentMemorySystem._handle_victim`), so no
writeback ever reaches it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig


class Dram:
    """Fixed-latency main memory."""

    def __init__(self, config: "SystemConfig") -> None:
        self.latency = config.dram_latency
        self.reads = 0

    def read(self) -> int:
        """One line fill from DRAM; returns the loaded latency for the
        calling process to ``yield`` (a sleep)."""
        self.reads += 1
        return self.latency
