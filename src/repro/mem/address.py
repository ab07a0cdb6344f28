"""Physical address-space layout and allocation.

Virtual-Link's key property is that producer and consumer endpoints live at
*unique* physical addresses (no shared coherent state): the routing device
copies cache lines between them.  Two additional *device memory* windows are
mapped to the routing device itself:

* the **consBuf window** — a ``vl_fetch`` store to this window registers a
  consumer request;
* the **specBuf window** — a ``vl_fetch`` store to this window (the
  ``spamer_register`` alias, Section 3.3) registers a speculative push
  target.

The model routes those stores to the routing device directly, so no
window addresses are modelled; :class:`AddressSpace` hands out
page-aligned endpoint buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import ConfigError, RegistrationError
from repro.units import CACHELINE_BYTES

PAGE_BYTES = 4096


@dataclass(frozen=True)
class Segment:
    """A contiguous physical range (page-aligned endpoint buffer)."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.length <= 0:
            raise ConfigError(f"invalid segment {self!r}")

    @property
    def end(self) -> int:
        return self.base + self.length

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def line_addr(self, index: int) -> int:
        """Address of the *index*-th cacheline within the segment."""
        addr = self.base + index * CACHELINE_BYTES
        if not self.contains(addr):
            raise RegistrationError(
                f"line index {index} out of segment of {self.length} bytes"
            )
        return addr

    @property
    def num_lines(self) -> int:
        return self.length // CACHELINE_BYTES


class AddressSpace:
    """Allocates endpoint buffers and classifies device addresses."""

    def __init__(self, dram_bytes: int) -> None:
        if dram_bytes < PAGE_BYTES:
            raise ConfigError(f"DRAM too small: {dram_bytes} bytes")
        self.dram_bytes = dram_bytes
        self._next_free = PAGE_BYTES  # keep page 0 unmapped (null guard)

    def alloc_endpoint_buffer(self, num_lines: int) -> Segment:
        """Allocate a page-aligned buffer of *num_lines* cachelines."""
        if num_lines < 1:
            raise RegistrationError(f"need >= 1 cacheline, got {num_lines}")
        length = ((num_lines * CACHELINE_BYTES + PAGE_BYTES - 1) // PAGE_BYTES) * PAGE_BYTES
        base = self._next_free
        if base + length > self.dram_bytes:
            raise RegistrationError("out of simulated DRAM for endpoint buffers")
        self._next_free = base + length
        return Segment(base, length)
