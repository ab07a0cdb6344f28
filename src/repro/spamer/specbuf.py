"""specBuf — the speculative-push target store (Section 3.2).

Every valid specBuf entry represents a segment of consumer memory
(``base + len × cacheline``) the SRD may speculatively push into.  The
``offset`` field rotates through the segment's cachelines on *successful*
pushes, so all registered lines take turns receiving data; the ``next``
field links the entries of one SQI into a ring so successive predictions
rotate across consumer endpoints; the ``on_fly`` bit throttles each entry
to one outstanding speculative push (Section 3.5).  With burst
speculation (``SystemConfig.burst_k > 1``, :mod:`repro.spamer.multipush`)
an ``on_fly`` entry may carry younger follower pushes too: ``head`` is the
packet of its latest selection, and ``burst`` its bookkeeping once a
follower was claimed.

Entries also carry the per-endpoint latch state of the delay-prediction
algorithms (the yellow blocks of Figure 6): ``nfills``, ``last``, ``ddl``,
``failed`` and ``delay``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import RegistrationError
from repro.mem.cacheline import ConsumerLine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spamer.multipush import BurstState
    from repro.vlink.endpoint import ConsumerEndpoint
    from repro.vlink.packets import ProdEntry


class SpecEntry:
    """One specBuf row: a speculative-push window over an endpoint."""

    __slots__ = (
        "index", "sqi", "endpoint", "base", "length", "offset", "next_index",
        "on_fly", "head", "burst",
        # delay-prediction latch state (Figure 6)
        "nfills", "last", "ddl", "failed", "delay",
    )

    def __init__(self, index: int, endpoint: "ConsumerEndpoint") -> None:
        self.index = index
        self.sqi = endpoint.sqi
        self.endpoint = endpoint
        self.base = endpoint.segment.base
        self.length = len(endpoint.lines)
        self.offset = 0
        self.next_index = index  # singleton ring until linked
        self.on_fly = False
        #: The packet the ring walk last selected this entry for.
        self.head: Optional["ProdEntry"] = None
        #: Burst bookkeeping, built when ``head`` takes its first follower.
        self.burst: Optional["BurstState"] = None
        # Delay-algorithm state; interpreted by the active algorithm.
        self.nfills = 0
        self.last = 0
        self.ddl = 0
        self.failed = False
        self.delay = 0

    @property
    def target_line(self) -> ConsumerLine:
        """The cacheline the current offset points at (specTgt derivation)."""
        return self.endpoint.lines[self.offset]

    def advance_offset(self) -> None:
        """Rotate to the next cacheline after a successful push."""
        self.offset += 1
        if self.offset >= self.length:
            self.offset = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpecEntry {self.index} sqi={self.sqi} off={self.offset}/{self.length}"
            f"{' on_fly' if self.on_fly else ''}>"
        )


class SpecBuf:
    """The table of :class:`SpecEntry` rows plus the per-SQI rings."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise RegistrationError(f"specBuf capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.entries: List[SpecEntry] = []
        self._ring_tail: Dict[int, SpecEntry] = {}  # sqi -> last-registered entry

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> SpecEntry:
        return self.entries[index]

    def register(self, endpoint: "ConsumerEndpoint") -> SpecEntry:
        """Handle a ``spamer_register`` store: allocate and ring-link an entry.

        Entries of one SQI form a loop used in turn (Section 3.2); the new
        entry is spliced in after the SQI's current tail.
        """
        if len(self.entries) >= self.capacity:
            raise RegistrationError(
                f"specBuf full ({self.capacity} entries); the OS must manage "
                "specBuf like other limited resources (Section 4.5)"
            )
        entry = SpecEntry(len(self.entries), endpoint)
        self.entries.append(entry)
        tail = self._ring_tail.get(endpoint.sqi)
        if tail is None:
            entry.next_index = entry.index
        else:
            entry.next_index = tail.next_index  # ring head
            tail.next_index = entry.index
        self._ring_tail[endpoint.sqi] = entry
        return entry

    def ring_of(self, sqi: int) -> List[SpecEntry]:
        """All entries of *sqi*, in ring order starting at the ring head."""
        tail = self._ring_tail.get(sqi)
        if tail is None:
            return []
        out: List[SpecEntry] = []
        cursor = self.entries[tail.next_index]
        while True:
            out.append(cursor)
            cursor = self.entries[cursor.next_index]
            if cursor is out[0]:
                break
        return out

    def ring_head(self, sqi: int) -> Optional[SpecEntry]:
        """The first entry of the SQI's ring (used to seed linkTab.specHead)."""
        tail = self._ring_tail.get(sqi)
        return self.entries[tail.next_index] if tail is not None else None

    # ----------------------------------------------------------- diagnostics
    def on_fly_count(self) -> int:
        """Entries with an outstanding speculative push (Section 3.5 throttle)."""
        return sum(1 for entry in self.entries if entry.on_fly)

    def snapshot(self) -> List[dict]:
        """Per-entry state for stall diagnostics (what the watchdog dumps)."""
        return [
            {
                "index": e.index,
                "sqi": e.sqi,
                "endpoint": e.endpoint.endpoint_id,
                "offset": e.offset,
                "on_fly": e.on_fly,
                "nfills": e.nfills,
                "delay": e.delay,
                "failed": e.failed,
            }
            for e in self.entries
        ]
