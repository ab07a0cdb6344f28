"""Set-associative cache with MOESI line states.

This backs the coherence substrate used by the software-queue motivation
baseline (Figure 1a): private L1Ds and a shared L2 whose lines carry MOESI
states and are kept coherent by :mod:`repro.mem.coherence`.

The cache tracks geometry from :class:`~repro.config.CacheConfig`, true LRU
within a set, and hit/miss/eviction statistics.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional

from repro.config import CacheConfig
from repro.errors import ProtocolError


class MoesiState(Enum):
    """The five MOESI coherence states."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not MoesiState.INVALID

    @property
    def can_supply(self) -> bool:
        """True when a snooping cache must supply the data (M/O/E)."""
        return self in (MoesiState.MODIFIED, MoesiState.OWNED, MoesiState.EXCLUSIVE)

    @property
    def is_writable(self) -> bool:
        """True when a store can proceed without a bus transaction (M/E)."""
        return self in (MoesiState.MODIFIED, MoesiState.EXCLUSIVE)

    @property
    def dirty(self) -> bool:
        """True when eviction must write the line back (M/O)."""
        return self in (MoesiState.MODIFIED, MoesiState.OWNED)


class CacheLineEntry:
    """One resident line: its base address, state and LRU stamp."""

    __slots__ = ("line_addr", "state", "lru_stamp")

    def __init__(self, line_addr: int, state: MoesiState, lru_stamp: int) -> None:
        self.line_addr = line_addr
        self.state = state
        self.lru_stamp = lru_stamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line {self.line_addr:#x} {self.state.value}>"


class SetAssocCache:
    """A set-associative cache array with true-LRU replacement."""

    def __init__(self, geometry: CacheConfig, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._sets: List[Dict[int, CacheLineEntry]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- address decomposition ---------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.geometry.line_bytes)

    def set_index(self, addr: int) -> int:
        return (self.line_addr(addr) // self.geometry.line_bytes) % self.geometry.num_sets

    # -- operations ----------------------------------------------------------------
    def lookup(self, addr: int, count: bool = True) -> Optional[CacheLineEntry]:
        """Find the resident line for *addr*; updates LRU and hit stats."""
        la = self.line_addr(addr)
        entry = self._sets[self.set_index(addr)].get(la)
        if entry is not None and entry.state.is_valid:
            if count:
                self.hits += 1
            self._stamp += 1
            entry.lru_stamp = self._stamp
            return entry
        if count:
            self.misses += 1
        return None

    def peek(self, addr: int) -> Optional[CacheLineEntry]:
        """Snoop lookup: no LRU update, no hit/miss accounting."""
        la = self.line_addr(addr)
        entry = self._sets[self.set_index(addr)].get(la)
        if entry is not None and entry.state.is_valid:
            return entry
        return None

    def install(self, addr: int, state: MoesiState) -> Optional[CacheLineEntry]:
        """Insert a line, returning the victim evicted to make room (if any)."""
        if not state.is_valid:
            raise ProtocolError(f"{self.name}: cannot install a line in state I")
        la = self.line_addr(addr)
        cache_set = self._sets[self.set_index(addr)]
        victim: Optional[CacheLineEntry] = None
        if la not in cache_set and len(cache_set) >= self.geometry.associativity:
            victim_addr = min(cache_set, key=lambda a: cache_set[a].lru_stamp)
            victim = cache_set.pop(victim_addr)
            self.evictions += 1
        self._stamp += 1
        cache_set[la] = CacheLineEntry(la, state, self._stamp)
        return victim

    def set_state(self, addr: int, state: MoesiState) -> None:
        """Transition a resident line's state; I removes the line."""
        la = self.line_addr(addr)
        cache_set = self._sets[self.set_index(addr)]
        entry = cache_set.get(la)
        if entry is None:
            raise ProtocolError(f"{self.name}: set_state on non-resident {la:#x}")
        if state is MoesiState.INVALID:
            del cache_set[la]
        else:
            entry.state = state

    def invalidate(self, addr: int) -> bool:
        """Drop the line if resident; True when something was invalidated."""
        la = self.line_addr(addr)
        cache_set = self._sets[self.set_index(addr)]
        if la in cache_set:
            del cache_set[la]
            return True
        return False

    # -- introspection ---------------------------------------------------------
    def state_of(self, addr: int) -> MoesiState:
        entry = self.peek(addr)
        return entry.state if entry is not None else MoesiState.INVALID
