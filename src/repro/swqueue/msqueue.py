"""A Michael–Scott-style software queue over the coherent memory substrate.

This is the Figure 1a motivation baseline: a classic shared-memory bounded
queue whose head/tail indices and slot flags live in coherent cachelines.
Every operation bounces lines between producer and consumer caches through
MOESI upgrades and invalidations — the coherence-traffic scaling problem
hardware queues remove.

The implementation is a bounded MPMC ring (the Michael–Scott linked queue's
allocation behaviour is awkward without a heap model; a ring with per-slot
sequence numbers — Vyukov-style — preserves the same lock-free CAS pattern
and coherence behaviour, and is what high-performance software actually
deploys).  All state lives in the simulated memory; loads, stores and CAS
operations are issued through :class:`CoherentMemorySystem`, so the model
executes the real algorithm, not an abstraction of it.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ConfigError
from repro.mem.coherence import CoherentMemorySystem
from repro.units import CACHELINE_BYTES


class SoftwareQueue:
    """Bounded lock-free MPMC ring on the coherent substrate.

    Layout (all offsets line-aligned to make the coherence behaviour
    faithful: head and tail on separate lines, one slot per line):

    * ``base + 0``              — head index (consumer-side, hot line)
    * ``base + 64``             — tail index (producer-side, hot line)
    * ``base + 128 + i*64``     — slot *i*: sequence word; the payload is
      tracked at ``addr + 8``.
    """

    def __init__(
        self,
        memory: CoherentMemorySystem,
        base_addr: int,
        capacity: int,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        if base_addr % CACHELINE_BYTES != 0:
            raise ConfigError(f"queue base {base_addr:#x} not line-aligned")
        self.memory = memory
        self.capacity = capacity
        self.head_addr = base_addr
        self.tail_addr = base_addr + CACHELINE_BYTES
        self.slots_base = base_addr + 2 * CACHELINE_BYTES
        # Initialise slot sequence numbers: slot i expects ticket i.
        for i in range(capacity):
            memory.poke_value(self._seq_addr(i), i)
        self.enqueues = 0
        self.dequeues = 0

    def _seq_addr(self, index: int) -> int:
        return self.slots_base + index * CACHELINE_BYTES

    def _payload_addr(self, index: int) -> int:
        return self._seq_addr(index) + 8

    # ------------------------------------------------------------------ enqueue
    def enqueue(self, core: int, value: int) -> Generator:
        """Lock-free enqueue (``yield from``); spins while the ring is full."""
        mem = self.memory
        while True:
            ticket = yield from mem.load(core, self.tail_addr)
            slot = ticket % self.capacity
            seq = yield from mem.load(core, self._seq_addr(slot))
            if seq == ticket:
                # Slot free for this ticket: claim the tail via CAS.
                won = yield from mem.cas(core, self.tail_addr, ticket, ticket + 1)
                if won:
                    yield from mem.store(core, self._payload_addr(slot), value)
                    # Publish: consumers wait for seq == ticket + 1.
                    yield from mem.store(core, self._seq_addr(slot), ticket + 1)
                    self.enqueues += 1
                    return True
            elif seq < ticket:
                # Ring full: the consumer has not recycled this slot yet.
                yield 16
            # Otherwise another producer advanced the tail; retry.

    # ------------------------------------------------------------------ dequeue
    def dequeue(self, core: int) -> Generator:
        """Lock-free dequeue (``yield from``); spins while the ring is empty."""
        mem = self.memory
        while True:
            ticket = yield from mem.load(core, self.head_addr)
            slot = ticket % self.capacity
            seq = yield from mem.load(core, self._seq_addr(slot))
            if seq == ticket + 1:
                won = yield from mem.cas(core, self.head_addr, ticket, ticket + 1)
                if won:
                    value = yield from mem.load(core, self._payload_addr(slot))
                    # Recycle the slot for the producer of lap + 1.
                    yield from mem.store(
                        core, self._seq_addr(slot), ticket + self.capacity
                    )
                    self.dequeues += 1
                    return value
            elif seq <= ticket:
                # Empty: wait for a producer to publish.
                yield 16

    def try_dequeue(self, core: int) -> Generator:
        """Single-attempt dequeue; returns None when the queue looks empty."""
        mem = self.memory
        ticket = yield from mem.load(core, self.head_addr)
        slot = ticket % self.capacity
        seq = yield from mem.load(core, self._seq_addr(slot))
        if seq == ticket + 1:
            won = yield from mem.cas(core, self.head_addr, ticket, ticket + 1)
            if won:
                value = yield from mem.load(core, self._payload_addr(slot))
                yield from mem.store(core, self._seq_addr(slot), ticket + self.capacity)
                self.dequeues += 1
                return value
        return None
