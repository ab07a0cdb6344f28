"""Shared-resource primitives built on the event kernel.

Three primitives cover every contention point in the modelled system:

* :class:`Resource` — counted semaphore with FIFO waiters (e.g. SRD buffer
  entries, producer credits).
* :class:`Store` — FIFO buffer of items with blocking get/put (e.g. logical
  queues inside the routing device).
* :class:`FifoServer` — a single server that items occupy for a service time
  (the coherence-network bus, a NoC link); tracks busy cycles for
  utilization metrics and hands each completion to a continuation.

All three carry ``__slots__`` (a system builds hundreds of them) and
precompute their grant-event names once in ``__init__`` — ``acquire``/
``put``/``get`` run per message hop, and the f-string per call showed up
in the sim-leg profile (docs/PERFORMANCE.md §5).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class Resource:
    """A counted resource with FIFO-queued acquire requests."""

    __slots__ = ("env", "name", "capacity", "_in_use", "_waiters",
                 "_acquire_name")

    def __init__(self, env: "Environment", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"acquire:{name}"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Return an event that fires when one unit has been granted."""
        ev = Event(self.env, name=self._acquire_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            # Hand the unit straight to the next waiter (count unchanged).
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """FIFO item buffer with blocking ``get``/``put`` and optional capacity."""

    __slots__ = ("env", "name", "capacity", "_items", "_getters", "_putters",
                 "_put_name", "_get_name")

    def __init__(
        self,
        env: "Environment",
        capacity: Optional[int] = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, pending item) pairs
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Deposit *item*; blocks (event stays pending) while full."""
        ev = Event(self.env, name=self._put_name)
        if self._getters:
            # Hand directly to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; True on success."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Return an event yielding the oldest item."""
        ev = Event(self.env, name=self._get_name)
        if self._items:
            item = self._items.popleft()
            self._admit_blocked_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns the item or None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_blocked_putter()
        return item

    def _admit_blocked_putter(self) -> None:
        if self._putters:
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()


class FifoServer:
    """A single FIFO server with a fixed per-item service time.

    Models the shared coherence-network bus: each packet occupies the server
    for ``service_time`` cycles (its *occupancy*); total busy cycles divided
    by elapsed time is the bus utilization reported in Figure 10b.
    """

    __slots__ = ("env", "name", "service_time", "_free_at", "busy_cycles",
                 "packets_served")

    def __init__(self, env: "Environment", service_time: int, name: str = "bus") -> None:
        if service_time < 0:
            raise SimulationError(f"{name}: negative service time {service_time}")
        self.env = env
        self.name = name
        self.service_time = int(service_time)
        self._free_at: int = env.now
        self.busy_cycles: int = 0
        self.packets_served: int = 0

    def serve_then(
        self, extra_delay: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Enqueue one packet; ``fn(arg)`` runs when service (plus
        *extra_delay*, e.g. wire propagation after serialization) completes.

        No event is allocated: the completion is one
        :meth:`~repro.sim.kernel.Environment.call_later` entry, whose
        sequence number is drawn here, at the reservation.
        """
        env = self.env
        now = env._now
        free_at = self._free_at
        finish = (free_at if free_at > now else now) + self.service_time
        self._free_at = finish
        self.busy_cycles += self.service_time
        self.packets_served += 1
        env.call_later(finish - now + extra_delay, fn, arg)

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of cycles the server was busy over *elapsed* (default: now)."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window)
