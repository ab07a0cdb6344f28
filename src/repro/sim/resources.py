"""Shared-resource primitives built on the event kernel.

* :class:`FifoServer` — a single server that items occupy for a service time.
  The model uses it for the coherence-network bus (:mod:`repro.net.singlebus`)
  and each NoC link (:mod:`repro.net.topology`).  It tracks busy cycles for
  utilization metrics and hands each completion to a continuation.
* :class:`Resource` — counted semaphore with FIFO waiters.  The prodBuf
  admission of :mod:`repro.vlink.vlrd` uses one per tier: a shared pool and
  a per-SQI reserve.  It allocates no event: a waiter parks and the
  release that hands it the unit queues its wake.

Both carry ``__slots__``: a system builds hundreds of servers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.process import PARK, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class Resource:
    """A counted resource whose waiters are granted in FIFO order."""

    __slots__ = ("env", "name", "capacity", "_in_use", "_waiters")

    def __init__(self, env: "Environment", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Process] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Generator:
        """Take one unit (``yield from`` inside a process).

        A free unit is taken at once and the process sleeps zero cycles,
        so it resumes under the ``(now, NORMAL, seq)`` key drawn here.
        Otherwise the process parks at the back of the waiter queue until
        :meth:`release` hands it a unit.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            yield 0
            return
        process = self.env.active_process
        if process is None:
            raise SimulationError(f"{self.name}: acquire() outside a process")
        self._waiters.append(process)
        yield PARK

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit; the oldest waiter, if any, gets it instead.

        The hand-off keeps the count unchanged and wakes the waiter with
        a zero-delay NORMAL entry whose sequence number is drawn here.
        """
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            self.env.call_later(0, Process._resume, self._waiters.popleft())
        else:
            self._in_use -= 1


class FifoServer:
    """A single FIFO server with a fixed per-item service time.

    Models the shared coherence-network bus: each packet occupies the server
    for ``service_time`` cycles (its *occupancy*); total busy cycles divided
    by elapsed time is the bus utilization reported in Figure 10b.  The
    service time is fixed, so busy cycles are ``packets_served`` times it.
    """

    __slots__ = ("env", "name", "service_time", "_free_at", "packets_served")

    def __init__(self, env: "Environment", service_time: int, name: str = "bus") -> None:
        if service_time < 0:
            raise SimulationError(f"{name}: negative service time {service_time}")
        self.env = env
        self.name = name
        self.service_time = int(service_time)
        self._free_at: int = env.now
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
        self.packets_served += 1
        env.call_later(finish - now + extra_delay, fn, arg)

    @property
    def busy_cycles(self) -> int:
        return self.packets_served * self.service_time

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of cycles the server was busy over *elapsed* (default: now)."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window)
