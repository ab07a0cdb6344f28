"""Shared-resource primitives built on the event kernel.

* :class:`FifoServer` — a single server that items occupy for a service time
  and then leave after a propagation latency.  The model uses one for the
  coherence-network bus (:mod:`repro.net.singlebus`) and one per NoC link
  (:mod:`repro.net.topology`).  It tracks busy cycles for utilization
  metrics and hands each completion to a continuation.
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
        so it resumes under the ``(now, seq)`` key drawn here.
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
        a zero-delay entry whose sequence number is drawn here: it runs
        after the work already queued for this cycle.
        """
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            self.env.call_later(0, Process._resume, self._waiters.popleft())
        else:
            self._in_use -= 1


class FifoServer:
    """A single FIFO server: fixed service time, then fixed latency.

    Each packet occupies the server for ``service_time`` cycles (its
    serialization; back-to-back packets queue) and then propagates for
    ``latency`` cycles before its continuation runs.  The coherence
    network is built from these (:mod:`repro.net`): the single bus is one
    server, a NoC route a tuple of them, one per directed link.  Busy
    cycles over elapsed time is the utilization reported in Figure 10b;
    the service time is fixed, so busy cycles are ``packets_served``
    times it.  ``wait_cycles`` is the backpressure the network recorded
    at this link (NoC links only: the bus folds queueing into busy time).
    """

    __slots__ = (
        "env", "name", "service_time", "latency", "_free_at",
        "packets_served", "wait_cycles",
    )

    def __init__(
        self, env: "Environment", service_time: int, name: str = "bus",
        latency: int = 0,
    ) -> None:
        if service_time < 0:
            raise SimulationError(f"{name}: negative service time {service_time}")
        self.env = env
        self.name = name
        self.service_time = int(service_time)
        self.latency = int(latency)
        self._free_at: int = env.now
        self.packets_served: int = 0
        self.wait_cycles: int = 0

    def serve_then(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Enqueue one packet; ``fn(arg)`` runs when its service and then
        its propagation ``latency`` complete.

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
        env.call_later(finish - now + self.latency, fn, arg)

    @property
    def busy_cycles(self) -> int:
        return self.packets_served * self.service_time

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of cycles the server was busy over *elapsed* (default: now)."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window)
