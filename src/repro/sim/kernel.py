"""The discrete-event simulation kernel (:class:`Environment`).

Pending work lives in one binary heap (a plain list driven by
:mod:`heapq`) of entries of one form, ``(time, seq, fn, arg)``; the
dispatch loop pops the earliest entry, advances the clock, and calls
``fn(arg)``.  Work due in the same cycle runs first in, first out: the
``seq`` tiebreak is the queueing order, which makes runs fully
deterministic, and tuple comparison never reaches ``fn``.

Time is an integer cycle count.  All device latencies in this package are
integral, which keeps the queue keys exact (no float comparisons) and runs
reproducible bit-for-bit across platforms.

Every entry is queued with :meth:`Environment.call_later` or re-armed
by the dispatch loop: a process's start, each of its sleeps (a bare
``yield delay``), the wake of a parked process
(:class:`~repro.sim.resources.Resource`, a network delivery, a line
poll) and its exit (:mod:`repro.sim.process`).  The environment keeps
the set of live processes; :meth:`Environment.run_until_complete` runs
until the last one has exited, so joining needs no event.

**Return-a-delay contract.**  A dispatched callback returns ``None`` or
a non-negative ``int`` *delay*.  A delay re-arms the same ``(fn, arg)``
at ``(now + delay, seq)``, its ``seq`` drawn right after the
callback returns: exactly the key a ``call_later(delay, fn, arg)`` made
as the callback's last statement would have, so a re-arm changes no
dispatch order.  A process's sleep (``Process._resume``) and an idle
line poll (``repro.vlink.library._poll_tick``) re-arm this way; every
other callback returns ``None``.  A callback that calls one of them
synchronously queues the returned delay itself.

Hot-path notes (docs/PERFORMANCE.md §5): :meth:`Environment.run` and
:meth:`Environment.run_until_complete` drive the same loop
(:meth:`Environment._loop`) with the dispatch body inlined, so an entry
costs no kernel-side Python frame; the window limit and the watchdog
deadline fold into one stop bound, so the loop makes one compare per
entry; and CPython's internal tuple freelist recycles the entries
themselves (measured faster than a Python-level slab —
docs/PERFORMANCE.md §5 records the comparison).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import index
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import SchedulingError, SimDeadlockError, SimulationError
from repro.sim.process import Process

#: Window bound of an unbounded run: later than any reachable cycle, so
#: the loop's window test stays one int compare per entry.
_NO_LIMIT = 1 << 62


class Environment:
    """Holds the simulation clock and the pending-entry queue.

    Typical use::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=1_000_000)
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_processed",
        "_active_process",
        "_live",
        "_watchdog",
        "_watchdog_after",
        "_limit",
        "_stop",
    )

    def __init__(self, initial_time: int = 0) -> None:
        self._now: int = int(initial_time)
        #: The heap of ``(time, seq, fn, arg)`` entries.  ``seq`` is
        #: unique, so tuple comparisons never reach ``fn``.
        self._queue: List[Tuple] = []
        self._seq: int = 0
        self._processed: int = 0
        self._active_process: Optional[Process] = None
        #: Processes started and not yet exited, in start order (a dict
        #: used as an ordered set, so a deadlock can name them).
        self._live: Dict[Process, None] = {}
        # Observe-only watchdog hook: called with the current time by the
        # first dispatch at or past the deadline — the same firing point
        # whether the dispatch came from run() or run_until_complete().
        # It schedules nothing and never mutates kernel state, so
        # installing one cannot perturb the dispatch sequence — it may
        # only raise to abort a stalled run.
        self._watchdog: Optional[Callable[[int], None]] = None
        self._watchdog_after: int = 0
        #: The running loop's window limit, and the loop's one stop bound:
        #: the earlier of that limit and the cycle before the watchdog
        #: deadline.  Every watchdog setter recomputes it.
        self._limit: int = _NO_LIMIT
        self._stop: int = _NO_LIMIT

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total queue entries dispatched (the wall-clock benchmark's
        events/sec denominator).  The loop counts in a local and stores
        the count when it returns or raises: read it between runs."""
        return self._processed

    @property
    def events_scheduled(self) -> int:
        """Total queue entries ever enqueued (scheduled ≥ processed; the
        difference is the current queue backlog plus cancelled entries).

        Kernel observability is boundary-only by design: the registry
        reads these counters after the run (obs.collector.finalize_system)
        instead of adding even a None-check to the per-entry dispatch loop,
        so metrics-off and metrics-on runs execute identical hot paths.
        """
        return self._seq

    @property
    def queue_length(self) -> int:
        """Pending queue entries right now."""
        return len(self._queue)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None outside process code)."""
        return self._active_process

    # -- scheduling ----------------------------------------------------------
    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Wrap *generator* as a :class:`Process` and start it now."""
        return Process(self, generator, name=name)

    def call_later(
        self, delay: int, callback: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Enqueue *callback(arg)* ``delay`` cycles ahead.

        The one way to queue work: the entry is
        ``(now + delay, seq, callback, arg)``, its sequence number drawn
        here.  *delay* is a non-negative integer (an ``int`` or anything
        with ``__index__``); a negative or non-integral delay raises
        :class:`~repro.errors.SchedulingError`.
        """
        if delay.__class__ is not int:
            try:
                delay = index(delay)
            except TypeError:
                raise SchedulingError(
                    f"delay must be an integral cycle count (delay={delay!r})"
                ) from None
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        heappush(self._queue, (self._now + delay, seq, callback, arg))
        self._seq = seq + 1

    # -- watchdog ------------------------------------------------------------
    def set_watchdog(self, callback: Callable[[int], None], deadline: int) -> None:
        """Install the observe-only stall watchdog.

        *callback(now)* runs inside the first dispatch whose time is at or
        past *deadline* — :meth:`run` and :meth:`run_until_complete` share
        the firing point, since both drive the same loop.  The callback
        must either raise (aborting the run, e.g. with
        :class:`~repro.errors.SimDeadlockError`) or call
        :meth:`defer_watchdog` to arm the next deadline; returning without
        deferring re-fires it every dispatch.
        """
        self._watchdog = callback
        self._watchdog_after = int(deadline)
        self._rebound()

    def defer_watchdog(self, deadline: int) -> None:
        """Move the watchdog deadline forward (progress was observed)."""
        self._watchdog_after = int(deadline)
        self._rebound()

    def clear_watchdog(self) -> None:
        self._watchdog = None
        self._rebound()

    def _rebound(self) -> None:
        """Recompute the loop's stop bound from the limit and the watchdog."""
        if self._watchdog is None:
            self._stop = self._limit
        else:
            self._stop = min(self._limit, self._watchdog_after - 1)

    def close(self) -> None:
        """Drop every pending entry, the live set and the watchdog.

        A run stopped before its last exit (a limit, a deadlock, a
        windowed run) leaves entries behind (parked polls, housekeeping
        callbacks) whose bound methods point back into the model, and
        the live set holds its unfinished processes, whose suspended
        generator frames point back into the model too; each of those
        generators is closed here (``GeneratorExit`` at its suspension
        point).  The environment cannot run on afterwards.  The clock and
        the event counts stay as they were, but :attr:`queue_length`
        reads 0 from here on: read the leftover count before closing.
        """
        self._queue.clear()
        for process in self._live:
            process.generator.close()
        self._live.clear()
        self.clear_watchdog()

    @property
    def has_watchdog(self) -> bool:
        return self._watchdog is not None

    # -- execution -----------------------------------------------------------
    def _loop(self, limit: int, join: bool) -> None:
        """The dispatch loop behind :meth:`run` and :meth:`run_until_complete`.

        Dispatches entries in ``(time, seq)`` order and stops
        when the queue is empty, the next entry lies past *limit*, or —
        with *join* — no process is live.  Callers read the stop reason
        off the queue and the live set.  Each entry leaves the queue
        before it runs, so a raising watchdog or a failed process's exit
        consumes exactly that entry and leaves the rest intact.

        One compare per entry against the stop bound covers both the
        window and the watchdog; an entry past it is either past *limit*
        (stop) or at/past the watchdog deadline (fire, then dispatch).
        A callback's returned delay re-arms it through ``heappush`` with
        the ``seq`` drawn here, after the callback returned (the
        module docstring's return-a-delay contract).
        """
        queue = self._queue
        live = self._live
        push, pop = heappush, heappop
        self._limit = limit
        self._rebound()
        processed = self._processed
        try:
            while queue:
                if join and not live:
                    return
                entry = queue[0]
                when = entry[0]
                if when > self._stop:
                    if when > limit:
                        return
                    pop(queue)
                    self._now = when
                    self._watchdog(when)
                else:
                    pop(queue)
                    self._now = when
                processed += 1
                fn = entry[2]
                arg = entry[3]
                delay = fn(arg)
                if delay is not None:
                    seq = self._seq
                    push(queue, (when + delay, seq, fn, arg))
                    self._seq = seq + 1
        finally:
            self._processed = processed

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the clock passes *until*.

        Returns the final simulated time.  When *until* is given the clock
        is advanced to exactly *until* even if the last entry ran
        earlier, mirroring a wall-clock measurement window.
        ``run(until=env.now)`` is an explicit zero-width window: it
        dispatches everything pending for the current cycle (entries with
        ``time == now``), leaves strictly-later entries queued, and
        returns with the clock unchanged.
        """
        if until is None:
            self._loop(_NO_LIMIT, False)
        elif until < self._now:
            raise SchedulingError(f"until={until} is in the past (now={self._now})")
        else:
            self._loop(until, False)
            self._now = max(self._now, int(until))
        return self._now

    def run_until_complete(self, limit: Optional[int] = None) -> int:
        """Run until every process has exited; returns the end time.

        The end time is that of the last process's exit entry; entries
        still queued behind it stay queued.  Raises
        :class:`~repro.errors.SimDeadlockError` naming the live processes
        if the queue drains first (every one of them parked with nothing
        left to wake it), and :class:`SimulationError` if the optional
        *limit* is reached first.  A process that fails re-raises its
        exception from here, at its exit.
        """
        self._loop(_NO_LIMIT if limit is None else limit, True)
        if self._live:
            live = tuple(process.name for process in self._live)
            if self._queue:
                raise SimulationError(
                    f"simulation limit {limit} reached before "
                    f"{', '.join(live)} finished"
                )
            raise SimDeadlockError(
                f"deadlock: event queue drained at tick {self._now} with "
                f"{', '.join(live)} unfinished",
                tick=self._now,
                blocked=live,
            )
        return self._now
