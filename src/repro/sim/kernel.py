"""The discrete-event simulation kernel (:class:`Environment`).

Pending events live in one binary heap (a plain list driven by
:mod:`heapq`) keyed by ``(time, priority, sequence)``; the dispatch loop
pops the earliest entry, advances the clock, and runs its callbacks.  The
``sequence`` tiebreak makes runs fully deterministic: two events scheduled
for the same cycle at the same priority fire in scheduling order.

Time is an integer cycle count.  All device latencies in this package are
integral, which keeps the queue keys exact (no float comparisons) and runs
reproducible bit-for-bit across platforms.

Hot-path notes (see docs/PERFORMANCE.md §5): :meth:`Environment.run`,
:meth:`Environment.run_until_complete` and :meth:`Environment.step` all
drive the same loop (:meth:`Environment._loop`), with the dispatch body
inlined so an event costs no kernel-side Python frame.  Deferred
callbacks (:meth:`Environment.schedule_callback`,
:meth:`Environment.call_later`) ride the queue as plain 5-tuples instead
of allocating a shim :class:`Event` per call, and so does every process
sleep (a bare ``yield delay``, see :mod:`repro.sim.process`) and every
wake of a parked process (:class:`~repro.sim.resources.Resource`); the
``sequence`` tiebreak guarantees tuple comparison never reaches the
payload slot, and CPython's internal tuple freelist recycles the entries
themselves (measured faster than a Python-level slab —
docs/PERFORMANCE.md §5 records the comparison).  Event dispatch reads the polymorphic ``callbacks`` slot
directly: the one-subscriber case calls the bare callable without ever
materializing a callbacks list (see :mod:`repro.sim.event`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import _PENDING, AllOf, Event, PROCESSED
from repro.sim.process import Process

#: Priority levels: URGENT callbacks run before NORMAL ones in the same cycle.
URGENT = 0
NORMAL = 1

#: Window bound of an unbounded run: later than any reachable cycle, so
#: the loop's window test stays one int compare per event.
_NO_LIMIT = 1 << 62


class Environment:
    """Holds the simulation clock and the pending-event queue.

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
        "_watchdog",
        "_watchdog_after",
    )

    def __init__(self, initial_time: int = 0) -> None:
        self._now: int = int(initial_time)
        #: The heap.  Entries are ``(time, priority, seq, event)`` for
        #: ordinary events or ``(time, priority, seq, callback, arg)`` for
        #: deferred callbacks (see :meth:`schedule_callback`).  ``seq`` is
        #: unique, so tuple comparisons never reach the payload slots.
        self._queue: List[Tuple] = []
        self._seq: int = 0
        self._processed: int = 0
        self._active_process: Optional[Process] = None
        # Observe-only watchdog hook: called with the current time by the
        # first dispatch at or past the deadline — the same firing point
        # whether the dispatch came from step(), run(), or
        # run_until_complete().  It schedules nothing and never mutates
        # kernel state, so installing one cannot perturb the event
        # sequence — it may only raise to abort a stalled run.
        self._watchdog: Optional[Callable[[int], None]] = None
        self._watchdog_after: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total queue entries dispatched so far (the wall-clock benchmark's
        events/sec denominator)."""
        return self._processed

    @property
    def events_scheduled(self) -> int:
        """Total queue entries ever enqueued (scheduled ≥ processed; the
        difference is the current queue backlog plus cancelled entries).

        Kernel observability is boundary-only by design: the registry
        reads these counters after the run (obs.collector.finalize_system)
        instead of adding even a None-check to the per-event dispatch loop,
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

    # -- event factories ----------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Wrap *generator* as a :class:`Process` and start it now."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every child has fired."""
        return AllOf(self, list(events))

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Enqueue a triggered *event* for processing ``delay`` cycles ahead."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        heappush(self._queue, (self._now + int(delay), priority, seq, event))
        self._seq = seq + 1

    def schedule_callback(self, callback: Callable[[Event], None], event: Event) -> None:
        """Run *callback(event)* for an already-processed event via the queue.

        The deferred call is stored directly in the queue entry — a 5-tuple
        ``(time, priority, seq, callback, event)`` — so no shim
        :class:`Event` is allocated per call.  It is scheduled URGENT at
        the current cycle, so it runs before any NORMAL work pending for
        this cycle.
        """
        seq = self._seq
        heappush(self._queue, (self._now, URGENT, seq, callback, event))
        self._seq = seq + 1

    def call_later(
        self,
        delay: int,
        callback: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Enqueue a bare *callback(arg)* ``delay`` cycles ahead.

        The event-free counterpart of :meth:`schedule`: the deferred call
        rides the queue as the same 5-tuple form :meth:`schedule_callback`
        uses, so no :class:`Event` is allocated at all.  Useful for
        periodic housekeeping where the full event lifecycle would only
        add constant overhead.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        heappush(self._queue, (self._now + int(delay), priority, seq, callback, arg))
        self._seq = seq + 1

    # -- watchdog ------------------------------------------------------------
    def set_watchdog(self, callback: Callable[[int], None], deadline: int) -> None:
        """Install the observe-only stall watchdog.

        *callback(now)* runs inside the first dispatch whose event time is
        at or past *deadline* — :meth:`step`, :meth:`run` and
        :meth:`run_until_complete` share the firing point, since all three
        drive the same loop.  The callback must either raise (aborting the
        run, e.g. with :class:`~repro.errors.SimDeadlockError`) or call
        :meth:`defer_watchdog` to arm the next deadline; returning without
        deferring re-fires it every dispatch.
        """
        self._watchdog = callback
        self._watchdog_after = int(deadline)

    def defer_watchdog(self, deadline: int) -> None:
        """Move the watchdog deadline forward (progress was observed)."""
        self._watchdog_after = int(deadline)

    def clear_watchdog(self) -> None:
        self._watchdog = None

    def close(self) -> None:
        """Drop every pending entry and the watchdog.

        A finished run leaves entries behind (parked polls, housekeeping
        callbacks) whose bound methods point back into the model; the
        environment cannot run on afterwards.  The clock and the event
        counts stay as they were, but :attr:`queue_length` reads 0 from
        here on: read the leftover count before closing.
        """
        self._queue.clear()
        self._watchdog = None

    @property
    def has_watchdog(self) -> bool:
        return self._watchdog is not None

    # -- execution -----------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Time of the next event, or None if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else None

    def _loop(self, limit: int, target: Optional[Event], count: int) -> None:
        """The dispatch loop behind :meth:`run`, :meth:`step` and
        :meth:`run_until_complete`.

        Dispatches entries in ``(time, priority, seq)`` order and stops
        when the queue is empty, the next entry lies past *limit*,
        *target* has triggered, or *count* entries have run (a negative
        *count* never runs out).  Callers read the stop reason off the
        queue and the target.  Each entry leaves the queue before its
        payload runs, so a raising watchdog or an unhandled failed event
        consumes exactly that entry and leaves the rest intact.
        """
        queue = self._queue
        while queue:
            if target is not None and target._value is not _PENDING:
                return
            entry = queue[0]
            when = entry[0]
            if when > limit:
                return
            heappop(queue)
            self._now = when
            if self._watchdog is not None and when >= self._watchdog_after:
                self._watchdog(when)
            self._processed += 1
            if len(entry) == 5:
                # Deferred callback (schedule_callback/call_later): no
                # Event was allocated.
                entry[3](entry[4])
            else:
                event = entry[3]
                cbs = event.callbacks
                event.callbacks = PROCESSED
                if cbs is not None:
                    if cbs.__class__ is list:
                        for callback in cbs:
                            callback(event)
                    else:
                        # Single subscriber stored as a bare callable — the
                        # common case; no list was ever allocated for it.
                        cbs(event)
                if not event._ok and not event._defused:
                    # A failed event nobody handled: surface the error loudly.
                    raise event._value
            count -= 1
            if not count:
                return

    def step(self) -> None:
        """Process the single earliest event.

        Raises :class:`SimulationError` on an empty queue.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._loop(_NO_LIMIT, None, 1)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the clock passes *until*.

        Returns the final simulated time.  When *until* is given the clock
        is advanced to exactly *until* even if the last event fired
        earlier, mirroring a wall-clock measurement window.
        ``run(until=env.now)`` is an explicit zero-width window: it
        processes everything pending for the current cycle (events with
        ``time == now``), leaves strictly-later events queued, and returns
        with the clock unchanged.
        """
        if until is None:
            self._loop(_NO_LIMIT, None, -1)
        elif until < self._now:
            raise SchedulingError(f"until={until} is in the past (now={self._now})")
        else:
            self._loop(until, None, -1)
            self._now = max(self._now, int(until))
        return self._now

    def run_until_complete(self, process: Event, limit: Optional[int] = None) -> Any:
        """Run until *process* terminates; returns its value.

        Raises :class:`SimulationError` if the queue drains (deadlock) or the
        optional *limit* is reached before the process completes.
        """
        self._loop(_NO_LIMIT if limit is None else limit, process, -1)
        if not process.triggered:
            if self._queue:
                raise SimulationError(
                    f"simulation limit {limit} reached before {process!r} finished"
                )
            raise SimulationError(
                f"deadlock: event queue drained before {process!r} finished"
            )
        if not process.ok:
            raise process.value
        return process.value
