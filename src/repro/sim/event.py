"""Core event primitives of the discrete-event simulation kernel.

The kernel follows the classic *event/process* design (as popularised by
SimPy, which is not available offline here): an :class:`Event` is a one-shot
future that callbacks subscribe to; processes are generators that yield
events and are resumed by the kernel when those events fire.

Events move through three states::

    PENDING  --succeed()/fail()-->  TRIGGERED  --kernel step-->  PROCESSED

``TRIGGERED`` means the event sits in the kernel's queue with a value or an
exception attached; ``PROCESSED`` means its callbacks have run.

Events never talk to the queue structure directly — they go through
``Environment.schedule``/``schedule_callback``.  Every class here carries
``__slots__``, so an event costs no per-instance dict.

Allocation notes (docs/PERFORMANCE.md §5): most events have exactly zero
or one subscriber, so the ``callbacks`` slot is *polymorphic* instead of
eagerly holding a list — ``None`` (no subscriber yet), a bare callable
(exactly one), a list (two or more), or the :data:`PROCESSED` sentinel
once the kernel has dispatched the event.  The per-event callbacks
list only exists for genuine fan-out (``AllOf`` children with extra
watchers).  Use :meth:`Event.subscribe` to add callbacks — never touch
the ``callbacks`` slot directly.

There is no timer event.  A process that sleeps yields a bare
non-negative ``int`` delay and the kernel queues its wake as an
event-free entry (:mod:`repro.sim.process`); a network transit or bus
service completion is a continuation queued the same way
(:meth:`repro.mem.bus.CoherenceNetwork.transit_then`); and a delayed
callback is :meth:`~repro.sim.kernel.Environment.call_later`.  Events
are left for what something subscribes to or joins: a process's
completion and ``AllOf``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` payload.
_PENDING = object()

#: Sentinel stored in the ``callbacks`` slot once the kernel has run the
#: event's callbacks.  Distinct from ``None`` (= "no subscriber yet") so
#: the no-subscriber state needs no list allocation.
PROCESSED = object()


class Event:
    """A one-shot occurrence at a simulated time instant.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    name:
        Optional label used in ``repr`` and trace output.
    """

    __slots__ = ("env", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment", name: Optional[str] = None) -> None:
        self.env = env
        self.name = name
        #: Subscriber state: ``None`` | one callable | list | PROCESSED.
        #: Mutate only through :meth:`subscribe` (the kernel's dispatch is
        #: the one other writer, when it retires the event).
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when it failed)."""
        if self._value is _PENDING:
            raise SchedulingError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self.triggered:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        If nothing waits on a failed event the kernel re-raises it at the top
        level (unless :meth:`defused` was called), so failures cannot pass
        silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Add *callback*; runs immediately via the queue if already processed."""
        cbs = self.callbacks
        if cbs is None:
            # First subscriber: store the bare callable — the overwhelmingly
            # common case (a process resuming, a single watcher), so no
            # list is allocated at all.
            self.callbacks = callback
        elif cbs is PROCESSED:
            # Already processed: schedule an immediate delivery so that the
            # callback still runs from the kernel loop, preserving ordering.
            # This lands URGENT at the current cycle, ahead of any NORMAL
            # work still pending for it.
            self.env.schedule_callback(callback, self)
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self.callbacks = [cbs, callback]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at t={self.env.now}>"


class AllOf(Event):
    """Composite event that fires once *all* of its children have fired."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env, name="AllOf")
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        for ev in self.events:
            ev.subscribe(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev.value for ev in self.events})
