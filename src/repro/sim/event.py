"""The one-shot outcome a simulation process ends with.

An :class:`Event` holds a name and, once triggered, a value and an
``ok`` flag: a successful outcome carries the value it returned, a
failed one the exception it raised.  :class:`~repro.sim.process.Process`
is the one kind of event the kernel builds; nothing subscribes to it,
yields it or queues it.  The kernel has one queue-entry form,
``(time, seq, fn, arg)`` (:mod:`repro.sim.kernel`): a process
sleeps by yielding a bare ``int``, parks until the callback it armed
resumes it, and its exit is itself such an entry, which is how a run
knows when every process has finished.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SchedulingError

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` payload.
_PENDING = object()


class Event:
    """A one-shot outcome: pending until triggered with a value.

    Parameters
    ----------
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("name", "_value", "_ok")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._value: Any = _PENDING
        self._ok: bool = True

    @property
    def triggered(self) -> bool:
        """True once the outcome is known."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the outcome is a success (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The outcome's payload (or exception when it failed)."""
        if self._value is _PENDING:
            raise SchedulingError(f"{self!r} has not been triggered yet")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = "triggered" if self.triggered else "pending"
        return f"<{label} {state}>"
