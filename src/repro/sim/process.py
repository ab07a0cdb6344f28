"""Generator-based simulation processes.

A :class:`Process` drives a Python generator.  Each ``yield`` hands the
kernel one of two things:

* a non-negative ``int`` *delay* — a plain sleep.  The process resumes
  exactly *delay* cycles later with ``None``: :meth:`Process._resume`
  returns the delay, and the dispatch loop re-arms the same
  ``(Process._resume, process)`` entry under ``(now + delay, NORMAL,
  seq)`` with the sequence number drawn at the yield (the kernel's
  return-a-delay contract, :mod:`repro.sim.kernel`).  This is the only
  way to sleep; a callback that must run later is itself a
  ``call_later``.
* :data:`PARK` — the process parks: nothing is queued for it, and it
  stays alive until the kernel callback that the process armed before
  parking resumes it, which sends ``None``: it queues
  ``call_later(0, Process._resume, process)``, or calls
  ``Process._resume(process)`` itself and queues the delay that call
  returns (the process's next sleep) with
  ``call_later(delay, Process._resume, process)``.  The
  stalled pop of :mod:`repro.vlink.library` parks on its line poll this
  way, so a poll that finds the line still empty costs one callback and
  no generator resume; a :class:`~repro.sim.resources.Resource` waiter
  parks until a release queues its wake, and a coherence packet parks
  until the network delivers it.

Anything else fails the process with a :class:`SimulationError`.

When the generator returns or raises, the process records the outcome
(its :class:`~repro.sim.event.Event` value) and queues one zero-delay
``Process._exit`` entry.  Dispatching it takes the process off the
environment's live set, which is how
:meth:`~repro.sim.kernel.Environment.run_until_complete` knows the run
is over, and re-raises the exception of a process that failed.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


#: Yielded by a process that a kernel callback it armed will resume.
PARK = object()


class Process(Event):
    """A running simulation process; its outcome is the generator's."""

    __slots__ = ("env", "generator")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(name or getattr(generator, "__name__", "process"))
        self.env = env
        self.generator = generator
        env._live[self] = None
        # The first slice runs from the kernel loop, not from the
        # constructor: a zero-delay wake, like every sleep.
        env.call_later(0, Process._resume, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def _resume(self) -> Optional[int]:
        """Advance the generator by one slice (kernel callback); returns
        the sleep delay, or None.

        Sends ``None``: the start, the end of a sleep and the end of a
        park all look alike to the generator.  Hot path: runs once per
        yield across every process in the simulation, so the sleep test
        comes first and the park test second (a park queues nothing: the
        callback the process armed resumes it).  A sleep returns its
        delay and the dispatch loop re-arms this entry (the unbound
        function with ``self`` as its argument; a bound method cached on
        the process would be a reference cycle).  A caller outside the
        loop must queue a returned delay itself, with
        ``call_later(delay, Process._resume, self)``, and nothing in
        between.
        """
        env = self.env
        env._active_process = self
        try:
            result = self.generator.send(None)
        except StopIteration as stop:
            env._active_process = None
            self._finish(True, stop.value)
            return None
        except BaseException as exc:
            env._active_process = None
            self._finish(False, exc)
            return None
        env._active_process = None

        if result.__class__ is int and result >= 0:
            return result
        if result is not PARK:
            self._finish(
                False,
                SimulationError(
                    f"process {self.name!r} yielded {result!r}; processes must "
                    "yield a non-negative int delay or PARK"
                ),
            )

    def _finish(self, ok: bool, value: Any) -> None:
        """Record the outcome and queue the exit under ``(now, NORMAL, seq)``."""
        if self._value is not _PENDING:
            raise SchedulingError(f"process {self.name!r} resumed after it finished")
        self._ok = ok
        self._value = value
        self.env.call_later(0, Process._exit, self)

    def _exit(self) -> None:
        """Leave the live set (kernel callback); a failure surfaces here."""
        del self.env._live[self]
        if not self._ok:
            raise self._value
