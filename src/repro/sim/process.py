"""Generator-based simulation processes.

A :class:`Process` drives a Python generator.  Each ``yield`` hands the
kernel one of two things:

* an :class:`~repro.sim.event.Event` — the process sleeps until that event
  fires and is resumed with the event's value (or the event's exception
  thrown into the generator, letting process code use ordinary
  ``try``/``except``);
* a non-negative ``int`` *delay* — a plain sleep.  The process resumes
  exactly *delay* cycles later with ``None``, and no event is allocated:
  the wake rides the kernel queue as one
  :meth:`~repro.sim.kernel.Environment.call_later` entry whose
  sequence number is drawn at the yield.  This is the only way to
  sleep; a callback that must run later is itself a ``call_later``.

* :data:`PARK` — the process parks: nothing is queued for it, and it
  stays alive with ``target`` ``None`` until the kernel callback that the
  process armed before parking calls ``Process._resume(process)``, which
  sends ``None``.  The stalled pop of :mod:`repro.vlink.library` parks on
  its line poll this way, so a poll that finds the line still empty
  costs one callback and no generator resume, and a
  :class:`~repro.sim.resources.Resource` waiter parks until a release
  queues its wake.

A process is itself an event that fires when the generator returns, so
processes can wait on each other (fork/join) by yielding the child process.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


#: Yielded by a process that a kernel callback it armed will resume.
PARK = object()


class Process(Event):
    """A running simulation process (also usable as a join event)."""

    __slots__ = ("generator", "_target")

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
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._target: Optional[Event] = None
        # The first slice runs from the kernel loop, not from the
        # constructor: a zero-delay wake, like every sleep.
        env.call_later(0, Process._resume, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on.

        ``None`` while the process is runnable, and also while it sleeps
        on a bare ``yield delay`` or is parked (``yield PARK``): neither
        has an event to report.
        """
        return self._target

    def _resume(self, event: Optional[Event] = None) -> None:
        """Advance the generator by one slice (kernel callback).

        *event* is the event the process waited on, or ``None`` when a
        sleep, a park (or the start) is over, which sends ``None``.  Hot
        path: runs once per yield across every process in the simulation,
        so the event's slots are read directly rather than through its
        properties, the sleep test comes first and the park test second
        (a park queues nothing: the callback the process armed resumes
        it).  A sleep's wake is queued through
        :meth:`Environment.call_later` with the unbound function and
        ``self`` as its argument; a bound method cached on the process
        would be a reference cycle.
        """
        env = self.env
        self._target = None
        env._active_process = self
        try:
            if event is None:
                result = self.generator.send(None)
            elif event._ok:
                result = self.generator.send(event._value)
            else:
                event._defused = True
                result = self.generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if result.__class__ is int and result >= 0:
            env.call_later(result, Process._resume, self)
            return
        if result is PARK:
            return
        if not isinstance(result, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {result!r}; processes must "
                    "yield a non-negative int delay, PARK, or an Event "
                    "(another process, env.all_of(...), ...)"
                )
            )
            return
        if result.env is not env:
            self.fail(SimulationError("yielded an event from a different Environment"))
            return
        self._target = result
        result.subscribe(self._resume)
