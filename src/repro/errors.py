"""Exception hierarchy for the SPAMeR reproduction package.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Raised for invalid uses of the discrete-event simulation kernel."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled into the past or double-triggered."""


class SimDeadlockError(SimulationError):
    """Raised by the stall watchdog: no queue progress for a full window.

    Carries enough diagnostics to name the stalled parties: ``tick`` is the
    cycle the watchdog fired at and ``blocked`` the names of the thread
    programs that had not finished (the blocked consumers/producers).  The
    message itself is the full diagnostic dump.
    """

    def __init__(self, message: str, tick: int = 0, blocked: tuple = ()) -> None:
        super().__init__(message)
        self.tick = int(tick)
        self.blocked = tuple(blocked)

    def __reduce__(self):
        # Explicit reconstruction: the parallel executor ships worker
        # failures across the process boundary by pickle, and the default
        # BaseException reduction only re-calls ``cls(*args)`` — which
        # would drop ``tick``/``blocked`` for any subclass that stops
        # storing them in ``__dict__``.  Keyword-free positional form keeps
        # this valid for subclasses with the same signature.
        return (type(self), (self.args[0] if self.args else "",
                             self.tick, self.blocked))


class VerificationError(ReproError):
    """Raised when the correctness subsystem finds a semantic violation.

    ``violations`` holds the structured
    :class:`~repro.verify.invariants.InvariantViolation` entries (or oracle
    mismatch strings) that triggered the failure.
    """

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)

    def __reduce__(self):
        # See SimDeadlockError.__reduce__: keep the structured violation
        # list intact across the worker-process boundary.
        return (type(self), (self.args[0] if self.args else "",
                             self.violations))


class ConfigError(ReproError):
    """Raised for inconsistent or out-of-range system configuration values."""


class DeviceError(ReproError):
    """Raised by hardware device models (VLRD/SRD, caches, bus)."""


class BufferFullError(DeviceError):
    """Raised when a hardware buffer (prodBuf/consBuf/specBuf) overflows.

    Device models normally apply backpressure instead of raising; this error
    signals an internal invariant violation (an admission-control bug).
    """


class RegistrationError(DeviceError):
    """Raised for invalid endpoint or specBuf registrations."""


class WorkloadError(ReproError):
    """Raised when a workload is mis-specified (bad topology, thread count)."""


class ProtocolError(ReproError):
    """Raised when the MOESI coherence substrate detects an illegal transition."""
