"""Thread-program abstraction.

A *thread program* is a generator function taking a :class:`ThreadContext`;
workloads are written against this context rather than raw simulator
objects, which keeps benchmark code looking like the paper's pseudo-code::

    def consumer(ctx):
        for _ in range(n_messages):
            msg = yield from ctx.pop(endpoint)
            yield ctx.jittered(work_cycles, 0.1)

A compute step is a plain int the program yields (a process sleep):
``yield ctx.compute(n)`` burns exactly *n* cycles, ``yield
ctx.jittered(base, fraction)`` burns ``base ± fraction`` cycles drawn from
the thread's private RNG stream, so compute times vary realistically but
reproducibly.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Core
    from repro.system import System
    from repro.vlink.endpoint import ConsumerEndpoint, ProducerEndpoint


class ThreadContext:
    """Per-thread façade over the system: queue ops, compute, RNG."""

    def __init__(self, system: "System", core: "Core", name: str) -> None:
        self.system = system
        self.core = core
        self.name = name
        self.env = system.env
        self._rng = system.rng
        self._jitter_stream = f"compute:{name}"

    # -- queue operations -----------------------------------------------------
    def push(self, producer: "ProducerEndpoint", payload: Any) -> Generator:
        """Enqueue *payload*; ``yield from`` inside a thread program."""
        if producer.core_id != self.core.core_id:
            raise WorkloadError(
                f"{self.name}: producer endpoint pinned to core "
                f"{producer.core_id}, thread runs on {self.core.core_id}"
            )
        return self.system.library.push(producer, payload)

    def pop(self, consumer: "ConsumerEndpoint") -> Generator:
        """Dequeue one message; ``yield from`` inside a thread program."""
        if consumer.core_id != self.core.core_id:
            raise WorkloadError(
                f"{self.name}: consumer endpoint pinned to core "
                f"{consumer.core_id}, thread runs on {self.core.core_id}"
            )
        return self.system.library.pop(consumer)

    def pop_until(self, consumer: "ConsumerEndpoint", stop_check) -> Generator:
        """Dequeue one message or None once *stop_check()* is true."""
        if consumer.core_id != self.core.core_id:
            raise WorkloadError(
                f"{self.name}: consumer endpoint pinned to core "
                f"{consumer.core_id}, thread runs on {self.core.core_id}"
            )
        return self.system.library.pop_until(consumer, stop_check)

    # -- computation ------------------------------------------------------------
    def compute(self, cycles: int) -> int:
        """*cycles* of work on this thread's core: ``yield ctx.compute(n)``."""
        return self.core.compute(cycles)

    def jittered(self, base: int, fraction: float) -> int:
        """``base ± fraction`` cycles of work, drawn from this thread's
        stream: ``yield ctx.jittered(base, fraction)``."""
        return self._rng.jitter(self._jitter_stream, base, fraction)

    @property
    def now(self) -> int:
        return self.env._now
