"""Core model: one pinned software thread per core (Section 4.1).

The benchmarks pin each thread to a core "to reduce the migration overhead",
so the core model is deliberately thin: a core runs exactly one thread
program (a generator) and tracks busy/idle accounting.  The queue library
charges the VL/SPAMeR instruction costs (``push_instruction_cost``,
``fetch_instruction_cost``); out-of-order micro-architecture is abstracted
into the transaction-level costs of :class:`~repro.config.SystemConfig`
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.kernel import Environment


class Core:
    """One CPU core with a single pinned thread."""

    def __init__(self, env: "Environment", core_id: int, config: "SystemConfig") -> None:
        self.env = env
        self.core_id = core_id
        self.config = config
        self.thread: Optional[Process] = None
        self.thread_name: Optional[str] = None

    @property
    def busy(self) -> bool:
        return self.thread is not None and self.thread.is_alive

    def pin(self, program: Generator, name: str) -> Process:
        """Pin *program* to this core; at most one thread per core."""
        if self.thread is not None:
            raise WorkloadError(
                f"core {self.core_id} already runs {self.thread_name!r}; the "
                "benchmarks pin one thread per core (Section 4.1)"
            )
        self.thread = self.env.process(program, name=name)
        self.thread_name = name
        return self.thread

    def compute(self, cycles: int) -> int:
        """Model *cycles* of pure computation between queue operations.

        Returns the delay as an ``int`` for the calling thread to
        ``yield`` (a process sleep; no event is allocated).
        """
        if cycles < 0:
            raise WorkloadError(f"negative compute time {cycles}")
        return int(cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.core_id} thread={self.thread_name!r}>"
