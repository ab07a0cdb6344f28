"""Workload framework: Table 2 topologies, shared counters, validation.

A workload declares its queue topology in the paper's ``(M:N)×k`` notation,
builds endpoints and thread programs against a :class:`~repro.system.System`,
and validates its own message accounting after the run (conservation: every
produced message is consumed exactly once).

Since the open-system refactor, request-generating threads are *sessions*
driven by an :class:`~repro.workloads.arrival.ArrivalProcess`: the per
request work is a reusable body generator and :meth:`Workload.drive` paces
its iterations by the planned arrival schedule.  The default
:class:`~repro.workloads.arrival.ClosedBatch` plan is all-zero ticks, so
the driver degenerates to the historical plain loop — no extra events, no
extra randomness, byte-identical golden figures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.workloads.arrival import ArrivalProcess, resolve_arrival

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.thread import ThreadContext
    from repro.sim.request import RequestLog, RequestRecord
    from repro.system import System


@dataclass(frozen=True)
class QueueSpec:
    """One ``(M:N)×k`` topology term of Table 2."""

    producers: int
    consumers: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.producers < 1 or self.consumers < 1 or self.count < 1:
            raise WorkloadError(f"invalid queue spec {self!r}")

    def label(self) -> str:
        return f"({self.producers}:{self.consumers})x{self.count}"


class WorkCounter:
    """A shared atomic work counter for M:N consumer termination.

    With several consumers on one SQI, the routing device decides the
    per-consumer message distribution dynamically, so workers cannot expect
    fixed counts; instead they loop ``pop_until(all_work_done)`` against
    this counter — the standard shared-counter termination idiom of
    task-parallel runtimes.  (The counter itself would live in one coherent
    cacheline; its increment cost is charged by the caller via
    ``ctx.compute``.)

    ``label`` names the queue/stage the counter guards so an overrun
    diagnostic points at the offender instead of just printing numbers.
    :meth:`retire` shrinks the target when a churned session departs
    without issuing its full quota — the remaining consumers then
    terminate at the reduced count instead of tripping conservation.
    """

    def __init__(self, target: int, label: str = "") -> None:
        if target < 0:
            raise WorkloadError(f"negative work target {target}")
        self.target = target
        self.label = label
        self.done_count = 0
        self.retired = 0

    def mark_done(self, amount: int = 1) -> None:
        self.done_count += amount
        if self.done_count > self.target:
            where = f" on {self.label!r}" if self.label else ""
            raise WorkloadError(
                f"work counter{where} overran: {self.done_count} > "
                f"{self.target} (duplicate message delivery?)"
            )

    def retire(self, amount: int) -> None:
        """Lower the target by *amount* (a departed session's shortfall)."""
        if amount < 0:
            where = f" on {self.label!r}" if self.label else ""
            raise WorkloadError(
                f"cannot retire negative work {amount} from work "
                f"counter{where}"
            )
        if amount == 0:
            return
        if self.target - amount < self.done_count:
            where = f" on {self.label!r}" if self.label else ""
            raise WorkloadError(
                f"cannot retire {amount} from work counter{where}: "
                f"{self.done_count} of {self.target} already done"
            )
        self.target -= amount
        self.retired += amount

    def all_done(self) -> bool:
        return self.done_count >= self.target


class Workload(ABC):
    """Base class for the 8 task-parallel benchmarks (Table 2)."""

    #: Registry key and Table 2 name, e.g. ``"ping-pong"``.
    name: str = "abstract"
    #: Table 2 description.
    description: str = ""
    #: Whether this workload's request-generating threads can be paced by
    #: an open arrival process.  Dependency-driven patterns (halo, sweep:
    #: every iteration consumes the previous one's output, so there is no
    #: exogenous request to schedule) stay closed-only.
    open_capable: bool = False

    def __init__(self, scale: float = 1.0, arrival=None) -> None:
        if scale <= 0:
            raise WorkloadError(f"scale must be > 0, got {scale}")
        self.scale = scale
        #: The arrival process pacing this run's sessions (closed batch
        #: unless the caller supplies an open one).
        self.arrival: ArrivalProcess = resolve_arrival(arrival)
        if not self.arrival.is_closed and not self.open_capable:
            raise WorkloadError(
                f"workload {self.name!r} is closed-only (dependency-driven); "
                f"it cannot run under the {self.arrival.name!r} arrival "
                "process"
            )
        #: Multiset of produced payload keys, filled during build/run.
        self.produced: Dict[object, int] = {}
        #: Multiset of consumed payload keys.
        self.consumed: Dict[object, int] = {}
        #: Open-system bookkeeping: the system's request log (bound by
        #: :meth:`plan_sessions` on open runs) and the payload-key →
        #: in-flight record map the lifecycle helpers consult.  Both stay
        #: empty on closed runs, so the helpers are dictionary-miss
        #: no-ops there.
        self._request_log: Optional["RequestLog"] = None
        self._pending_requests: Dict[object, "RequestRecord"] = {}

    # -- declarative interface ---------------------------------------------------
    @abstractmethod
    def topology(self) -> List[QueueSpec]:
        """The queue topology in Table 2 notation."""

    @abstractmethod
    def num_threads(self) -> int:
        """Number of software threads (each pinned to one core)."""

    @abstractmethod
    def build(self, system: "System") -> None:
        """Create queues/endpoints and spawn this workload's threads."""

    def session_quotas(self) -> Dict[str, int]:
        """Nominal requests per session, before churn (open-capable only).

        The load sweep uses this to convert a target offered load into a
        per-session rate without building a system.
        """
        raise WorkloadError(
            f"workload {self.name!r} is closed-only; it has no sessions"
        )

    # -- open-system driving -----------------------------------------------------
    def plan_sessions(
        self, system: "System", quotas: Dict[str, int]
    ) -> Dict[str, List[int]]:
        """Arrival ticks per session (schedule length = issued requests).

        Called once at build time; on open arrivals this also activates
        the system's request log.  Closed-batch plans are all zeros and
        touch no RNG stream, so default builds are unchanged.
        """
        plans = {
            session: self.arrival.plan(system.rng, session, count)
            for session, count in quotas.items()
        }
        if not self.arrival.is_closed:
            self._request_log = system.requests.activate()
        return plans

    def drive(
        self,
        ctx: "ThreadContext",
        session: str,
        ticks: List[int],
        body: Callable[[int, Optional["RequestRecord"]], Generator],
    ) -> Generator:
        """Run *body* once per planned arrival, pacing an open session.

        *body(i, record)* is the per-request session work (a generator to
        ``yield from``); *record* is the request's lifecycle record, or
        None on closed runs.  A session sleeps (a plain ``yield delay``,
        the core stays idle) until the next arrival is due; a backlogged
        session admits late, which the record's ``queue_delay`` measures.

        Closed batch: every tick is 0, the ``if tick`` guard skips both
        the wait and the tick comparison, and no record is opened — the
        loop is event-for-event identical to the historical inline form.
        """
        log = self._request_log
        for i, tick in enumerate(ticks):
            record = None
            if tick:
                delay = int(tick) - ctx.env.now
                if delay > 0:
                    yield delay
            if log is not None:
                record = log.open(session, i, tick, ctx.env.now)
            yield from body(i, record)

    def track_request(self, key: object, record: Optional["RequestRecord"]) -> None:
        """Associate a produced payload *key* with its request record, so
        downstream consumers can stamp first-pop/completion by key."""
        if record is not None:
            self._pending_requests[key] = record

    def request_first_pop(self, key: object, tick: int) -> None:
        """Stamp FIRST_POP for the request tracked under *key* (no-op for
        untracked keys — i.e. always, on closed runs)."""
        record = self._pending_requests.get(key)
        if record is not None:
            self._request_log.touch(record, tick)

    def request_complete(self, key: object, tick: int) -> None:
        """Stamp COMPLETED (and FIRST_POP if missing) for *key*'s request
        and drop the tracking entry."""
        record = self._pending_requests.pop(key, None)
        if record is not None:
            self._request_log.complete(record, tick)

    # -- helpers -------------------------------------------------------------------
    def scaled(self, n: int) -> int:
        """Scale a message/iteration count by the workload's scale factor."""
        return max(1, int(round(n * self.scale)))

    def note_produced(self, key: object) -> None:
        self.produced[key] = self.produced.get(key, 0) + 1

    def note_consumed(self, key: object) -> None:
        self.consumed[key] = self.consumed.get(key, 0) + 1

    def validate(self) -> None:
        """Check message conservation after the run.

        Raises :class:`WorkloadError` when any message was lost or
        duplicated — the core functional invariant of the queue substrate.
        """
        if self.produced != self.consumed:
            missing = {
                k: v - self.consumed.get(k, 0)
                for k, v in self.produced.items()
                if self.consumed.get(k, 0) != v
            }
            extra = {
                k: v - self.produced.get(k, 0)
                for k, v in self.consumed.items()
                if self.produced.get(k, 0) != v
            }
            raise WorkloadError(
                f"{self.name}: message conservation violated; "
                f"missing={dict(list(missing.items())[:5])} "
                f"extra={dict(list(extra.items())[:5])}"
            )
        if self._request_log is not None and self._pending_requests:
            raise WorkloadError(
                f"{self.name}: {len(self._pending_requests)} tracked "
                "requests never completed"
            )

    def total_messages(self) -> int:
        """Messages produced (available after a run)."""
        return sum(self.produced.values())
