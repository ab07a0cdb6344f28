"""Per-request lifecycle records for open-system runs.

The open-system traffic layer (:mod:`repro.workloads.arrival`) injects
*requests* into sessions over simulated time; each one gets a
:class:`RequestRecord` mirroring :class:`~repro.sim.transaction.
TransactionRecord` — an explicit, queryable journey instead of scattered
counters.  Lifecycle::

    ARRIVED ──> ADMITTED ──> FIRST_POP ──> COMPLETED

* **arrived** — the arrival process scheduled the request (exogenous);
* **admitted** — the session thread began processing it (the gap is the
  session's own backlog: requests queue *behind the producer* when the
  system cannot drain them as fast as they arrive);
* **first-pop** — a consumer popped the request's first message (the
  moment speculation can win or lose);
* **completed** — the request's final message was consumed downstream.

``sojourn`` (completion − arrival) is the open-system response time whose
p50/p99/p999 the load sweep reports; ``queue_delay`` (admission − arrival)
isolates producer-side backlog from in-fabric time.

Records are plain bookkeeping, exactly like transaction records: they
schedule no simulation events and draw no randomness, so an *inactive*
:class:`RequestLog` (every closed-batch run) costs nothing and perturbs
nothing — golden metrics and traces stay byte-identical.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.hooks import HookBus


class ReqState(Enum):
    """Lifecycle states of one open-system request."""

    ARRIVED = "arrived"
    ADMITTED = "admitted"
    FIRST_POP = "first-pop"
    COMPLETED = "completed"


#: Legal lifecycle edges.  FIRST_POP may be skipped for requests whose
#: first consumption *is* their completion (single-hop workloads stamp
#: both at once).
LEGAL_REQUEST_TRANSITIONS: Dict[Optional[ReqState], frozenset] = {
    None: frozenset({ReqState.ARRIVED}),
    ReqState.ARRIVED: frozenset({ReqState.ADMITTED}),
    ReqState.ADMITTED: frozenset({ReqState.FIRST_POP, ReqState.COMPLETED}),
    ReqState.FIRST_POP: frozenset({ReqState.COMPLETED}),
    ReqState.COMPLETED: frozenset(),
}


class ReqStamp(NamedTuple):
    """One timestamped request state transition."""

    state: ReqState
    tick: int


class RequestRecord:
    """The queryable journey of one open-system request."""

    __slots__ = ("rid", "session", "seq", "stamps")

    def __init__(self, rid: int, session: str, seq: int) -> None:
        self.rid = rid
        #: Session (client) name, e.g. ``"incast-prod2"``.
        self.session = session
        #: Per-session request sequence number.
        self.seq = seq
        self.stamps: List[ReqStamp] = []

    # ------------------------------------------------------------------ record
    def stamp(self, state: ReqState, tick: int) -> ReqStamp:
        entry = ReqStamp(state, int(tick))
        self.stamps.append(entry)
        return entry

    # ------------------------------------------------------------------- query
    @property
    def state(self) -> Optional[ReqState]:
        return self.stamps[-1].state if self.stamps else None

    def first(self, state: ReqState) -> Optional[int]:
        for s in self.stamps:
            if s.state is state:
                return s.tick
        return None

    @property
    def arrival(self) -> Optional[int]:
        return self.first(ReqState.ARRIVED)

    @property
    def admission(self) -> Optional[int]:
        return self.first(ReqState.ADMITTED)

    @property
    def first_pop(self) -> Optional[int]:
        return self.first(ReqState.FIRST_POP)

    @property
    def completion(self) -> Optional[int]:
        return self.first(ReqState.COMPLETED)

    @property
    def completed(self) -> bool:
        return self.completion is not None

    @property
    def sojourn(self) -> Optional[int]:
        """End-to-end response time: completion − arrival (None if open)."""
        start, end = self.arrival, self.completion
        if start is None or end is None:
            return None
        return end - start

    @property
    def queue_delay(self) -> Optional[int]:
        """Producer-side backlog: admission − arrival."""
        start, end = self.arrival, self.admission
        if start is None or end is None:
            return None
        return end - start

    @property
    def service(self) -> Optional[int]:
        """In-system time: completion − admission."""
        start, end = self.admission, self.completion
        if start is None or end is None:
            return None
        return end - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.state.value if self.state else "empty"
        return (
            f"<RequestRecord #{self.rid} {self.session}[{self.seq}] "
            f"state={state}>"
        )


class RequestLog:
    """Allocates request records, tracks sojourn stats, publishes hooks.

    Inactive by default — every closed-batch run leaves it untouched so
    the open-system layer costs exactly nothing there.  An open-capable
    workload calls :meth:`activate` at build time; from then on each
    lifecycle stamp also feeds the sojourn reservoir and (when anybody
    listens) a :class:`~repro.sim.hooks.RequestHook`.
    """

    __slots__ = ("hooks", "active", "_records", "_next_id", "sojourn_stats",
                 "completed")

    def __init__(self, hooks: Optional["HookBus"] = None) -> None:
        self.hooks = hooks
        self.active = False
        self._records: List[RequestRecord] = []
        self._next_id = 0
        from repro.sim.stats import RunningStats

        #: Per-request sojourn samples (completion − arrival), the
        #: reservoir behind the p50/p99/p999 load-sweep report.
        self.sojourn_stats = RunningStats(keep_samples=True)
        self.completed = 0

    def activate(self) -> "RequestLog":
        self.active = True
        return self

    # ------------------------------------------------------------------ record
    def open(
        self, session: str, seq: int, arrival_tick: int, admission_tick: int
    ) -> RequestRecord:
        """Create a record already ARRIVED and ADMITTED.

        Both stamps land at once because the session driver only runs a
        request once it reaches it — the arrival tick is the planned
        (possibly past) schedule entry, the admission tick is now.
        """
        record = RequestRecord(self._next_id, session, seq)
        self._next_id += 1
        record.stamp(ReqState.ARRIVED, arrival_tick)
        record.stamp(ReqState.ADMITTED, admission_tick)
        self._records.append(record)
        self._publish(record, ReqState.ARRIVED, arrival_tick)
        self._publish(record, ReqState.ADMITTED, admission_tick)
        return record

    def touch(self, record: RequestRecord, tick: int) -> None:
        """Stamp FIRST_POP once (later calls for the same record no-op)."""
        if record.first_pop is not None or record.completed:
            return
        record.stamp(ReqState.FIRST_POP, tick)
        self._publish(record, ReqState.FIRST_POP, tick)

    def complete(self, record: RequestRecord, tick: int) -> None:
        """Stamp COMPLETED and fold the sojourn into the reservoir."""
        if record.completed:
            return
        if record.first_pop is None:
            # Single-hop flows: first consumption is the completion.
            record.stamp(ReqState.FIRST_POP, tick)
            self._publish(record, ReqState.FIRST_POP, tick)
        record.stamp(ReqState.COMPLETED, tick)
        self.completed += 1
        sojourn = record.sojourn
        if sojourn is not None:
            self.sojourn_stats.add(sojourn)
        self._publish(record, ReqState.COMPLETED, tick)

    def _publish(self, record: RequestRecord, state: ReqState, tick: int) -> None:
        hooks = self.hooks
        if hooks is None:
            return
        from repro.sim.hooks import RequestHook

        if RequestHook not in hooks.wanted:
            return
        hooks.publish(
            RequestHook(
                tick=tick,
                rid=record.rid,
                session=record.session,
                seq=record.seq,
                state=state.value,
                sojourn=record.sojourn if state is ReqState.COMPLETED else None,
            )
        )

    # ----------------------------------------------------------------- queries
    def records(self) -> List[RequestRecord]:
        """Every record, creation order (deterministic)."""
        return list(self._records)

    @property
    def opened(self) -> int:
        return self._next_id

    def in_flight(self) -> List[RequestRecord]:
        return [r for r in self._records if not r.completed]

    def percentile(self, q: float) -> float:
        """Sojourn percentile over completed requests (0.0 when empty)."""
        stats = self.sojourn_stats
        return stats.percentile(q) if stats.n else 0.0
