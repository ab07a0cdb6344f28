"""Message-queue transaction tracing (Section 4.2 / Figure 7).

The paper traces five event kinds per message-queue transaction and plots
them as marker rows over time:

* ``DATA_ARRIVE``    — producer data reaches the routing device;
* ``REQUEST_ARRIVE`` — consumer request reaches the routing device;
* ``LINE_VACATE``    — the consumer cacheline becomes ready for new data;
* ``LINE_FILL``      — producer data fills the consumer cacheline;
* ``FIRST_USE``      — the consumer first reads the delivered data.

:class:`TraceRecorder` collects timestamped events keyed by a transaction id
(one id per delivered message) and reconstructs :class:`Transaction` records,
including the paper's *potential speculative saving* analysis: for an
on-demand push gated by the request arrival, the saving is
``fill_time - max(data_arrive, line_vacate)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class EventKind(Enum):
    """The five trace rows of Figure 7 (bottom to top)."""

    DATA_ARRIVE = "data arrive"
    REQUEST_ARRIVE = "request arrive"
    LINE_VACATE = "$line vacate"
    LINE_FILL = "fill $line"
    FIRST_USE = "1st data use"


@dataclass(slots=True)
class TraceEvent:
    """One timestamped occurrence within a transaction."""

    time: int
    kind: EventKind
    transaction_id: int
    sqi: int
    detail: str = ""


@dataclass(slots=True)
class Transaction:
    """A reconstructed message delivery (one line of markers in Figure 7)."""

    transaction_id: int
    sqi: int
    data_arrive: Optional[int] = None
    request_arrive: Optional[int] = None
    line_vacate: Optional[int] = None
    line_fill: Optional[int] = None
    first_use: Optional[int] = None

    @property
    def speculative(self) -> bool:
        """True when delivery happened without a consumer request (red dashed)."""
        return self.request_arrive is None and self.line_fill is not None

    @property
    def complete(self) -> bool:
        return self.line_fill is not None and self.first_use is not None

    @property
    def request_bound(self) -> bool:
        """True when the request was the latest of the three fill prerequisites.

        These are the transactions the paper draws in dark black: speculation
        could have delivered the data earlier.
        """
        if self.speculative or self.line_fill is None or self.request_arrive is None:
            return False
        others = [t for t in (self.data_arrive, self.line_vacate) if t is not None]
        if not others:
            return False
        return self.request_arrive > max(others)

    @property
    def potential_saving(self) -> int:
        """Cycles a perfectly-timed speculative push could have saved."""
        if not self.request_bound or self.line_fill is None:
            return 0
        ready = max(t for t in (self.data_arrive, self.line_vacate) if t is not None)
        return max(0, self.line_fill - ready)

    @property
    def load_to_use(self) -> Optional[int]:
        """Cycles between cacheline fill and the consumer's first use."""
        if self.line_fill is None or self.first_use is None:
            return None
        return self.first_use - self.line_fill


class TraceRecorder:
    """Collects trace events; disabled recorders are near-zero-cost."""

    __slots__ = ("env", "enabled", "events", "_next_id", "_attached")

    def __init__(self, env: "Environment", enabled: bool = True) -> None:
        self.env = env
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._next_id = 0
        self._attached: List[object] = []

    def attach(self, bus) -> None:
        """Subscribe this recorder to a :class:`~repro.sim.hooks.HookBus`.

        The recorder observes :class:`~repro.sim.hooks.TraceHook` events
        instead of being called directly from device hot paths.  Disabled
        recorders do not subscribe at all, so publishers skip constructing
        events entirely (``bus.wants(TraceHook)`` stays False).  Attaching
        the same bus twice is a no-op.  :class:`~repro.system.System`
        attaches its recorder to its bus once, before building devices.
        """
        if not self.enabled or any(b is bus for b in self._attached):
            return
        from repro.sim.hooks import TraceHook

        self._attached.append(bus)
        bus.subscribe(TraceHook, self._on_trace_hook)

    def _on_trace_hook(self, event) -> None:
        self.events.append(
            TraceEvent(
                event.tick, event.kind, event.transaction_id, event.sqi,
                event.detail,
            )
        )

    def new_transaction(self) -> int:
        """Allocate a fresh transaction id (one per delivered message)."""
        tid = self._next_id
        self._next_id += 1
        return tid

    def record(self, kind: EventKind, transaction_id: int, sqi: int, detail: str = "") -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(self.env.now, kind, transaction_id, sqi, detail))

    def record_at(
        self,
        kind: EventKind,
        time: int,
        transaction_id: int,
        sqi: int,
        detail: str = "",
    ) -> None:
        """Record an event with an explicit timestamp.

        Some trace rows are only attributable to a transaction after the
        fact: a consumer request's arrival belongs to the transaction of the
        data it eventually matches, and a line-vacate event belongs to the
        *next* message filled into that line.  Both are recorded at match /
        fill time with their original timestamps.
        """
        if not self.enabled:
            return
        self.events.append(TraceEvent(int(time), kind, transaction_id, sqi, detail))

    # -- reconstruction ------------------------------------------------------
    def transactions(self) -> List[Transaction]:
        """Group events by transaction id into :class:`Transaction` records."""
        by_id: Dict[int, Transaction] = {}
        for ev in self.events:
            txn = by_id.setdefault(ev.transaction_id, Transaction(ev.transaction_id, ev.sqi))
            if ev.kind is EventKind.DATA_ARRIVE:
                txn.data_arrive = ev.time
            elif ev.kind is EventKind.REQUEST_ARRIVE:
                # Keep the *earliest* matched request, as the paper's plot does.
                if txn.request_arrive is None:
                    txn.request_arrive = ev.time
            elif ev.kind is EventKind.LINE_VACATE:
                txn.line_vacate = ev.time
            elif ev.kind is EventKind.LINE_FILL:
                txn.line_fill = ev.time
            elif ev.kind is EventKind.FIRST_USE:
                txn.first_use = ev.time
        return [by_id[k] for k in sorted(by_id)]

    def window(self, start: int, end: int) -> List[Transaction]:
        """Transactions whose fill falls inside ``[start, end)`` (Fig 7 zoom)."""
        return [
            t
            for t in self.transactions()
            if t.line_fill is not None and start <= t.line_fill < end
        ]

    # -- export ----------------------------------------------------------------
    def to_csv(self) -> str:
        """Export reconstructed transactions as CSV (one row per message).

        Columns match the Figure 7 event rows plus the derived analysis
        fields, ready for external plotting.
        """
        lines = [
            "transaction_id,sqi,data_arrive,request_arrive,line_vacate,"
            "line_fill,first_use,speculative,request_bound,potential_saving"
        ]
        for t in self.transactions():
            fields = [
                t.transaction_id,
                t.sqi,
                t.data_arrive,
                t.request_arrive,
                t.line_vacate,
                t.line_fill,
                t.first_use,
                int(t.speculative),
                int(t.request_bound),
                t.potential_saving,
            ]
            lines.append(",".join("" if f is None else str(f) for f in fields))
        return "\n".join(lines)

    def to_events_json(self) -> str:
        """Export the raw event stream as JSON (for timeline viewers)."""
        import json

        return json.dumps(
            [
                {
                    "time": ev.time,
                    "kind": ev.kind.value,
                    "transaction_id": ev.transaction_id,
                    "sqi": ev.sqi,
                    "detail": ev.detail,
                }
                for ev in self.events
            ]
        )
