"""Live invariant checking and the stall watchdog.

:class:`InvariantChecker` is a plain :class:`~repro.sim.hooks.HookBus`
subscriber — attaching it never changes a run's event sequence.  It
enforces, while the simulation runs:

* **Per-link FIFO order** — on a single-consumer SQI, each producer's
  messages must be delivered in push order (the guarantee
  ``tests/test_properties.py`` states; multi-consumer SQIs shard a
  producer's stream across endpoints, so only duplication is checkable).
* **Message conservation** — no message delivered twice, none fabricated
  (delivered without a matching push), none silently lost through the
  specBuf path (checked at quiesce).
* **Cacheline state-machine legality** — a fill of a VALID line or a
  vacate of an EMPTY line can only come from a device bug (the legal miss
  is the distinct ``failed-fill`` transition); a burst ``rollback`` may
  only invalidate a line the checker saw filled, and never after the
  message was popped.
* **Transaction lifecycle legality** — every stamp must follow an edge of
  :data:`~repro.sim.transaction.LEGAL_TRANSITIONS`; additionally a message
  must not re-enter the mapping pipeline after a *hit* response (the
  double-delivery signature) — unless that hit was undone by a burst
  rollback (``ROLLED_BACK``), which legalises exactly one re-entry — and
  no in-flight message records may remain at quiesce.

The :class:`~repro.sim.hooks.HookBus` isolates subscriber exceptions (they
are captured, not raised), so the checker *accumulates*
:class:`InvariantViolation` records and raises a
:class:`~repro.errors.VerificationError` from :meth:`InvariantChecker.quiesce`
— call it after the run (the runner does when built with ``verify=True``).

:class:`StallWatchdog` is the deadlock/livelock leg: an observe-only
kernel callback that polls cheap progress counters and raises
:class:`~repro.errors.SimDeadlockError` with a diagnostic dump — blocked
thread names, per-SQI buffer occupancy, specBuf in-flight state — when no
queue progress happens for a full window.  It deliberately does *not*
subscribe to hooks: a subscriber would force event-object construction on
every lifecycle stamp, taxing runs that only want the watchdog.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple, TYPE_CHECKING

from repro.errors import SimDeadlockError, VerificationError
from repro.sim.hooks import DeliveryHook, LineHook, PushHook, TransactionHook
from repro.sim.transaction import (
    TERMINAL_MESSAGE_STATES,
    TxnState,
    is_legal_transition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class InvariantViolation(NamedTuple):
    """One semantic violation the checker observed."""

    tick: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[tick {self.tick}] {self.rule}: {self.detail}"


class InvariantChecker:
    """Hook-bus subscriber enforcing the queue-semantics invariants."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.violations: List[InvariantViolation] = []
        #: (sqi, producer_id) -> pushed seq numbers, in push order.
        self._pushed: Dict[Tuple[int, int], List[int]] = {}
        #: (sqi, producer_id) -> last delivered seq (FIFO monotonicity).
        self._last_delivered: Dict[Tuple[int, int], int] = {}
        #: (sqi, producer_id, seq) already delivered (duplicate detection).
        self._delivered: Set[Tuple[int, int, int]] = set()
        #: (kind, tid) -> last observed lifecycle state.
        self._txn_state: Dict[Tuple[str, int], TxnState] = {}
        #: (kind, tid) whose most recent RESPONDED stamp was a hit.
        self._hit_responded: Set[Tuple[str, int]] = set()
        #: Message tids that reached RETIRED (double-delivery net).
        self._retired_tids: Set[int] = set()
        #: (endpoint_id, index) -> checker's view of line occupancy.
        self._line_valid: Dict[Tuple[int, int], bool] = {}
        #: sqi -> number of consumer endpoints (cached; None = unknown yet).
        self._consumers_per_sqi: Dict[int, int] = {}
        self.events_seen = 0
        self._subs = [
            system.hooks.subscribe(PushHook, self._on_push),
            system.hooks.subscribe(DeliveryHook, self._on_delivery),
            system.hooks.subscribe(LineHook, self._on_line),
            system.hooks.subscribe(TransactionHook, self._on_transaction),
        ]

    # ----------------------------------------------------------------- teardown
    def detach(self) -> None:
        """Unsubscribe from the bus (idempotent)."""
        for sub in self._subs:
            self.system.hooks.unsubscribe(sub)
        self._subs = []

    # ---------------------------------------------------------------- recording
    def _flag(self, tick: int, rule: str, detail: str) -> None:
        self.violations.append(InvariantViolation(int(tick), rule, detail))

    def _single_consumer(self, sqi: int) -> bool:
        count = self._consumers_per_sqi.get(sqi)
        if count is None:
            count = sum(
                1 for ep in self.system.library.consumers if ep.sqi == sqi
            )
            self._consumers_per_sqi[sqi] = count
        return count == 1

    # -------------------------------------------------------------- subscribers
    def _on_push(self, event: PushHook) -> None:
        self.events_seen += 1
        self._pushed.setdefault((event.sqi, event.producer_id), []).append(
            event.seq
        )

    def _on_delivery(self, event: DeliveryHook) -> None:
        self.events_seen += 1
        key = (event.sqi, event.producer_id, event.seq)
        if key in self._delivered:
            self._flag(
                event.tick,
                "conservation/duplicate-delivery",
                f"sqi={event.sqi} producer={event.producer_id} "
                f"seq={event.seq} delivered twice",
            )
        self._delivered.add(key)
        pushed = self._pushed.get((event.sqi, event.producer_id), ())
        if event.seq not in pushed:
            self._flag(
                event.tick,
                "conservation/fabricated-message",
                f"sqi={event.sqi} producer={event.producer_id} "
                f"seq={event.seq} delivered but never pushed",
            )
        if self._single_consumer(event.sqi):
            last = self._last_delivered.get((event.sqi, event.producer_id))
            if last is not None and event.seq <= last:
                self._flag(
                    event.tick,
                    "fifo/out-of-order",
                    f"sqi={event.sqi} producer={event.producer_id}: "
                    f"seq {event.seq} delivered after seq {last}",
                )
            self._last_delivered[(event.sqi, event.producer_id)] = event.seq

    def _on_line(self, event: LineHook) -> None:
        self.events_seen += 1
        key = (event.endpoint_id, event.index)
        valid = self._line_valid.get(key, False)
        if event.transition == "fill":
            if valid:
                self._flag(
                    event.tick,
                    "cacheline/fill-of-valid-line",
                    f"endpoint {event.endpoint_id} line {event.index} filled "
                    "while VALID (a legal miss is 'failed-fill')",
                )
            if (
                event.transaction_id is not None
                and event.transaction_id in self._retired_tids
            ):
                self._flag(
                    event.tick,
                    "conservation/refill-of-retired-message",
                    f"message txn#{event.transaction_id} stashed again into "
                    f"endpoint {event.endpoint_id} line {event.index} after "
                    "it was already popped",
                )
            self._line_valid[key] = True
        elif event.transition == "vacate":
            if not valid:
                self._flag(
                    event.tick,
                    "cacheline/vacate-of-empty-line",
                    f"endpoint {event.endpoint_id} line {event.index} "
                    "vacated while EMPTY",
                )
            self._line_valid[key] = False
        elif event.transition == "failed-fill":
            if not valid:
                self._flag(
                    event.tick,
                    "cacheline/failed-fill-of-empty-line",
                    f"endpoint {event.endpoint_id} line {event.index}: miss "
                    "response from an EMPTY line",
                )
        elif event.transition == "rollback":
            # Burst misprediction recovery: an unconfirmed fill invalidated
            # before any consumer saw it.  Legal only on a line the checker
            # saw filled, and only before the message was popped.
            if not valid:
                self._flag(
                    event.tick,
                    "cacheline/rollback-of-empty-line",
                    f"endpoint {event.endpoint_id} line {event.index} "
                    "rolled back while EMPTY",
                )
            if (
                event.transaction_id is not None
                and event.transaction_id in self._retired_tids
            ):
                self._flag(
                    event.tick,
                    "cacheline/rollback-after-pop",
                    f"message txn#{event.transaction_id} rolled back from "
                    f"endpoint {event.endpoint_id} line {event.index} after "
                    "the consumer already popped it",
                )
            self._line_valid[key] = False

    def _on_transaction(self, event: TransactionHook) -> None:
        self.events_seen += 1
        record = event.record
        key = (record.kind, record.tid)
        prev = self._txn_state.get(key)
        if not is_legal_transition(prev, event.state):
            prev_name = prev.value if prev is not None else "(unstamped)"
            self._flag(
                event.tick,
                "lifecycle/illegal-transition",
                f"{record.kind}#{record.tid} sqi={record.sqi}: "
                f"{prev_name} -> {event.state.value}",
            )
        if event.state in (TxnState.MAPPED, TxnState.BUFFERED):
            if key in self._hit_responded:
                self._flag(
                    event.tick,
                    "lifecycle/re-entry-after-hit",
                    f"{record.kind}#{record.tid} sqi={record.sqi} re-entered "
                    "the mapping pipeline after a hit response "
                    "(double-delivery signature)",
                )
        if event.state is TxnState.RESPONDED:
            if event.detail == "hit":
                self._hit_responded.add(key)
            else:
                self._hit_responded.discard(key)
        if event.state is TxnState.ROLLED_BACK:
            # A burst rollback undoes the speculative fill (hit responses
            # included — the landed line is invalidated before any pop), so
            # the message legally re-enters the pipeline exactly once.
            self._hit_responded.discard(key)
        if event.state is TxnState.RETIRED and record.kind == "message":
            self._retired_tids.add(record.tid)
        self._txn_state[key] = event.state

    # ------------------------------------------------------------------ quiesce
    def check_quiesce(self) -> List[InvariantViolation]:
        """End-of-run checks (leaks); returns violations added by this call."""
        before = len(self.violations)
        now = self.system.env.now
        leaked = 0
        parked = 0
        for (kind, tid), state in sorted(self._txn_state.items()):
            if kind != "message":
                # Requests may legally park at ARRIVED forever: a stale
                # prerequest that never matches data stays pending in
                # consBuf (Section 4.2) — benign, not a leak.
                continue
            if state in TERMINAL_MESSAGE_STATES or tid in self._retired_tids:
                # Ever-retired counts: the hit response for the final stash
                # may legally stamp RESPONDED after the consumer popped.
                continue
            if state is TxnState.BUFFERED:
                # Parked on the SQI's buffering queue: undelivered but
                # accounted for (producers outran consumers), not lost.
                parked += 1
                continue
            leaked += 1
            self._flag(
                now,
                "lifecycle/leaked-in-flight-record",
                f"message#{tid} still {state.value} at quiesce",
            )
        # Conservation: every pushed message must be delivered or accounted
        # for by an open record (leaked — flagged above — or parked).  This
        # second net catches messages whose lifecycle records vanished
        # entirely, e.g. a mutation dropping the whole transaction.
        undelivered = 0
        examples: List[Tuple[int, int, int]] = []
        for (sqi, pid), seqs in sorted(self._pushed.items()):
            for seq in seqs:
                if (sqi, pid, seq) not in self._delivered:
                    undelivered += 1
                    if len(examples) < 8:
                        examples.append((sqi, pid, seq))
        unaccounted = undelivered - parked - leaked
        if unaccounted > 0:
            self._flag(
                now,
                "conservation/lost-messages",
                f"{unaccounted} message(s) pushed but neither delivered nor "
                f"in flight; undelivered (sqi, producer, seq) start: "
                f"{examples}",
            )
        return self.violations[before:]

    def quiesce(self) -> None:
        """Run the end-of-run checks and raise on any accumulated violation."""
        self.check_quiesce()
        self.raise_if_violations()

    def raise_if_violations(self) -> None:
        if not self.violations:
            return
        head = "\n  ".join(str(v) for v in self.violations[:12])
        more = len(self.violations) - 12
        suffix = f"\n  ... and {more} more" if more > 0 else ""
        raise VerificationError(
            f"{len(self.violations)} invariant violation(s):\n  {head}{suffix}",
            violations=tuple(self.violations),
        )

    # ------------------------------------------------------------------ queries
    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            f"invariant checker: {self.events_seen} events observed, "
            f"{len(self.violations)} violation(s)"
        )


class StallWatchdog:
    """Abort a stalled run with a diagnostic instead of spinning forever.

    Installs an observe-only callback on the kernel (it schedules nothing,
    so the event sequence is untouched) that compares a cheap progress
    metric — endpoint pushes + pops plus the sum of every device's stat
    counters — across a window of ``config.watchdog_cycles`` cycles.  No
    change across a full window means every remaining event is a consumer
    poll loop spinning on a line nothing will ever fill: the watchdog
    raises :class:`~repro.errors.SimDeadlockError` naming the blocked
    threads and dumping where packets are parked.
    """

    def __init__(self, system: "System", window: Optional[int] = None) -> None:
        self.system = system
        self.window = int(window or system.config.watchdog_cycles)
        self._last_progress = -1

    # ------------------------------------------------------------------ install
    def install(self) -> "StallWatchdog":
        env = self.system.env
        self._last_progress = self._progress()
        env.set_watchdog(self._check, env.now + self.window)
        return self

    # ----------------------------------------------------------------- progress
    def _progress(self) -> int:
        system = self.system
        total = sum(ep.pushes for ep in system.library.producers)
        total += sum(ep.pops for ep in system.library.consumers)
        for device in system.devices:
            total += sum(device.stats.as_dict().values())
        return total

    def _check(self, now: int) -> None:
        progress = self._progress()
        if progress != self._last_progress:
            self._last_progress = progress
            self.system.env.defer_watchdog(now + self.window)
            return
        blocked = tuple(
            getattr(proc, "name", repr(proc))
            for proc in self.system.threads
            if proc.is_alive
        )
        raise SimDeadlockError(
            self._diagnose(now, blocked), tick=now, blocked=blocked
        )

    # --------------------------------------------------------------- diagnosis
    def _diagnose(self, now: int, blocked: Tuple[str, ...]) -> str:
        system = self.system
        lines = [
            f"no queue progress for {self.window} cycles (tick {now})",
            f"blocked threads: {', '.join(blocked) if blocked else '(none)'}",
        ]
        for i, device in enumerate(system.devices):
            snapshot = device.pipeline.occupancy_snapshot()
            if snapshot:
                parked = ", ".join(
                    f"sqi {sqi}: {data} buffered / {reqs} pending requests"
                    for sqi, (data, reqs) in sorted(snapshot.items())
                )
                lines.append(f"device[{i}] parked packets: {parked}")
            lines.append(
                f"device[{i}] prodBuf entries in use: {device.entries_in_use}"
            )
            specbuf = getattr(device, "specbuf", None)
            if specbuf is not None:
                lines.append(
                    f"device[{i}] specBuf: {len(specbuf)} entries, "
                    f"{specbuf.on_fly_count()} push(es) in flight"
                )
        valid = sum(
            1
            for ep in system.library.consumers
            for line in ep.lines
            if not line.is_empty
        )
        lines.append(f"consumer lines holding unread data: {valid}")
        lines.append(
            "likely cause: consumers waiting on stashes the device will "
            "never send (e.g. speculation disabled on fetch-skipping "
            "endpoints, or a dropped response)"
        )
        return "\n".join(lines)
