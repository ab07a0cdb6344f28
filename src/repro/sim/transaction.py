"""Explicit transaction lifecycle records.

Every packet that enters the queue machinery gets a transaction id and,
when the run is observed, a :class:`TransactionRecord` at its birth —
``vl_push`` for messages, ``vl_fetch`` for consumer requests — and every
layer it traverses stamps a :class:`TxnState` transition onto it with the
current tick.  A packet's journey is thereby a *queryable record* instead
of a set of scattered counters: where it waited, how many stash attempts
it took, and how long each stage held it.

Message lifecycle (the Figure 5 flow)::

    CREATED ──> PUSHED ──> MAPPED ──> STASHED ──> RESPONDED ──> RETIRED
                   │          ▲            (miss) ────┘    │
                   │          │     ROLLED_BACK <──────────┘ (burst
                   │          └──────── │   misprediction; re-enters
                   └──> BUFFERED <──────┘   via BUFFERED or MAPPED)
                        (no target yet; a later request or
                         speculation re-enters at MAPPED)

Request lifecycle::

    CREATED ──> ARRIVED ──> MATCHED | COALESCED | DROPPED

Records are plain bookkeeping — they schedule no simulation events and
draw no randomness, so enabling them never perturbs timing (the figures
stay bit-identical with recording on or off).  A system builds them on
demand: only when a :class:`~repro.sim.hooks.TransactionHook` subscriber
is attached as the packet is born.  An unobserved run hands out the same
dense ids and builds no record at all.

So the record is the one guard of every stamp site: a layer stamps with
``if txn is not None: txn.stamp(state, now)``, and
:meth:`TransactionRecord.stamp` publishes the transition on the bus the
log handed the record.  A subscriber attached after a packet's birth
sees none of that packet's stamps.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.sim.hooks import HookBus, TransactionHook


class TxnState(Enum):
    """Lifecycle states a transaction can pass through."""

    # -- message (vl_push) path -------------------------------------------------
    CREATED = "created"        # library allocated the message (vl_push issued)
    PUSHED = "pushed"          # push packet delivered at the routing device
    MAPPED = "mapped"          # address-mapping pipeline found a target
    BUFFERED = "buffered"      # parked on the SQI's buffering queue
    STASHED = "stashed"        # stash packet sent toward a consumer line
    RESPONDED = "responded"    # hit/miss response processed at the device
    ROLLED_BACK = "rolled-back"  # burst misprediction invalidated the line
    RETIRED = "retired"        # consumer popped the message

    # -- request (vl_fetch) path ------------------------------------------------
    ARRIVED = "arrived"        # fetch packet delivered at the routing device
    MATCHED = "matched"        # request paired with producer data
    COALESCED = "coalesced"    # duplicate of an already-registered request
    DROPPED = "dropped"        # NACKed by a full consBuf


#: Legal lifecycle edges (the Figure 5 flow plus the request path).  The
#: one deliberately asymmetric edge is ``RETIRED -> RESPONDED``: the hit
#: response for the final stash rides the network back to the device and
#: may be stamped after the consumer already popped the line.
LEGAL_TRANSITIONS: Dict[Optional[TxnState], frozenset] = {
    None: frozenset({TxnState.CREATED}),
    TxnState.CREATED: frozenset({TxnState.PUSHED, TxnState.ARRIVED}),
    TxnState.PUSHED: frozenset({TxnState.MAPPED, TxnState.BUFFERED}),
    TxnState.BUFFERED: frozenset({TxnState.MAPPED}),
    TxnState.MAPPED: frozenset({TxnState.STASHED}),
    TxnState.STASHED: frozenset({TxnState.RESPONDED, TxnState.RETIRED}),
    TxnState.RESPONDED: frozenset(
        {TxnState.RETIRED, TxnState.MAPPED, TxnState.BUFFERED, TxnState.ROLLED_BACK}
    ),
    TxnState.ROLLED_BACK: frozenset({TxnState.MAPPED, TxnState.BUFFERED}),
    TxnState.RETIRED: frozenset({TxnState.RESPONDED}),
    TxnState.ARRIVED: frozenset(
        {TxnState.MATCHED, TxnState.COALESCED, TxnState.DROPPED}
    ),
    TxnState.MATCHED: frozenset(),
    TxnState.COALESCED: frozenset(),
    TxnState.DROPPED: frozenset(),
}

#: States that end a message record; anything else open at quiesce leaked.
TERMINAL_MESSAGE_STATES = frozenset({TxnState.RETIRED})

#: States that end a request record.  A request may also legally park at
#: ARRIVED forever: a stale prerequest that never matches producer data
#: stays pending in consBuf (Section 4.2) — benign, not a leak.
TERMINAL_REQUEST_STATES = frozenset(
    {TxnState.MATCHED, TxnState.COALESCED, TxnState.DROPPED}
)


def is_legal_transition(prev: Optional[TxnState], nxt: TxnState) -> bool:
    """Whether *prev* → *nxt* is an edge of the lifecycle state machine."""
    return nxt in LEGAL_TRANSITIONS.get(prev, frozenset())


class TxnStamp(NamedTuple):
    """One timestamped state transition."""

    state: TxnState
    tick: int
    detail: str


#: Builds a :class:`TxnStamp` without the NamedTuple ``__new__`` frame.
_new_stamp = tuple.__new__


class TransactionRecord:
    """The queryable journey of one packet through the system."""

    __slots__ = ("tid", "sqi", "kind", "stamps", "hooks")

    def __init__(
        self, tid: int, sqi: int, kind: str = "message",
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.tid = tid
        self.sqi = sqi
        self.kind = kind
        self.stamps: List[TxnStamp] = []
        #: The bus each stamp is published on (None: stamps only).
        self.hooks = hooks

    # ------------------------------------------------------------------ record
    def stamp(self, state: TxnState, tick: int, detail: str = "") -> None:
        """Append one state transition at *tick* and publish it as a
        :class:`~repro.sim.hooks.TransactionHook` while one is wanted."""
        self.stamps.append(_new_stamp(TxnStamp, (state, tick, detail)))
        hooks = self.hooks
        if hooks is not None and TransactionHook in hooks.wanted:
            hooks.publish(
                TransactionHook(tick=tick, record=self, state=state, detail=detail)
            )

    # ------------------------------------------------------------------- query
    @property
    def state(self) -> Optional[TxnState]:
        """The most recent state (None before the first stamp)."""
        return self.stamps[-1].state if self.stamps else None

    def ticks(self, state: TxnState) -> List[int]:
        """Every tick at which *state* was entered (retries repeat states)."""
        return [s.tick for s in self.stamps if s.state is state]

    def first(self, state: TxnState) -> Optional[int]:
        for s in self.stamps:
            if s.state is state:
                return s.tick
        return None

    def last(self, state: TxnState) -> Optional[int]:
        for s in reversed(self.stamps):
            if s.state is state:
                return s.tick
        return None

    @property
    def retired(self) -> bool:
        """True once the consumer popped the message.

        Checked against *any* stamp, not just the last: the hit response
        for the final stash rides the network back to the device and may
        stamp RESPONDED after the consumer already popped the line.
        """
        return any(s.state is TxnState.RETIRED for s in self.stamps)

    @property
    def attempts(self) -> int:
        """Stash attempts (>1 means the push missed and retried)."""
        return sum(1 for s in self.stamps if s.state is TxnState.STASHED)

    @property
    def latency(self) -> Optional[int]:
        """End-to-end cycles from creation to retirement (None if open)."""
        start = self.first(TxnState.CREATED)
        end = self.last(TxnState.RETIRED)
        if start is None or end is None:
            return None
        return end - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.state.value if self.state else "empty"
        return (
            f"<TransactionRecord {self.kind}#{self.tid} sqi={self.sqi} "
            f"state={state} stamps={len(self.stamps)}>"
        )


class TransactionLog:
    """Hands out transaction ids and builds the records someone reads.

    Each *kind* gets its own id sequence so message ids stay the dense
    ``0, 1, 2, …`` sequence the trace figures key on, regardless of how
    many request records interleave with them.

    A record is built iff a :class:`~repro.sim.hooks.TransactionHook`
    subscriber is on *hooks* when the id is taken, and it publishes its
    stamps on *hooks*.  Otherwise :meth:`take`
    returns the id with no record, and the packet's stamp sites skip it;
    ids and :meth:`count` are the same either way.  The log keeps no
    record: each lives exactly as long as the packet that carries it and
    whatever subscriber holds on to it.
    """

    __slots__ = ("hooks", "_next_id")

    def __init__(self, hooks: HookBus) -> None:
        self.hooks = hooks
        self._next_id: Dict[str, int] = {}

    def take(
        self, sqi: int, kind: str = "message"
    ) -> Tuple[int, Optional[TransactionRecord]]:
        """The next id of the *kind* sequence and its record, or None for
        the record when nobody would read it."""
        next_id = self._next_id
        tid = next_id.get(kind, 0)
        next_id[kind] = tid + 1
        hooks = self.hooks
        if TransactionHook in hooks.wanted:
            return tid, TransactionRecord(tid, sqi, kind, hooks)
        return tid, None

    def count(self, kind: str = "message") -> int:
        """How many ids of *kind* were taken (records built or not)."""
        return self._next_id.get(kind, 0)
