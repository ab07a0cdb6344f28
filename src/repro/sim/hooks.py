"""The instrumentation hook bus.

Simulation components publish *typed events* — transaction state changes,
the five Figure-7 trace moments, specBuf hit/miss outcomes, network
occupancy — onto a :class:`HookBus`; observers subscribe per event type
instead of being hard-wired into the hot path.  The Figure 7 trace
experiment (:func:`repro.eval.experiments.trace_experiment`), the
metrics collector and the Perfetto exporter of :mod:`repro.obs` are all
plain subscribers.

Design constraints:

* **Zero-cost when silent** — publishers guard with a membership test
  on :attr:`HookBus.wanted` (``TraceHook in hooks.wanted``), so no event
  object is even constructed, and no Python frame entered, unless
  somebody listens.
* **Deterministic delivery** — subscribers fire synchronously, in
  subscription order, walking the event type's MRO (subscribe to
  :class:`HookEvent` to observe everything).
* **Isolation** — an exception in one subscriber is captured onto
  :attr:`HookBus.errors` and never prevents delivery to the others.
* **No timing impact** — publishing schedules no simulation events, so
  attaching instrumentation never changes a run's tick sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Type, TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.transaction import TransactionRecord, TxnState


class EventKind(Enum):
    """The five trace rows of Figure 7 (bottom to top)."""

    DATA_ARRIVE = "data arrive"        # producer data reaches the device
    REQUEST_ARRIVE = "request arrive"  # consumer request reaches the device
    LINE_VACATE = "$line vacate"       # consumer line ready for new data
    LINE_FILL = "fill $line"           # producer data fills the line
    FIRST_USE = "1st data use"         # consumer first reads the data


# --------------------------------------------------------------------- events
@dataclass(frozen=True, slots=True)
class HookEvent:
    """Base class for every bus event; subscribe to it to observe all."""

    tick: int


@dataclass(frozen=True, slots=True)
class TraceHook(HookEvent):
    """One of the five Figure-7 trace moments (see :class:`EventKind`).

    ``tick`` may lie in the past: a request arrival is only attributable to
    a transaction once its data shows up, and a line vacate belongs to the
    *next* message filled into that line, so both are published at match /
    fill time with their original timestamps.
    """

    kind: EventKind = EventKind.DATA_ARRIVE
    transaction_id: int = 0
    sqi: int = 0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class TransactionHook(HookEvent):
    """A transaction entered a new lifecycle state.

    Published by :meth:`TransactionRecord.stamp
    <repro.sim.transaction.TransactionRecord.stamp>`, so ``record`` is
    always set (its ``sqi``/``kind``/``tid`` name the packet).  A record
    exists only for a packet born while a subscriber was on the bus: a
    subscriber attached after a packet's birth sees none of its stamps,
    so attach before the run.
    """

    record: "TransactionRecord"
    state: "TxnState"
    detail: str = ""


@dataclass(frozen=True, slots=True)
class SpecBufHook(HookEvent):
    """A speculative push response reached the specBuf (hit or miss)."""

    sqi: int = 0
    entry_index: int = 0
    hit: bool = False


@dataclass(frozen=True, slots=True)
class SpecDecisionHook(HookEvent):
    """A delay algorithm decided when (or whether) to push speculatively.

    Published by the speculation policy at selection and at sticky-slot
    retry time, before the push travels the network — the moment the
    per-algorithm delay decision is made.  ``delay`` is ``send_tick - now``
    (0 = push immediately); ``retry`` distinguishes a first-chance
    selection from a post-miss retry of the same ring slot.  A refused
    retry (``NeverPush``/backoff gave up) is published with ``delay=-1``.
    """

    sqi: int = 0
    entry_index: int = 0
    algorithm: str = ""
    delay: int = 0
    retry: bool = False


@dataclass(frozen=True, slots=True)
class BusHook(HookEvent):
    """A packet was accepted onto the coherence network."""

    kind: str = ""            # PacketKind.value
    busy_cycles: int = 0      # cumulative network busy cycles so far


@dataclass(frozen=True, slots=True)
class LinkHook(HookEvent):
    """A packet traversed one directed NoC link (:mod:`repro.net`).

    Only published by hop-routed topologies (mesh/ring/crossbar); the
    default ``single-bus`` fabric has no links, so golden traces and
    metrics of bus-model runs never see this event.
    """

    link: str = ""            # link name, e.g. "mesh.e[1,2]"
    kind: str = ""            # PacketKind.value of the packet on the link
    src: int = 0              # route source node
    dst: int = 0              # route destination node
    busy_cycles: int = 0      # cumulative busy cycles of this link so far
    wait_cycles: int = 0      # cumulative backpressure cycles at this link


@dataclass(frozen=True, slots=True)
class PushHook(HookEvent):
    """The library issued ``vl_push`` for one message (semantic send)."""

    sqi: int = 0
    producer_id: int = 0
    seq: int = 0              # per-producer FIFO sequence number
    transaction_id: int = 0


@dataclass(frozen=True, slots=True)
class DeliveryHook(HookEvent):
    """A consumer popped one message (the semantic delivery moment)."""

    sqi: int = 0
    endpoint_id: int = 0
    producer_id: int = 0
    seq: int = 0
    transaction_id: int = 0


@dataclass(frozen=True, slots=True)
class RequestHook(HookEvent):
    """An open-system request changed lifecycle state.

    Published by :class:`~repro.sim.request.RequestLog` at every stamp of
    an *active* log — closed-batch runs never activate one, so golden
    traces and metric exports of the default workloads are unchanged.
    ``state`` is a :class:`~repro.sim.request.ReqState` value string
    (``arrived``/``admitted``/``first-pop``/``completed``); ``sojourn``
    is only set on the completion event.  ``tick`` may lie in the past
    for the arrival stamp: a backlogged session admits a request after
    its scheduled arrival and publishes the arrival with its planned
    tick (the same ``record_at`` semantics as :class:`TraceHook`).
    """

    rid: int = 0
    session: str = ""
    seq: int = 0
    state: str = ""
    sojourn: Optional[int] = None


@dataclass(frozen=True, slots=True)
class LineHook(HookEvent):
    """A consumer cacheline changed occupancy state.

    ``transition`` is ``"fill"`` (EMPTY→VALID), ``"vacate"`` (VALID→EMPTY),
    ``"failed-fill"`` (a stash bounced off a VALID line — the legal miss
    response, not a state change) or ``"rollback"`` (a burst misprediction
    invalidated an unconfirmed fill: VALID→EMPTY without a delivery).
    """

    addr: int = 0
    endpoint_id: int = 0
    index: int = 0
    transition: str = ""
    transaction_id: Optional[int] = None


# ----------------------------------------------------------------------- bus
@dataclass(frozen=True, slots=True)
class Subscription:
    """Handle returned by :meth:`HookBus.subscribe`; pass to unsubscribe."""

    event_type: Type[HookEvent]
    token: int
    callback: Callable[[Any], None] = field(compare=False)


class HookBus:
    """Synchronous publish/subscribe fan-out for instrumentation events."""

    __slots__ = ("_subs", "_next_token", "_resolved", "wanted", "errors")

    def __init__(self) -> None:
        self._subs: Dict[Type[HookEvent], List[Subscription]] = {}
        self._next_token = 0
        #: Memoized per-concrete-type delivery lists: event type -> the
        #: flattened (MRO-ordered, then subscription-ordered) subscriber
        #: tuple.  Invalidated wholesale on any (un)subscribe, so the hot
        #: publish path never re-walks the MRO.
        self._resolved: Dict[Type[HookEvent], Tuple[Subscription, ...]] = {}
        #: Every event type some subscriber would receive: the
        #: :class:`HookEvent` subclasses defined when the subscription set
        #: last changed, each kept iff its MRO meets a subscription.  A
        #: plain field, so a publisher's guard is one set-membership test.
        self.wanted: FrozenSet[Type[HookEvent]] = frozenset()
        #: (subscription, exception) pairs captured during publishes; a
        #: failing subscriber never blocks delivery to the others.
        self.errors: List[Tuple[Subscription, Exception]] = []

    # ------------------------------------------------------------ subscribing
    def subscribe(
        self, event_type: Type[HookEvent], callback: Callable[[Any], None]
    ) -> Subscription:
        """Register *callback* for events of *event_type* (or subclasses
        published with that type in their MRO).  Delivery order is
        subscription order."""
        sub = Subscription(event_type, self._next_token, callback)
        self._next_token += 1
        self._subs.setdefault(event_type, []).append(sub)
        self._changed()
        return sub

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Remove a subscription; returns False when already gone."""
        subs = self._subs.get(subscription.event_type)
        if not subs or subscription not in subs:
            return False
        subs.remove(subscription)
        if not subs:
            del self._subs[subscription.event_type]
        self._changed()
        return True

    def _changed(self) -> None:
        """Drop the memoized delivery lists and recompute :attr:`wanted`."""
        self._resolved.clear()
        subs = self._subs
        self.wanted = frozenset(
            t for t in _event_types()
            if any(base in subs for base in t.__mro__)
        )

    # ------------------------------------------------------------- publishing
    def _resolve(self, event_type: Type[HookEvent]) -> Tuple[Subscription, ...]:
        """The delivery list for *event_type*: its MRO walked once, then
        memoized until the subscription set changes."""
        resolved = self._resolved.get(event_type)
        if resolved is None:
            subs = self._subs
            resolved = tuple(
                sub for t in event_type.__mro__ for sub in subs.get(t, ())
            )
            self._resolved[event_type] = resolved
        return resolved

    def publish(self, event: HookEvent) -> None:
        """Deliver *event* to every subscriber of its type and supertypes.

        MRO order first (exact type before catch-alls), subscription order
        within a type.  Exceptions are recorded, not raised.  The memoized
        delivery tuple doubles as the snapshot that keeps delivery stable
        when a callback (un)subscribes mid-publish.
        """
        if not self._subs:
            return
        for sub in self._resolve(type(event)):
            try:
                sub.callback(event)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.errors.append((sub, exc))

    # ---------------------------------------------------------------- queries
    def __bool__(self) -> bool:
        return bool(self._subs)


def _event_types() -> List[Type[HookEvent]]:
    """:class:`HookEvent` and every subclass defined so far."""
    found, stack = [], [HookEvent]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found
