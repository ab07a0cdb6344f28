"""The instrumentation hook bus: ordering, isolation, zero-cost guards."""

from repro import System
from repro.eval.experiments import reconstruct_transactions
from repro.sim.hooks import (
    BusHook,
    EventKind,
    HookBus,
    HookEvent,
    PushHook,
    SpecBufHook,
    TraceHook,
    TransactionHook,
)


def test_subscribers_fire_in_subscription_order():
    bus = HookBus()
    order = []
    bus.subscribe(BusHook, lambda e: order.append("first"))
    bus.subscribe(BusHook, lambda e: order.append("second"))
    bus.subscribe(BusHook, lambda e: order.append("third"))
    bus.publish(BusHook(tick=0, kind="stash", busy_cycles=3))
    assert order == ["first", "second", "third"]


def test_base_class_subscription_catches_all_event_types():
    bus = HookBus()
    seen = []
    bus.subscribe(HookEvent, seen.append)
    events = [
        BusHook(tick=1, kind="request", busy_cycles=0),
        SpecBufHook(tick=2, sqi=1, entry_index=0, hit=True),
        TraceHook(tick=3, kind=EventKind.DATA_ARRIVE, transaction_id=0, sqi=1),
    ]
    for event in events:
        bus.publish(event)
    assert seen == events


def test_exact_type_delivered_before_catch_all():
    bus = HookBus()
    order = []
    bus.subscribe(HookEvent, lambda e: order.append("any"))
    bus.subscribe(BusHook, lambda e: order.append("exact"))
    bus.publish(BusHook(tick=0, kind="stash", busy_cycles=0))
    # MRO walk: the concrete type's subscribers fire before HookEvent's.
    assert order == ["exact", "any"]


def test_unsubscribe_stops_delivery():
    bus = HookBus()
    seen = []
    sub = bus.subscribe(BusHook, seen.append)
    bus.publish(BusHook(tick=0, kind="stash", busy_cycles=0))
    assert bus.unsubscribe(sub) is True
    bus.publish(BusHook(tick=1, kind="stash", busy_cycles=0))
    assert len(seen) == 1
    # A second unsubscribe reports the subscription already gone.
    assert bus.unsubscribe(sub) is False


def test_exception_in_one_subscriber_does_not_drop_events_for_others():
    bus = HookBus()
    seen = []

    def broken(event):
        raise RuntimeError("boom")

    bus.subscribe(BusHook, broken)
    bus.subscribe(BusHook, seen.append)
    event = BusHook(tick=0, kind="stash", busy_cycles=0)
    bus.publish(event)
    assert seen == [event]
    assert len(bus.errors) == 1
    sub, exc = bus.errors[0]
    assert isinstance(exc, RuntimeError)


def test_wants_guards_silent_buses():
    """``wanted`` is the set every publisher's guard reads: it follows
    subscribe, the HookEvent catch-all and unsubscribe."""
    bus = HookBus()
    assert bus.wanted == frozenset()
    assert not bus
    trace = bus.subscribe(TraceHook, lambda e: None)
    assert bus.wanted == {TraceHook}
    assert BusHook not in bus.wanted
    assert bus
    # Subscribing to the base class makes every event type wanted.
    catch_all = bus.subscribe(HookEvent, lambda e: None)
    assert BusHook in bus.wanted and TransactionHook in bus.wanted
    assert all(t in bus.wanted for t in (HookEvent, TraceHook, PushHook))
    assert bus.unsubscribe(catch_all)
    assert bus.wanted == {TraceHook}
    assert bus.unsubscribe(trace)
    assert bus.wanted == frozenset()
    assert not bus.unsubscribe(trace)
    assert bus.wanted == frozenset()


def test_trace_recorder_attaches_as_subscriber():
    """Figure 7 records its moments with one plain subscriber."""
    bus = HookBus()
    events = []
    bus.subscribe(TraceHook, events.append)
    assert bus.wanted == {TraceHook}
    event = TraceHook(tick=5, kind=EventKind.LINE_FILL, transaction_id=2,
                      sqi=1, detail="speculative")
    bus.publish(event)
    assert events == [event]
    (txn,) = reconstruct_transactions(events)
    assert (txn.transaction_id, txn.sqi, txn.line_fill) == (2, 1, 5)


def test_disabled_trace_recorder_does_not_subscribe():
    """A system nobody traces has no trace subscriber, so its publishers
    build no TraceHook at all."""
    system = System(device="spamer", algorithm="tuned")
    assert not system.hooks
    assert TraceHook not in system.hooks.wanted
