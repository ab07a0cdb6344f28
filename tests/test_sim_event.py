"""Unit tests for the event primitives."""

import pytest

from repro.errors import SchedulingError
from repro.sim.event import AllOf, Event, Timeout
from repro.sim.kernel import Environment


def test_event_starts_pending(env):
    ev = env.event("e")
    assert not ev.triggered
    assert not ev.processed
    with pytest.raises(SchedulingError):
        _ = ev.value


def test_succeed_carries_value(env):
    ev = env.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 42


def test_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SchedulingError):
        ev.succeed(2)
    with pytest.raises(SchedulingError):
        ev.fail(RuntimeError("late"))


def test_fail_requires_exception(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_failure_surfaces(env):
    ev = env.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_is_silent(env):
    ev = env.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    env.run()  # must not raise


def test_callbacks_run_in_subscription_order(env):
    order = []
    ev = env.event()
    ev.subscribe(lambda e: order.append(1))
    ev.subscribe(lambda e: order.append(2))
    ev.subscribe(lambda e: order.append(3))
    ev.succeed()
    env.run()
    assert order == [1, 2, 3]


def test_subscribe_after_processed_still_fires(env):
    ev = env.event()
    ev.succeed("x")
    env.run()
    assert ev.processed
    got = []
    ev.subscribe(lambda e: got.append(e.value))
    env.run()
    assert got == ["x"]


def test_timeout_fires_at_delay(env):
    ev = Timeout(env, 10, value="done")
    fired_at = []
    ev.subscribe(lambda e: fired_at.append(env.now))
    env.run()
    assert fired_at == [10]
    assert ev.value == "done"


def test_timeout_rejects_negative_delay(env):
    with pytest.raises(SchedulingError):
        Timeout(env, -1)


def test_zero_delay_timeout(env):
    ev = env.timeout(0)
    env.run()
    assert ev.processed
    assert env.now == 0


def test_allof_waits_for_every_child(env):
    a, b = env.timeout(5), env.timeout(50)
    all_ev = AllOf(env, [a, b])
    env.run(until=10)
    assert not all_ev.triggered
    env.run()
    assert all_ev.triggered
    assert set(all_ev.value) == {a, b}


def test_allof_propagates_failure(env):
    good = env.timeout(5)
    bad = env.event()
    all_ev = AllOf(env, [good, bad])
    bad.fail(RuntimeError("child failed"))
    all_ev.defuse()
    env.run()
    assert all_ev.triggered
    assert not all_ev.ok
