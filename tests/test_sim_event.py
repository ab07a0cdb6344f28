"""Unit tests for the event primitives."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import AllOf


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
    """A timed callback is a ``call_later`` entry: it runs *delay* cycles
    on and receives its argument (there is no timer event)."""
    fired = []
    env.call_later(10, lambda value: fired.append((env.now, value)), "done")
    env.run()
    assert fired == [(10, "done")]


def test_timeout_rejects_negative_delay(env):
    """A process cannot sleep into the past: a negative ``int`` fails it."""

    def proc():
        yield -1

    env.process(proc())
    with pytest.raises(SimulationError, match="yielded -1"):
        env.run()


def test_zero_delay_timeout(env):
    """``yield 0`` resumes the process within the current cycle."""
    resumed = []

    def proc():
        yield 0
        resumed.append(env.now)

    env.process(proc())
    env.run()
    assert resumed == [0]
    assert env.now == 0


def _fires_at(env, delay):
    event = env.event()
    env.call_later(delay, event.succeed)
    return event


def test_allof_waits_for_every_child(env):
    a, b = _fires_at(env, 5), _fires_at(env, 50)
    all_ev = AllOf(env, [a, b])
    env.run(until=10)
    assert not all_ev.triggered
    env.run()
    assert all_ev.triggered
    assert set(all_ev.value) == {a, b}


def test_allof_propagates_failure(env):
    good = _fires_at(env, 5)
    bad = env.event()
    all_ev = AllOf(env, [good, bad])
    bad.fail(RuntimeError("child failed"))
    all_ev.defuse()
    env.run()
    assert all_ev.triggered
    assert not all_ev.ok
