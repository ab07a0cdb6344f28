"""Unit tests for the simulation kernel (Environment)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.kernel import Environment, NORMAL, URGENT
from tests.conftest import noop


def test_clock_starts_at_initial_time():
    assert Environment().now == 0
    assert Environment(initial_time=100).now == 100


def test_step_on_empty_queue_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_run_returns_final_time(env):
    env.call_later(25, noop)
    assert env.run() == 25


def test_run_until_advances_clock_even_past_last_event(env):
    env.call_later(5, noop)
    assert env.run(until=50) == 50


def test_run_until_does_not_process_later_events(env):
    fired = []
    env.call_later(5, lambda _arg: fired.append(5))
    env.call_later(80, lambda _arg: fired.append(80))
    env.run(until=10)
    assert fired == [5]
    env.run()
    assert fired == [5, 80]


def test_run_until_in_the_past_rejected(env):
    env.call_later(5, noop)
    env.run()
    with pytest.raises(SchedulingError):
        env.run(until=1)


def test_negative_schedule_rejected(env):
    ev = env.event()
    ev._ok, ev._value = True, None
    with pytest.raises(SchedulingError):
        env.schedule(ev, delay=-5)


def test_same_cycle_fifo_order(env):
    """Events scheduled for the same cycle fire in scheduling order."""
    order = []
    for i in range(10):
        env.call_later(7, lambda _arg, i=i: order.append(i))
    env.run()
    assert order == list(range(10))


def test_urgent_priority_preempts_normal(env):
    order = []
    normal = env.event()
    normal._ok, normal._value = True, None
    normal.subscribe(lambda e: order.append("normal"))
    env.schedule(normal, delay=5, priority=NORMAL)
    urgent = env.event()
    urgent._ok, urgent._value = True, None
    urgent.subscribe(lambda e: order.append("urgent"))
    env.schedule(urgent, delay=5, priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_run_until_complete_returns_process_value(env):
    def work():
        yield 10
        return "result"

    proc = env.process(work())
    assert env.run_until_complete(proc) == "result"
    assert env.now == 10


def test_run_until_complete_detects_deadlock(env):
    def work():
        yield env.event()  # never triggered

    proc = env.process(work())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(proc)


def test_run_until_complete_respects_limit(env):
    def ticker():
        while True:
            yield 10

    def work():
        yield 10 ** 9

    env.process(ticker())
    proc = env.process(work())
    with pytest.raises(SimulationError, match="limit"):
        env.run_until_complete(proc, limit=1000)


def test_run_until_complete_reraises_process_error(env):
    def work():
        yield 1
        raise ValueError("inside process")

    proc = env.process(work())
    with pytest.raises(ValueError, match="inside process"):
        env.run_until_complete(proc)


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_time_order(delays):
    """Property: firing order is sorted by time, stable within a cycle."""
    env = Environment()
    fired = []
    for idx, d in enumerate(delays):
        env.call_later(d, lambda _arg, idx=idx, d=d: fired.append((d, idx)))
    env.run()
    assert fired == sorted(fired)


@given(delays=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_determinism_across_runs(delays):
    """Property: two identical schedules produce identical traces."""

    def trace():
        env = Environment()
        out = []
        for idx, d in enumerate(delays):
            env.call_later(d, lambda _arg, idx=idx: out.append((env.now, idx)))
        env.run()
        return out

    assert trace() == trace()


def test_peek_reports_next_event_time(env):
    assert env.peek() is None
    env.call_later(42, noop)
    assert env.peek() == 42


# -- step()-vs-run() watchdog symmetry ---------------------------------------
# step() is public but the stall-watchdog tests drive run(); all entry
# points share one dispatch loop, and these tests pin that shared firing
# point directly.


def test_step_fires_watchdog_at_deadline(env):
    fires = []

    def watchdog(now):
        fires.append(now)
        env.defer_watchdog(now + 100)

    for delay in (5, 10, 20):
        env.call_later(delay, noop)
    env.set_watchdog(watchdog, deadline=10)
    env.step()
    assert fires == []  # t=5 is before the deadline
    env.step()
    assert fires == [10]  # first dispatch at/past the deadline
    env.step()
    assert fires == [10]  # deferred past t=20


def test_step_watchdog_raise_aborts_and_preserves_queue(env):
    def watchdog(now):
        raise SimulationError(f"stalled at {now}")

    for delay in (5, 10, 20):
        env.call_later(delay, noop)
    env.set_watchdog(watchdog, deadline=10)
    env.step()
    with pytest.raises(SimulationError, match="stalled at 10"):
        env.step()
    # The failed dispatch consumed its entry; the rest is intact and the
    # run can resume after the watchdog is cleared.
    env.clear_watchdog()
    assert env.queue_length == 1
    assert env.run() == 20


def test_step_refires_watchdog_without_defer(env):
    fires = []
    for delay in (5, 6, 7):
        env.call_later(delay, noop)
    env.set_watchdog(fires.append, deadline=0)
    for _ in range(3):
        env.step()
    assert fires == [5, 6, 7]


def test_step_empty_queue_raises_with_watchdog_armed(env):
    env.set_watchdog(lambda now: None, deadline=0)
    with pytest.raises(SimulationError, match="empty event queue"):
        env.step()


# -- run(until=now): the zero-width window -----------------------------------


def test_run_until_now_processes_current_cycle_only(env):
    fired = []
    env.call_later(0, lambda _arg: fired.append(0))
    env.call_later(3, lambda _arg: fired.append(3))
    assert env.run(until=env.now) == 0
    assert fired == [0]
    assert env.queue_length == 1
    env.run()
    assert fired == [0, 3]


def test_run_until_now_includes_work_spawned_at_now(env):
    fired = []

    def chain(event):
        fired.append("first")
        env.call_later(0, lambda _arg: fired.append("second"))

    env.call_later(0, chain)
    env.run(until=env.now)
    # Zero-delay work scheduled *during* the window still lands inside it.
    assert fired == ["first", "second"]
    assert env.now == 0


def test_run_until_now_on_empty_queue_is_a_noop(env):
    env.run(until=25)
    assert env.run(until=env.now) == 25
    assert env.events_processed == 0
