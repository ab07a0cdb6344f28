"""Unit tests for the simulation kernel (Environment)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError, SimDeadlockError, SimulationError
from repro.sim.kernel import Environment, NORMAL, URGENT
from repro.sim.process import PARK
from tests.conftest import noop


def step(env):
    """Drive *env* through its next pending cycle with a windowed run."""
    return env.run(until=env._queue[0][0])


def test_clock_starts_at_initial_time():
    assert Environment().now == 0
    assert Environment(initial_time=100).now == 100


def test_step_on_empty_queue_raises(env):
    """Driving an empty queue with a process still live raises; with no
    live process the join returns at once."""

    def parked():
        yield PARK

    assert env.run_until_complete() == 0
    env.process(parked())
    with pytest.raises(SimDeadlockError):
        env.run_until_complete()


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
    with pytest.raises(SchedulingError):
        env.call_later(-5, noop)
    assert env.queue_length == 0


def test_same_cycle_fifo_order(env):
    """Events scheduled for the same cycle fire in scheduling order."""
    order = []
    for i in range(10):
        env.call_later(7, lambda _arg, i=i: order.append(i))
    env.run()
    assert order == list(range(10))


def test_urgent_priority_preempts_normal(env):
    order = []
    env.call_later(5, order.append, "normal", priority=NORMAL)
    env.call_later(5, order.append, "urgent", priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_run_until_complete_returns_process_value(env):
    def work():
        yield 10
        return "result"

    proc = env.process(work())
    assert env.run_until_complete() == 10
    assert proc.value == "result" and env.now == 10


def test_run_until_complete_detects_deadlock(env):
    def work():
        yield 7
        yield PARK  # nothing will resume it

    env.process(work(), name="stuck")
    with pytest.raises(SimDeadlockError, match="deadlock") as info:
        env.run_until_complete()
    assert info.value.tick == 7 and info.value.blocked == ("stuck",)


def test_run_until_complete_respects_limit(env):
    def ticker():
        while True:
            yield 10

    def work():
        yield 10 ** 9

    env.process(ticker())
    env.process(work())
    with pytest.raises(SimulationError, match="limit") as info:
        env.run_until_complete(limit=1000)
    assert not isinstance(info.value, SimDeadlockError)


def test_run_until_complete_reraises_process_error(env):
    def work():
        yield 1
        raise ValueError("inside process")

    env.process(work())
    with pytest.raises(ValueError, match="inside process"):
        env.run_until_complete()


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


# -- stepping cycle by cycle vs run(): watchdog symmetry ---------------------
# The stall-watchdog tests drive whole runs; these step through one
# pending cycle at a time with windowed runs (``step`` above), which share
# the one dispatch loop, and pin that shared firing point directly.


def test_step_fires_watchdog_at_deadline(env):
    fires = []

    def watchdog(now):
        fires.append(now)
        env.defer_watchdog(now + 100)

    for delay in (5, 10, 20):
        env.call_later(delay, noop)
    env.set_watchdog(watchdog, deadline=10)
    step(env)
    assert fires == []  # t=5 is before the deadline
    step(env)
    assert fires == [10]  # first dispatch at/past the deadline
    step(env)
    assert fires == [10]  # deferred past t=20


def test_step_watchdog_raise_aborts_and_preserves_queue(env):
    def watchdog(now):
        raise SimulationError(f"stalled at {now}")

    for delay in (5, 10, 20):
        env.call_later(delay, noop)
    env.set_watchdog(watchdog, deadline=10)
    step(env)
    with pytest.raises(SimulationError, match="stalled at 10"):
        step(env)
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
        step(env)
    assert fires == [5, 6, 7]


def test_step_empty_queue_raises_with_watchdog_armed(env):
    """The watchdog fires only inside a dispatch, so a queue that drains
    with a process live is caught by the kernel's own typed error."""
    fires = []

    def parked():
        yield PARK

    env.process(parked())
    env.set_watchdog(fires.append, deadline=5)
    with pytest.raises(SimDeadlockError, match="queue drained"):
        env.run_until_complete()
    assert fires == []


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
