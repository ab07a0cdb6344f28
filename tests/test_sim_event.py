"""Unit tests for the event primitives: the one-shot outcome a process
ends with, its exit entry, and the join that waits for every exit."""

import pytest

from repro.errors import SchedulingError, SimDeadlockError, SimulationError
from repro.sim.event import Event
from repro.sim.kernel import NORMAL
from repro.sim.process import PARK, Process


def _returns(value, delay=0):
    yield delay
    return value


def _raises(exc, delay=0):
    yield delay
    raise exc


def test_event_starts_pending(env):
    ev = Event("e")
    assert not ev.triggered
    with pytest.raises(SchedulingError):
        _ = ev.value
    proc = env.process(_returns(1))
    assert not proc.triggered and proc.is_alive


def test_succeed_carries_value(env):
    """A process that returns succeeds with the returned value."""
    proc = env.process(_returns(42))
    env.run()
    assert proc.triggered
    assert proc.ok
    assert proc.value == 42


def test_double_trigger_rejected(env):
    """An outcome is recorded once: resuming a finished process raises."""
    proc = env.process(_returns(1))
    env.run()
    with pytest.raises(SchedulingError, match="after it finished"):
        Process._resume(proc)
    assert proc.value == 1


def test_fail_requires_exception(env):
    """Only a raise fails a process: returning an exception object is a
    successful outcome that carries it."""
    returned = env.process(_returns(ValueError("a value")))
    env.run()
    assert returned.ok and isinstance(returned.value, ValueError)
    raised = env.process(_raises(ValueError("raised")))
    with pytest.raises(ValueError):
        env.run()
    assert not raised.ok and isinstance(raised.value, ValueError)


def test_unhandled_failure_surfaces(env):
    env.process(_raises(ValueError("boom")))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_is_silent(env):
    """A failure surfaces once, from its exit entry: the next run goes on
    with the rest of the queue without raising it again."""
    fired = []
    env.process(_raises(ValueError("boom")))
    env.call_later(5, fired.append, "later")
    with pytest.raises(ValueError):
        env.run()
    env.run()  # must not raise
    assert fired == ["later"] and env.now == 5


def test_callbacks_run_in_subscription_order(env):
    """Processes that finish in one cycle exit in the order they
    finished: each exit entry draws its sequence number at the finish."""
    exits = []
    procs = [env.process(_returns(i, delay=3), name=f"p{i}") for i in range(3)]
    with pytest.MonkeyPatch.context() as patch:
        exit_ = Process._exit
        patch.setattr(Process, "_exit", lambda p: exits.append(p.name) or exit_(p))
        env.run()
    assert exits == ["p0", "p1", "p2"]
    assert [p.value for p in procs] == [0, 1, 2]


def test_subscribe_after_processed_still_fires(env):
    """Joining after the last process exited returns at once, without
    dispatching the entries still queued."""
    env.process(_returns("x"))
    env.call_later(50, lambda _arg: None)
    assert env.run_until_complete() == 0
    processed = env.events_processed
    assert env.run_until_complete() == 0
    assert env.events_processed == processed and env.queue_length == 1


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


def test_allof_waits_for_every_child(env):
    """The join waits for the last live process: one exiting at 5 does
    not end it, the one exiting at 50 does."""
    a = env.process(_returns("a", delay=5))
    b = env.process(_returns("b", delay=50))
    with pytest.raises(SimulationError, match="limit 10"):
        env.run_until_complete(limit=10)
    assert a.triggered and not b.triggered
    assert env.run_until_complete() == 50
    assert (a.value, b.value) == ("a", "b")


def test_allof_propagates_failure(env):
    """A failed process ends the join by raising its exception at its
    exit, while the others are still live."""
    good = env.process(_returns("ok", delay=5))
    env.process(_raises(RuntimeError("child failed"), delay=1))
    with pytest.raises(RuntimeError, match="child failed"):
        env.run_until_complete()
    assert env.now == 1 and good.is_alive


def test_exit_is_one_normal_entry_carrying_the_process(env):
    """A finished process queues exactly one exit entry, keyed
    ``(now, NORMAL, seq)`` like any zero-delay call."""
    seen = []

    def body():
        yield 4
        env.call_later(0, lambda _arg: seen.append(list(env._queue)))
        return 7

    proc = env.process(body())
    env.run()
    assert seen == [[(4, NORMAL, 3, Process._exit, proc)]]
    assert proc.value == 7 and env.events_processed == 4


def test_parked_processes_drain_into_a_typed_deadlock(env):
    def parked():
        yield PARK

    env.process(parked(), name="a")
    env.process(_returns(None, delay=3), name="b")
    env.process(parked(), name="c")
    with pytest.raises(SimDeadlockError) as info:
        env.run_until_complete()
    assert (info.value.tick, info.value.blocked) == (3, ("a", "c"))
