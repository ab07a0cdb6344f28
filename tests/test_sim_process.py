"""Unit tests for generator-based processes."""

import heapq

import numpy as np
import pytest

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.errors import SimDeadlockError, SimulationError
from repro.sim.kernel import Environment
from repro.sim.process import PARK, Process
from repro.system import System
from repro.verify.invariants import StallWatchdog
from tests.conftest import noop


def test_process_requires_generator(env):
    def not_a_generator():
        return 5

    with pytest.raises(SimulationError, match="generator"):
        env.process(not_a_generator())  # returns int, not generator


def test_process_receives_event_values(env):
    got = []

    def work():
        event = env.event()
        env.call_later(5, event.succeed, "five")
        value = yield event
        got.append(value)

    env.process(work())
    env.run()
    assert got == ["five"]


def test_process_is_joinable(env):
    def child():
        yield 10
        return 99

    def parent():
        result = yield env.process(child())
        return result + 1

    proc = env.process(parent())
    assert env.run_until_complete(proc) == 100


def test_exception_thrown_into_process(env):
    caught = []

    def work():
        ev = env.event()
        env.call_later(1, lambda _e: ev.fail(ValueError("delivered")))
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(work())
    env.run()
    assert caught == ["delivered"]


def test_uncaught_process_exception_fails_process(env):
    def work():
        yield 1
        raise RuntimeError("oops")

    proc = env.process(work())
    proc.defuse()
    env.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, RuntimeError)


def test_yielding_non_event_fails_with_helpful_error(env):
    """Only an Event or a non-negative plain ``int`` may be yielded: a
    string, a float, a negative int, a bool and a numpy integer all fail
    the process with a message naming both accepted forms."""
    for bad in ("42", 1.5, -1, True, np.int64(3)):

        def work(value=bad):
            yield value

        proc = env.process(work())
        proc.defuse()
        env.run()
        assert not proc.ok, bad
        assert isinstance(proc.value, SimulationError), bad
        message = str(proc.value)
        assert "Event" in message and "non-negative int delay" in message


def test_yield_int_sleeps_exactly_delay_and_sends_none(env):
    got = []

    def work():
        yield 2
        value = yield 7
        got.append((env.now, value))

    env.process(work())
    env.run()
    assert got == [(9, None)]
    # The start, two wakes and the process's own join event.
    assert env.events_processed == 4


def test_yield_zero_runs_after_pending_normal_work(env):
    """``yield 0`` queues the wake behind NORMAL work already pending for
    this cycle: its key is drawn at the yield."""
    order = []

    def work():
        yield 4
        order.append("wake")
        yield 0
        order.append("after-yield-0")

    env.process(work())
    # Runs after the process's first slice, so its t=4 entry is queued
    # behind the wake but ahead of the zero-delay sleep.
    env.call_later(
        0, lambda _arg: env.call_later(4, lambda _a: order.append("pending")))
    env.run()
    assert order == ["wake", "pending", "after-yield-0"]


def test_target_is_none_while_sleeping(env):
    def work():
        yield 50

    proc = env.process(work())
    env.run(until=1)
    assert proc.is_alive and proc.target is None


def _dispatch_keys(monkeypatch, body):
    """Run one process on a fresh Environment; return the dispatched
    ``(time, priority, seq)`` keys."""
    keys = []

    def pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:3])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "heappop", pop)
        env = Environment()
        env.process(body(env))
        env.call_later(3, lambda _arg: None)
        env.call_later(0, lambda _arg: env.call_later(3, noop))
        env.run()
    return keys


def test_sleep_and_timeout_dispatch_under_identical_keys(monkeypatch):
    """``yield d`` dispatches under the key of a timer event scheduled *d*
    ahead in the yield expression (the kernel has no such event type)."""
    delays = (3, 0, 5, 0, 3)

    def sleeper(env):
        for d in delays:
            yield d

    def timed(env):
        for d in delays:
            timer = env.event()
            timer._ok, timer._value = True, None
            env.schedule(timer, delay=d)
            yield timer

    keys = _dispatch_keys(monkeypatch, sleeper)
    assert keys == _dispatch_keys(monkeypatch, timed)
    # Start, one wake per delay, the join event and the three entries
    # the other work queues.
    assert len(keys) == len(delays) + 5


def test_parked_process_is_alive_with_no_target(env):
    """``yield PARK`` queues nothing: the process stays alive, waits on no
    event, and the queue drains around it."""

    def work():
        yield PARK

    proc = env.process(work())
    env.run()
    assert proc.is_alive and proc.target is None
    assert env.queue_length == 0


def test_only_the_armed_callback_resumes_a_parked_process(env):
    """Other work in the queue never wakes a parked process; the callback
    it armed resumes it with ``None`` at the callback's own time."""
    log = []

    def work():
        env.call_later(30, Process._resume, env.active_process)
        value = yield PARK
        log.append(("parked", env.now, value))
        value = yield 5
        log.append(("slept", env.now, value))

    proc = env.process(work())
    for t in (1, 10, 29):
        env.call_later(t, lambda _arg: log.append(("other", env.now)))
    env.run(until=29)
    assert proc.is_alive and log[-1] == ("other", 29)
    env.run()
    assert log == [("other", 1), ("other", 10), ("other", 29),
                   ("parked", 30, None), ("slept", 35, None)]
    assert not proc.is_alive


def test_only_the_park_marker_parks(env):
    """Any other bare object keeps the non-Event error contract."""

    def work():
        yield object()

    proc = env.process(work())
    proc.defuse()
    env.run()
    assert not proc.ok and isinstance(proc.value, SimulationError)
    assert "non-negative int delay" in str(proc.value)


def test_deadlock_with_parked_consumers_names_them():
    """Consumers parked on lines nothing will fill keep polling, so the
    queue never drains; the stall watchdog still raises and names them."""
    system = System(config=SystemConfig(num_cores=4, watchdog_cycles=20_000),
                    device="spamer", algorithm="0delay")
    lib = system.library
    for core in (1, 2):
        consumer = lib.open_consumer(lib.create_queue(), core)

        def program(ctx, consumer=consumer):
            yield from ctx.pop(consumer)

        system.spawn(core, program, f"stuck-{core}")
    StallWatchdog(system).install()
    with pytest.raises(SimDeadlockError) as info:
        system.run_to_completion(limit=1_000_000)
    assert info.value.blocked == ("stuck-1", "stuck-2")
    assert all(proc.is_alive and proc.target is None for proc in system.threads)


def test_yielding_foreign_event_rejected(env):
    other = Environment()

    def work():
        yield other.event()

    proc = env.process(work())
    proc.defuse()
    env.run()
    assert not proc.ok
    assert "different Environment" in str(proc.value)


def test_process_is_alive_until_generator_returns(env):
    def work():
        yield 10

    proc = env.process(work())
    assert proc.is_alive
    env.run(until=5)
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_target_reports_waited_event(env):
    timeout_holder = []

    def work():
        t = env.event()
        env.call_later(50, t.succeed)
        timeout_holder.append(t)
        yield t

    proc = env.process(work())
    env.run(until=1)
    assert proc.target is timeout_holder[0]


def test_two_processes_interleave(env):
    log = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            log.append((env.now, name))

    env.process(ticker("a", 10))
    env.process(ticker("b", 15))
    env.run()
    # At t=30 both tick; b's timeout was scheduled earlier (t=15 vs t=20),
    # so the deterministic FIFO tiebreak fires b first.
    assert log == [
        (10, "a"), (15, "b"), (20, "a"), (30, "b"), (30, "a"), (45, "b")
    ]


def test_yield_from_subroutine(env):
    """Processes can factor logic into sub-generators with yield from."""

    def sub():
        yield 5
        return "sub-result"

    def work():
        value = yield from sub()
        return value.upper()

    proc = env.process(work())
    assert env.run_until_complete(proc) == "SUB-RESULT"
