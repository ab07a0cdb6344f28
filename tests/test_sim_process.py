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
    """A resume sends ``None``: a value reaches a parked process through
    state the callback that resumes it has written."""
    got = []
    box = []

    def deliver(proc):
        box.append("five")
        return Process._resume(proc)

    def work():
        env.call_later(5, deliver, env.active_process)
        value = yield PARK
        got.append((env.now, value, box.pop()))

    env.process(work())
    env.run()
    assert got == [(5, None, "five")]


def test_process_is_joinable(env):
    def child():
        yield 10
        return 99

    def parent():
        kid = env.process(child())
        yield 3
        return kid

    proc = env.process(parent())
    assert env.run_until_complete() == 10
    assert proc.value.value == 99


def test_exception_thrown_into_process(env):
    """An exception raised by a callee (here a sub-generator, after a
    sleep) is caught with ordinary ``try``/``except`` in the process."""
    caught = []

    def callee():
        yield 1
        raise ValueError("delivered")

    def work():
        try:
            yield from callee()
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    proc = env.process(work())
    env.run()
    assert caught == [(1, "delivered")] and proc.ok


def test_uncaught_process_exception_fails_process(env):
    def work():
        yield 1
        raise RuntimeError("oops")

    proc = env.process(work())
    with pytest.raises(RuntimeError, match="oops"):
        env.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, RuntimeError)


def test_yielding_non_event_fails_with_helpful_error(env):
    """Only a non-negative plain ``int`` or ``PARK`` may be yielded: a
    string, a float, a negative int, a bool and a numpy integer all fail
    the process with a message naming both accepted forms."""
    for bad in ("42", 1.5, -1, True, np.int64(3)):

        def work(value=bad):
            yield value

        proc = env.process(work())
        with pytest.raises(SimulationError):
            env.run()
        assert not proc.ok, bad
        assert isinstance(proc.value, SimulationError), bad
        message = str(proc.value)
        assert "PARK" in message and "non-negative int delay" in message


def test_yield_int_sleeps_exactly_delay_and_sends_none(env):
    got = []

    def work():
        yield 2
        value = yield 7
        got.append((env.now, value))

    env.process(work())
    env.run()
    assert got == [(9, None)]
    # The start, two wakes and the process's exit.
    assert env.events_processed == 4


def test_yield_zero_runs_after_pending_normal_work(env):
    """``yield 0`` queues the wake behind the work already pending for
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
    """A sleeping process waits on no event: its one queued entry is its
    bare wake."""

    def work():
        yield 50

    proc = env.process(work())
    env.run(until=1)
    assert proc.is_alive
    assert env._queue == [(50, 1, Process._resume, proc)]


def _dispatch_keys(monkeypatch, body):
    """Run one process on a fresh Environment; return the dispatched
    ``(time, seq)`` keys."""
    keys = []

    def pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:2])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "heappop", pop)
        env = Environment()
        env.process(body(env))
        env.call_later(3, lambda _arg: None)
        env.call_later(0, lambda _arg: env.call_later(3, noop))
        env.run()
    return keys


SLEEP_DELAYS = (3, 0, 5, 0, 3)


def _sleep_and_timed_keys(monkeypatch):
    """The dispatched keys of a process sleeping through SLEEP_DELAYS and
    of one arming ``call_later(d, Process._resume, p)`` before each park."""

    def sleeper(env):
        for d in SLEEP_DELAYS:
            yield d

    def timed(env):
        for d in SLEEP_DELAYS:
            env.call_later(d, Process._resume, env.active_process)
            yield PARK

    return _dispatch_keys(monkeypatch, sleeper), _dispatch_keys(monkeypatch, timed)


def test_sleep_and_timeout_dispatch_under_identical_keys(monkeypatch):
    """``yield d`` dispatches under the key of a timed resume armed *d*
    ahead in the yield expression (the kernel has no timer event): the
    loop's re-arm of the returned delay draws its seq after the slice,
    where that ``call_later`` would have."""
    keys, timed = _sleep_and_timed_keys(monkeypatch)
    assert keys == timed
    # Start, one wake per delay, the exit and the three entries the other
    # work queues.
    assert len(keys) == len(SLEEP_DELAYS) + 5


def _early_seq_loop(self, limit, join):
    """Mutant of ``Environment._loop``: the re-arm's seq is drawn before
    the callback runs, so a sleep sorts ahead of the work its own slice
    queued for the same cycle."""
    queue = self._queue
    while queue:
        if join and not self._live:
            return
        entry = queue[0]
        when = entry[0]
        if when > limit:
            return
        kernel.heappop(queue)
        self._now = when
        self._processed += 1
        seq = self._seq
        self._seq = seq + 1
        delay = entry[2](entry[3])
        if delay is not None:
            kernel.heappush(queue, (when + delay, seq, entry[2], entry[3]))


def test_identical_keys_check_kills_an_early_rearm_seq(monkeypatch):
    """Kill pair: with the re-arm's seq drawn before the callback, the
    sleep and timed-resume keys of the check above part."""
    with monkeypatch.context() as patch:
        patch.setattr(Environment, "_loop", _early_seq_loop)
        keys, timed = _sleep_and_timed_keys(monkeypatch)
    assert keys != timed


def test_parked_process_is_alive_with_no_target(env):
    """``yield PARK`` queues nothing: the process stays alive, waits on no
    event, and the queue drains around it."""

    def work():
        yield PARK

    proc = env.process(work())
    env.run()
    assert proc.is_alive and not proc.triggered
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
    """Any other bare object fails the process."""

    def work():
        yield object()

    proc = env.process(work())
    with pytest.raises(SimulationError):
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
    assert all(proc.is_alive for proc in system.threads)


def test_drained_deadlock_is_typed_and_names_the_threads():
    """Every ``pipeline`` thread parks on a full prodBuf reserve (the
    generator's credit window outruns 16 entries), so the queue drains
    and the watchdog, which fires only inside a dispatch, never runs.
    The kernel's own error is the typed one: tick is the drain time and
    ``blocked`` names the live threads as the watchdog would, so
    ``run_workload`` passes it through unwrapped."""
    from repro.eval.runner import run_workload, setting_by_name

    systems = []
    with pytest.raises(SimDeadlockError, match="queue drained") as info:
        run_workload("pipeline", setting_by_name("vl"), scale=0.05,
                     seed=12648430, config=SystemConfig(prodbuf_entries=16),
                     on_system=systems.append)
    system, = systems
    assert info.value.tick == system.env.now > 0
    assert info.value.blocked == tuple(
        proc.name for proc in system.threads if proc.is_alive)
    assert "pipe-gen" in info.value.blocked


def _child():
    yield 1


def test_yielding_foreign_event_rejected(env):
    """An event is not something to wait on: yielding one, even another
    environment's process, fails the process."""
    other = Environment()

    def work():
        yield other.process(_child())

    proc = env.process(work())
    with pytest.raises(SimulationError, match="yielded <"):
        env.run()
    assert not proc.ok


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
    """What a parked process waits on is the entry it armed: the queue
    holds the callback that will resume it, carrying the process."""

    def work():
        env.call_later(50, Process._resume, env.active_process)
        yield PARK

    proc = env.process(work())
    env.run(until=1)
    assert proc.is_alive
    assert env._queue == [(50, 1, Process._resume, proc)]


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
    assert env.run_until_complete() == 5
    assert proc.value == "SUB-RESULT"
