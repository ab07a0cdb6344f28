"""Unit and property tests for Resource and FifoServer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.sim.resources import FifoServer, Resource
from tests.conftest import noop


# ------------------------------------------------------------------- Resource
def _user(env, res, log, name, hold=None):
    """A process that takes one unit of *res*, logs ``(name, now)`` and,
    after *hold* cycles, releases it (never, with ``hold=None``)."""

    def body():
        yield from res.acquire()
        log.append((name, env.now))
        if hold is not None:
            yield hold
            res.release()

    return env.process(body(), name=name)


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    log = []
    _user(env, res, log, "a", hold=10)
    _user(env, res, log, "b")
    third = _user(env, res, log, "c")
    env.run(until=5)
    assert log == [("a", 0), ("b", 0)]
    assert third.is_alive and env.queue_length == 1  # only a's release
    env.run()
    assert log == [("a", 0), ("b", 0), ("c", 10)]
    assert res.in_use == 2


def test_resource_fifo_waiters(env):
    res = Resource(env, capacity=1)
    log = []
    _user(env, res, log, "holder", hold=5)
    for name in ("w1", "w2", "w3"):
        _user(env, res, log, name, hold=5)
    env.run()
    assert log == [("holder", 0), ("w1", 5), ("w2", 10), ("w3", 15)]
    assert res.in_use == 0


def test_resource_grant_and_wake_keys(env):
    """A free unit resumes the process with a zero-delay NORMAL entry, and
    a hand-off wakes the waiter the same way: both run after the NORMAL
    work already queued for the cycle and before later work."""
    res = Resource(env, capacity=1)
    order = []

    def holder():
        env.call_later(0, lambda _arg: order.append("pending-0"))
        yield from res.acquire()
        order.append(("granted", env.now))
        yield 3
        env.call_later(0, lambda _arg: order.append("pending-3"))
        res.release()

    def waiter():
        yield from res.acquire()
        order.append(("woken", env.now))

    env.process(holder())
    env.process(waiter())
    env.run()
    assert order == ["pending-0", ("granted", 0), "pending-3", ("woken", 3)]


def test_resource_acquire_outside_a_process_raises(env):
    res = Resource(env, capacity=1)
    assert res.try_acquire()
    with pytest.raises(SimulationError, match="outside a process"):
        next(res.acquire())


def test_resource_try_acquire(env):
    res = Resource(env, capacity=1)
    assert res.try_acquire()
    assert not res.try_acquire()
    res.release()
    assert res.try_acquire()


def test_release_without_acquire_raises(env):
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_handoff_keeps_in_use_constant(env):
    res = Resource(env, capacity=1)
    log = []
    _user(env, res, log, "holder", hold=4)
    waiter = _user(env, res, log, "waiter")
    env.run(until=3)
    assert res.in_use == 1 and waiter.is_alive
    # Queued now, this observation lands between the holder's release
    # (its wake was queued at t=0) and the waiter's wake (queued by that
    # release): the unit is handed over, not returned and re-taken.
    seen = []
    env.call_later(1, lambda _arg: seen.append((env.now, res.in_use, list(log))))
    env.run()
    assert seen == [(4, 1, [("holder", 0)])]
    assert log == [("holder", 0), ("waiter", 4)]
    assert res.in_use == 1
    res.release()
    assert res.in_use == 0


# ----------------------------------------------------------------- FifoServer
def _ignore(_arg):
    pass


def test_fifo_server_serializes(env):
    server = FifoServer(env, service_time=10)
    times = []
    for _ in range(3):
        server.serve_then(0, lambda _: times.append(env.now), None)
    env.run()
    assert times == [10, 20, 30]


def test_fifo_server_busy_accounting(env):
    server = FifoServer(env, service_time=10)
    server.serve_then(0, _ignore, None)
    server.serve_then(0, _ignore, None)
    env.run()
    assert server.busy_cycles == 20
    assert server.packets_served == 2
    assert server.utilization() == 1.0  # back-to-back packets, now == 20


def test_fifo_server_idle_gap_not_counted(env):
    server = FifoServer(env, service_time=5)
    server.serve_then(0, _ignore, None)
    env.run()
    env.call_later(95, noop)
    env.run()
    assert env.now == 100
    assert server.utilization() == pytest.approx(0.05)


def test_fifo_server_extra_delay(env):
    server = FifoServer(env, service_time=10)
    times = []
    server.serve_then(7, lambda _: times.append(env.now), None)
    env.run()
    assert times == [17]
    # extra delay is propagation, not occupancy:
    assert server.busy_cycles == 10


def test_fifo_server_negative_service_time_rejected(env):
    with pytest.raises(SimulationError):
        FifoServer(env, service_time=-1)


@given(
    arrivals=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
    service=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=50, deadline=None)
def test_fifo_server_conservation_property(arrivals, service):
    """Property: completions are spaced >= service_time apart and total
    busy time equals packets x service_time."""
    env = Environment()
    server = FifoServer(env, service_time=service)
    completions = []
    for a in sorted(arrivals):
        env.call_later(
            a,
            lambda _arg: server.serve_then(
                0, lambda _: completions.append(env.now), None
            ),
        )
    env.run()
    assert len(completions) == len(arrivals)
    assert server.busy_cycles == len(arrivals) * service
    for earlier, later in zip(completions, completions[1:]):
        assert later - earlier >= service
