"""Unit and property tests for Resource and FifoServer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.sim.resources import FifoServer, Resource


# ------------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    assert res.acquire().triggered
    assert res.acquire().triggered
    third = res.acquire()
    assert not third.triggered
    res.release()
    assert third.triggered


def test_resource_fifo_waiters(env):
    res = Resource(env, capacity=1)
    res.acquire()
    waiters = [res.acquire() for _ in range(3)]
    res.release()
    assert [w.triggered for w in waiters] == [True, False, False]
    res.release()
    assert [w.triggered for w in waiters] == [True, True, False]


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
    res.acquire()
    waiter = res.acquire()
    res.release()  # handed straight to the waiter
    assert waiter.triggered
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
    env.timeout(95)
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
        env.timeout(a).subscribe(
            lambda _e: server.serve_then(
                0, lambda _: completions.append(env.now), None
            )
        )
    env.run()
    assert len(completions) == len(arrivals)
    assert server.busy_cycles == len(arrivals) * service
    for earlier, later in zip(completions, completions[1:]):
        assert later - earlier >= service
