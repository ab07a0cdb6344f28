"""Tests for the software queue baseline and the Figure 1 motivation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.mem.coherence import CoherentMemorySystem
from repro.sim.kernel import Environment
from repro.swqueue import (
    SoftwareQueue,
    motivation_experiment,
    run_software_pingpong,
)


def make_queue(capacity=4):
    env = Environment()
    mem = CoherentMemorySystem(env, SystemConfig(num_cores=4))
    return env, mem, SoftwareQueue(mem, base_addr=0x10000, capacity=capacity)


def test_queue_validation():
    env = Environment()
    mem = CoherentMemorySystem(env, SystemConfig(num_cores=4))
    with pytest.raises(ConfigError):
        SoftwareQueue(mem, base_addr=0x10000, capacity=0)
    with pytest.raises(ConfigError):
        SoftwareQueue(mem, base_addr=0x10001, capacity=4)


def test_spsc_fifo_order():
    env, mem, queue = make_queue(capacity=4)
    received = []

    def producer():
        for i in range(20):
            yield from queue.enqueue(0, i)

    def consumer():
        for _ in range(20):
            value = yield from queue.dequeue(1)
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run_until_complete()
    assert received == list(range(20))
    assert queue.enqueues == queue.dequeues == 20


def test_bounded_capacity_blocks_producer():
    env, mem, queue = make_queue(capacity=2)

    def producer():
        for i in range(4):
            yield from queue.enqueue(0, i)

    env.process(producer())
    # Without a consumer only `capacity` items can be enqueued.
    env.run(until=100_000)
    assert queue.enqueues == 2


def test_try_dequeue_empty_returns_none():
    env, mem, queue = make_queue()

    def attempt():
        value = yield from queue.try_dequeue(0)
        return value

    proc = env.process(attempt())
    env.run_until_complete()
    assert proc.ok and proc.value is None


@given(
    producers=st.integers(min_value=1, max_value=3),
    consumers=st.integers(min_value=1, max_value=3),
    per_producer=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=15, deadline=None)
def test_mpmc_conservation(producers, consumers, per_producer):
    """Property: every enqueued value dequeued exactly once, MPMC."""
    env = Environment()
    mem = CoherentMemorySystem(env, SystemConfig(num_cores=8))
    queue = SoftwareQueue(mem, base_addr=0x10000, capacity=4)
    total = producers * per_producer
    received = []

    def producer(pid):
        for i in range(per_producer):
            yield from queue.enqueue(pid, pid * 1000 + i)

    def consumer(cid, count):
        for _ in range(count):
            value = yield from queue.dequeue(producers + cid)
            received.append(value)

    counts = [total // consumers] * consumers
    counts[0] += total - sum(counts)
    for p in range(producers):
        env.process(producer(p))
    for c, n in enumerate(counts):
        env.process(consumer(c, n))
    env.run_until_complete()
    expected = sorted(p * 1000 + i for p in range(producers) for i in range(per_producer))
    assert sorted(received) == expected
    mem.check_coherence_invariant()


def test_motivation_ordering():
    """Figure 1: Lc (software) > Lv (VL) >= Ls (SPAMeR)."""
    res = motivation_experiment(messages=150)
    sw, vl, sp = (
        res["software"].cycles_per_message,
        res["virtual-link"].cycles_per_message,
        res["spamer"].cycles_per_message,
    )
    assert sw > vl, "coherence-based queue should be slowest"
    assert sp <= vl * 1.02, "SPAMeR should not be slower than VL on ping-pong"
    # And SPAMeR halves the network traffic (one-way vs request+data).
    assert res["spamer"].coherence_packets < res["virtual-link"].coherence_packets


def test_software_pingpong_is_deterministic():
    a = run_software_pingpong(messages=50)
    b = run_software_pingpong(messages=50)
    assert a.total_cycles == b.total_cycles


# --------------------------------------------------------- coverage top-ups
def test_try_dequeue_success_returns_value_and_recycles():
    env, mem, queue = make_queue(capacity=2)

    def driver():
        yield from queue.enqueue(0, 77)
        first = yield from queue.try_dequeue(1)
        second = yield from queue.try_dequeue(1)
        return first, second

    proc = env.process(driver())
    env.run_until_complete()
    first, second = proc.value
    assert first == 77
    assert second is None  # drained
    assert queue.dequeues == 1
    # The slot's sequence word was recycled for the next lap.
    assert mem.values[queue._seq_addr(0)] == queue.capacity


def test_ring_wraps_through_multiple_laps():
    env, _mem, queue = make_queue(capacity=2)
    received = []

    def producer():
        for i in range(7):
            yield from queue.enqueue(0, i)

    def consumer():
        for _ in range(7):
            value = yield from queue.dequeue(1)
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run_until_complete()
    assert received == list(range(7))  # FIFO across 3+ laps of the ring
