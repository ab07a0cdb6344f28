"""Unit tests for the consumer-cacheline state machine."""

import pytest

from repro.errors import DeviceError
from repro.mem.cacheline import ConsumerLine, LineState
from tests.conftest import noop


def make_line(env):
    return ConsumerLine(env, addr=0x1000, endpoint_id=0, index=0)


def test_line_starts_empty(env):
    line = make_line(env)
    assert line.state is LineState.EMPTY
    assert line.is_empty


def test_fill_then_consume(env):
    line = make_line(env)
    assert line.try_fill("payload", transaction_id=7)
    assert line.state is LineState.VALID
    assert line.fill_txn == 7
    assert line.consume() == "payload"
    assert line.state is LineState.EMPTY
    assert line.fills == 1 and line.vacates == 1


def test_fill_on_valid_line_is_miss(env):
    line = make_line(env)
    assert line.try_fill("first")
    assert not line.try_fill("second")
    assert line.failed_fills == 1
    assert line.consume() == "first"  # original data untouched


def test_consume_empty_line_rejected(env):
    line = make_line(env)
    with pytest.raises(DeviceError):
        line.consume()


def test_vacate_timestamp_tracks_consumes(env):
    line = make_line(env)
    assert line.last_vacate_time == 0  # registration counts as ready
    line.try_fill("x")
    env.call_later(50, noop)
    env.run()
    line.consume()
    assert line.last_vacate_time == 50


def test_state_residency_accounting(env):
    line = make_line(env)
    env.call_later(10, noop)
    env.run()
    line.try_fill("x")           # empty for 10
    env.call_later(30, noop)
    env.run()
    line.consume()               # valid for 30
    env.call_later(5, noop)
    env.run()
    assert line.empty_cycles() == 15
    assert line.valid_cycles() == 30
    assert line.empty_cycles() + line.valid_cycles() == env.now


def test_fill_consume_cycle_invariant(env):
    """fills == vacates after any balanced sequence; residency sums to now."""
    line = make_line(env)
    for i in range(20):
        env.call_later(3, noop)
        env.run()
        assert line.try_fill(i)
        env.call_later(4, noop)
        env.run()
        assert line.consume() == i
    assert line.fills == line.vacates == 20
    assert line.empty_cycles() + line.valid_cycles() == env.now
