"""Unit tests for producer/consumer endpoints."""

import pytest

from repro.errors import RegistrationError
from repro.mem.address import Segment
from repro.mem.cacheline import LineState
from repro.vlink.endpoint import ConsumerEndpoint, ProducerEndpoint
from tests.conftest import noop


def make_consumer(env, num_lines=4, spec=False):
    seg = Segment(0x1000, 4096)
    return ConsumerEndpoint(env, 0, sqi=1, segment=seg, core_id=0,
                            num_lines=num_lines, spec_enabled=spec)


def test_producer_sequence_numbers():
    prod = ProducerEndpoint(0, sqi=1, segment=Segment(0x1000, 4096), core_id=0)
    assert [prod.take_seq() for _ in range(3)] == [0, 1, 2]


def test_consumer_line_addresses_follow_segment(env):
    cons = make_consumer(env)
    assert [line.addr for line in cons.lines] == [0x1000, 0x1040, 0x1080, 0x10C0]


def test_round_robin_advance(env):
    cons = make_consumer(env, num_lines=3)
    assert cons.current_line.index == 0
    cons.advance()
    assert cons.current_line.index == 1
    cons.advance()
    cons.advance()
    assert cons.current_line.index == 0  # wrapped


def test_oldest_valid_line_scans_forward(env):
    cons = make_consumer(env)
    assert cons.oldest_valid_line() is None
    cons.lines[2].try_fill("x")
    found = cons.oldest_valid_line()
    assert found is cons.lines[2]
    cons.retarget(found)
    assert cons.current_line is cons.lines[2]


def test_oldest_valid_prefers_round_robin_order(env):
    cons = make_consumer(env)
    cons.lines[1].try_fill("a")
    cons.lines[3].try_fill("b")
    cons.advance()
    cons.advance()  # rr at 2
    assert cons.oldest_valid_line() is cons.lines[3]  # first VALID at/after rr


def test_endpoint_cycle_aggregation(env):
    cons = make_consumer(env, num_lines=2)
    cons.lines[0].try_fill("x")
    env.call_later(10, noop)
    env.run()
    assert cons.valid_cycles() == 10
    assert cons.empty_cycles() == 10  # line 1 stayed empty


def test_too_many_lines_rejected(env):
    with pytest.raises(RegistrationError):
        make_consumer(env, num_lines=65)  # only 64 fit a 4 KiB page


def test_zero_lines_rejected(env):
    with pytest.raises(RegistrationError):
        make_consumer(env, num_lines=0)
