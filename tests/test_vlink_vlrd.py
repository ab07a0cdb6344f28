"""Unit tests for the Virtual-Link routing device."""

import pytest

from repro.config import SystemConfig
from repro.errors import RegistrationError
from repro.mem.address import Segment
from repro.mem.cacheline import ConsumerLine
from repro.registry import TOPOLOGIES
from repro.sim.kernel import Environment
from repro.vlink.endpoint import ConsumerEndpoint
from repro.vlink.linktab import LinkTab
from repro.vlink.packets import ConsRequest, Message
from repro.vlink.vlrd import VirtualLinkRoutingDevice


@pytest.fixture
def device(env):
    cfg = SystemConfig(num_cores=4)
    network = TOPOLOGIES.resolve(cfg.topology)(env, cfg)
    return VirtualLinkRoutingDevice(env, cfg, network)


def make_message(env, sqi=1, payload="data", txn=0):
    return Message(payload=payload, sqi=sqi, producer_id=0, seq=0,
                   transaction_id=txn, produced_at=env.now)


def make_line(env, addr=0x1000):
    return ConsumerLine(env, addr=addr, endpoint_id=0, index=0)


def make_request(env, line, sqi=1):
    return ConsRequest(sqi=sqi, line=line, issued_at=env.now)


def test_data_without_request_is_buffered(env, device):
    device.accept_push(make_message(env))
    env.run()
    assert device.stats.get("buffered") == 1
    assert len(device.linktab.row(1).buffered_data) == 1
    assert device.stats.get("push_attempts") == 0


def test_request_without_data_is_pending(env, device):
    line = make_line(env)
    device.accept_request(make_request(env, line))
    env.run()
    assert len(device.linktab.row(1).pending_requests) == 1


def test_data_matches_pending_request(env, device):
    line = make_line(env)
    device.accept_request(make_request(env, line))
    env.run()
    device.accept_push(make_message(env, payload="hello"))
    env.run()
    assert line.state.value == "valid"
    assert line.data.payload == "hello"
    assert device.stats.get("push_hits") == 1
    assert device.failure_rate() == 0.0


def test_request_matches_buffered_data(env, device):
    device.accept_push(make_message(env, payload="early"))
    env.run()
    line = make_line(env)
    device.accept_request(make_request(env, line))
    env.run()
    assert line.data.payload == "early"


def test_push_to_valid_line_fails_and_retries(env, device):
    line = make_line(env)
    line.try_fill("occupying")
    device.accept_request(make_request(env, line))
    env.run()
    device.accept_push(make_message(env, payload="blocked"))
    env.run()
    # The push failed (line busy) and the packet re-entered the buffering
    # queue awaiting a fresh request.
    assert device.stats.get("push_failures") == 1
    assert len(device.linktab.row(1).buffered_data) == 1
    # A new request after the line is vacated delivers it.
    line.consume()
    device.accept_request(make_request(env, line))
    env.run()
    assert line.data.payload == "blocked"
    assert device.stats.get("push_hits") == 1


def test_duplicate_requests_coalesce(env, device):
    line = make_line(env)
    for _ in range(5):
        device.accept_request(make_request(env, line))
    env.run()
    assert len(device.linktab.row(1).pending_requests) == 1
    assert device.stats.get("requests_coalesced") == 4
    assert device._consbuf_occupancy == 1


def test_requests_for_different_lines_do_not_coalesce(env, device):
    a, b = make_line(env, 0x1000), make_line(env, 0x2000)
    device.accept_request(make_request(env, a))
    device.accept_request(make_request(env, b))
    env.run()
    assert len(device.linktab.row(1).pending_requests) == 2


def test_consbuf_overflow_drops_requests(env):
    cfg = SystemConfig(num_cores=4, consbuf_entries=2)
    network = TOPOLOGIES.resolve(cfg.topology)(env, cfg)
    device = VirtualLinkRoutingDevice(env, cfg, network)
    lines = [make_line(env, 0x1000 + i * 0x1000) for i in range(4)]
    for line in lines:
        device.accept_request(make_request(env, line))
    env.run()
    assert device.stats.get("requests_dropped") == 2


def test_per_sqi_fifo_order(env, device):
    line = make_line(env)
    payloads = []
    for i in range(4):
        device.accept_push(make_message(env, payload=i, txn=i))
    env.run()
    for _ in range(4):
        device.accept_request(make_request(env, line))
        env.run()
        payloads.append(line.consume().payload)
    assert payloads == [0, 1, 2, 3]


def test_fifo_kept_when_fresh_data_arrives_behind_backlog(env, device):
    device.accept_push(make_message(env, payload="first"))
    env.run()
    device.accept_push(make_message(env, payload="second"))
    env.run()
    line = make_line(env)
    device.accept_request(make_request(env, line))
    env.run()
    assert line.consume().payload == "first"


def _claims(env, device, sqi, count):
    """Start *count* pushes' admission on *sqi*; each process's value is the
    pool its entry came from once it is granted."""
    return [env.process(device.acquire_entry(sqi)) for _ in range(count)]


def test_admission_two_tier_pools(env, device):
    device.linktab.row(1)
    device.linktab.row(2)
    device.finalize_capacity()
    # Shared pool first: 60 shared entries for 2 SQIs with reserve 2 each.
    shared = _claims(env, device, 1, 60)
    env.run()
    assert [claim.value for claim in shared] == ["shared"] * 60
    # Shared exhausted: SQI 1 falls back to its reserve, then waits on it.
    reserved = _claims(env, device, 1, 3)
    # Reserve for SQI 2 is independent.
    other = _claims(env, device, 2, 1)
    env.run()
    assert [claim.value for claim in reserved[:2]] == ["reserved"] * 2
    assert reserved[2].is_alive
    assert other[0].value == "reserved"
    # Returning a shared entry does not admit the reserve waiter...
    device.release_entry(1, "shared")
    env.run()
    assert reserved[2].is_alive
    # ...returning one of its SQI's reserve entries does.
    device.release_entry(1, "reserved")
    env.run()
    assert reserved[2].value == "reserved"


def test_release_returns_to_correct_pool(env, device):
    device.linktab.row(1)
    device.finalize_capacity()
    (claim,) = _claims(env, device, 1, 1)
    env.run()
    used = device.entries_in_use
    device.release_entry(1, claim.value)
    assert device.entries_in_use == used - 1


def test_spec_hooks_rejected_on_baseline(env, device):
    seg = Segment(0x1000, 4096)
    endpoint = ConsumerEndpoint(env, 0, 1, seg, 0, 1, spec_enabled=True)
    with pytest.raises(RegistrationError):
        device.register_spec_target(endpoint)


def test_linktab_capacity(env):
    tab = LinkTab(2)
    tab.row(1)
    tab.row(2)
    with pytest.raises(RegistrationError):
        tab.row(3)
    assert 1 in tab and 3 not in tab
    assert len(tab) == 2
