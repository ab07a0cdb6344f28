"""Tests for the user-space queue library (push/pop paths)."""

import pytest

from repro.config import SystemConfig
from repro.errors import RegistrationError, WorkloadError
from repro.mem.bus import PacketKind
from repro.system import System
from tests.conftest import build_pingpong


def test_create_queue_allocates_distinct_sqis(vl_system):
    lib = vl_system.library
    sqis = [lib.create_queue() for _ in range(5)]
    assert len(set(sqis)) == 5
    assert 0 not in sqis  # SQI 0 reserved: zero consHead means "no request"


def test_legacy_consumer_defaults_to_one_line(vl_system):
    cons = vl_system.library.open_consumer(vl_system.library.create_queue(), 1)
    assert len(cons.lines) == 1
    assert not cons.spec_enabled


def test_spec_consumer_defaults_to_config_lines(spamer_system):
    cons = spamer_system.library.open_consumer(
        spamer_system.library.create_queue(), 1
    )
    assert len(cons.lines) == spamer_system.config.lines_per_endpoint
    assert cons.spec_enabled


def test_spec_endpoint_rejected_on_vl_build(vl_system):
    q = vl_system.library.create_queue()
    with pytest.raises(RegistrationError):
        vl_system.library.open_consumer(q, 1, speculative=True)


def test_legacy_endpoint_available_on_spamer_build(spamer_system):
    q = spamer_system.library.create_queue()
    cons = spamer_system.library.open_consumer(q, 1, speculative=False)
    assert not cons.spec_enabled
    assert len(spamer_system.device.specbuf) == 0


def test_bad_core_rejected(vl_system):
    q = vl_system.library.create_queue()
    with pytest.raises(WorkloadError):
        vl_system.library.open_producer(q, core_id=99)


def test_pingpong_delivers_in_order_on_vl(vl_system):
    received = build_pingpong(vl_system, rounds=40)
    vl_system.run_to_completion(limit=10_000_000)
    assert received == list(range(40))


def test_pingpong_delivers_all_on_spamer(spamer_system):
    received = build_pingpong(spamer_system, rounds=40)
    spamer_system.run_to_completion(limit=10_000_000)
    assert sorted(received) == list(range(40))


def test_vl_sends_one_request_per_message_when_uncongested(vl_system):
    build_pingpong(vl_system, rounds=30, compute=500)
    vl_system.run_to_completion(limit=10_000_000)
    requests = vl_system.network.packets(PacketKind.REQUEST)
    # One unconditional fetch per pop; slow waits may add a rare refetch.
    assert 30 <= requests <= 40


def test_spec_endpoints_send_no_requests(spamer_system):
    build_pingpong(spamer_system, rounds=30)
    spamer_system.run_to_completion(limit=10_000_000)
    assert spamer_system.network.packets(PacketKind.REQUEST) == 0


def test_push_blocks_on_prodbuf_backpressure():
    """A producer outrunning a stalled consumer is throttled, not dropped."""
    config = SystemConfig(num_cores=4, prodbuf_entries=4)
    system = System(config=config, device="vl")
    lib = system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, 0)
    cons = lib.open_consumer(q, 1)
    received = []

    def producer(ctx):
        for i in range(20):
            yield from ctx.push(prod, i)

    def consumer(ctx):
        yield ctx.compute(50_000)  # long stall: device must backpressure
        for _ in range(20):
            msg = yield from ctx.pop(cons)
            received.append(msg.payload)

    system.spawn(0, producer, "p")
    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=50_000_000)
    assert received == list(range(20))


def test_pop_until_returns_none_when_stopped(vl_system):
    lib = vl_system.library
    q = lib.create_queue()
    lib.open_producer(q, 0)
    cons = lib.open_consumer(q, 1)
    results = []

    def consumer(ctx):
        msg = yield from ctx.pop_until(cons, lambda: ctx.now > 500)
        results.append(msg)

    vl_system.spawn(1, consumer, "c")
    vl_system.run_to_completion(limit=1_000_000)
    assert results == [None]


def test_outlined_library_charges_call_overhead():
    """Section 3.4: without inlining every op pays call_overhead."""
    def run(inline):
        cfg = SystemConfig(num_cores=4, inline_library=inline)
        system = System(config=cfg, device="vl")
        build_pingpong(system, rounds=50, compute=100)
        return system.run_to_completion(limit=10_000_000)

    assert run(inline=False) > run(inline=True)


def test_message_metadata(vl_system):
    lib = vl_system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, 0)
    cons = lib.open_consumer(q, 1)
    seen = []

    def producer(ctx):
        for i in range(3):
            msg = yield from ctx.push(prod, f"payload-{i}")
            assert msg.seq == i

    def consumer(ctx):
        for _ in range(3):
            msg = yield from ctx.pop(cons)
            seen.append((msg.seq, msg.payload, msg.sqi))

    vl_system.spawn(0, producer, "p")
    vl_system.spawn(1, consumer, "c")
    vl_system.run_to_completion(limit=1_000_000)
    assert seen == [(0, "payload-0", q), (1, "payload-1", q), (2, "payload-2", q)]
