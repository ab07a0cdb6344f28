"""Unit tests for the coherence-network model."""

import pytest

from repro.config import SystemConfig
from repro.mem.bus import CoherenceNetwork, PacketKind
from tests.conftest import noop


def _ignore(_arg):
    pass


@pytest.fixture
def network(env):
    cfg = SystemConfig(bus_latency=36, bus_occupancy=3)
    return CoherenceNetwork(env, cfg)


def test_single_packet_latency(env, network):
    done = []
    network.transit_then(PacketKind.REQUEST, lambda _: done.append(env.now), None)
    env.run()
    assert done == [3 + 36]  # occupancy + propagation


def test_packets_serialize_on_occupancy(env, network):
    done = []
    for _ in range(3):
        network.transit_then(PacketKind.STASH, lambda _: done.append(env.now), None)
    env.run()
    assert done == [39, 42, 45]  # 3-cycle serialization spacing


def test_packet_counters(env, network):
    network.transit_then(PacketKind.REQUEST, _ignore, None)
    network.transit_then(PacketKind.PUSH_DATA, _ignore, None)
    network.transit_then(PacketKind.PUSH_DATA, _ignore, None)
    env.run()
    assert network.packets(PacketKind.REQUEST) == 1
    assert network.packets(PacketKind.PUSH_DATA) == 2
    assert network.total_packets == 3


def test_response_has_latency_but_no_occupancy(env, network):
    done = []
    network.response_then(0, 0, lambda _: done.append(env.now), None)
    env.run()
    assert done == [36]
    assert network.busy_cycles == 0  # responses ride the response channel


def test_utilization_is_busy_over_elapsed(env, network):
    for _ in range(10):
        network.transit_then(PacketKind.STASH, _ignore, None)
    env.run()            # ends at 30 occupancy + 36 latency = 66
    env.call_later(234, noop)
    env.run()            # now == 300
    assert network.busy_cycles == 30
    assert network.utilization(300) == pytest.approx(0.1)
    assert network.utilization() == pytest.approx(30 / 300)


def test_utilization_clamped_to_one(env, network):
    for _ in range(100):
        network.transit_then(PacketKind.STASH, _ignore, None)
    assert network.utilization(1) == 1.0
