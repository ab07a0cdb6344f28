"""End-to-end system tests on NoC topologies + config validation.

The golden-fixture suites (test_ideal_device, test_obs_golden) pin the
default single-bus model bit-for-bit; this file covers what they cannot:
whole workloads running over mesh/ring/crossbar fabrics, multi-SRD
sharding, and the new configuration error surfaces.
"""

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.runner import run_workload, setting_by_name

TOPOLOGIES = ["mesh", "ring", "crossbar"]
SETTINGS = ["vl", "tuned"]


def run(topology, setting="tuned", verify=True, **overrides):
    config = SystemConfig(topology=topology, **overrides)
    return run_workload(
        "ping-pong", setting_by_name(setting), scale=0.1, config=config,
        verify=verify,
    )


# ------------------------------------------------------------- end-to-end
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("setting", SETTINGS)
def test_workload_completes_verified_on_noc(topology, setting):
    metrics = run(topology, setting=setting)
    assert metrics.messages_delivered == metrics.messages_produced > 0
    assert metrics.extra["net_links"] > 0
    assert 0.0 <= metrics.extra["net_utilization"] <= 1.0


def test_default_config_is_single_bus_and_reports_no_links():
    config = SystemConfig()
    assert config.topology == "single-bus"
    metrics = run_workload(
        "ping-pong", setting_by_name("tuned"), scale=0.1, config=config
    )
    # Bus-model metrics carry no net extras — the byte-identity contract
    # for everything downstream (goldens, JSON reports).
    assert "net_links" not in metrics.extra
    assert "net_utilization" not in metrics.extra


def test_explicit_single_bus_identical_to_default():
    default = run_workload("ping-pong", setting_by_name("tuned"), scale=0.1)
    explicit = run_workload(
        "ping-pong", setting_by_name("tuned"), scale=0.1,
        config=SystemConfig(topology="single-bus"),
    )
    assert dataclasses.asdict(default) == dataclasses.asdict(explicit)


def test_noc_distance_slows_delivery_vs_bus():
    # halo on 16 cores: mesh routes pay per-hop latency the distance-free
    # bus never sees, so the mesh run cannot be faster at equal occupancy.
    bus = run_workload("halo", setting_by_name("vl"), scale=0.1)
    mesh = run_workload(
        "halo", setting_by_name("vl"), scale=0.1,
        config=SystemConfig(topology="mesh"),
    )
    assert mesh.exec_cycles != bus.exec_cycles
    assert mesh.extra["net_wait_cycles"] >= 0


# ----------------------------------------------------------- SRD sharding
@pytest.mark.parametrize("num_srds", [2, 4])
def test_multi_srd_sharding_conserves_messages(num_srds):
    metrics = run("mesh", num_srds=num_srds)
    assert metrics.messages_delivered == metrics.messages_produced > 0


def test_queues_partition_across_shards():
    from repro.system import System

    system = System(
        config=SystemConfig(topology="crossbar", num_srds=2), device="spamer"
    )
    assert [d.srd_index for d in system.devices] == [0, 1]
    sqi_a = system.library.create_queue()
    sqi_b = system.library.create_queue()
    assert system.device_for(sqi_a) is not system.device_for(sqi_b)
    assert system.device_for(sqi_a) is system.devices[sqi_a % 2]


def test_bus_hook_payload_reads_no_link_counter(monkeypatch):
    """A BusHook publish costs O(1): on a mesh with only a BusHook
    subscriber, the run reads no link's busy counter, and each payload
    is still the busy time summed over the links."""
    from repro.eval.scaling import scaling_config
    from repro.sim.hooks import BusHook
    from repro.sim.resources import FifoServer

    reads = []
    busy = FifoServer.busy_cycles.fget
    monkeypatch.setattr(
        FifoServer, "busy_cycles",
        property(lambda link: reads.append(link) or busy(link)),
    )
    seen = []

    def attach(system):
        def on_bus(event):
            count = len(reads)
            links = system.network.links()
            seen.append(
                (event.busy_cycles, sum(busy(l) for l in links), count)
            )

        system.hooks.subscribe(BusHook, on_bus)

    run_workload(
        "scaling-halo", setting_by_name("tuned"), scale=0.05,
        config=scaling_config(16, "mesh"), on_system=attach,
    )
    assert len(seen) > 100
    assert all(payload == total for payload, total, _ in seen)
    assert all(count == 0 for _, _, count in seen)


def test_sharded_run_aggregates_stats_across_devices():
    metrics = run("crossbar", setting="tuned", num_srds=4)
    assert metrics.push_attempts > 0  # summed over all four shards


# ------------------------------------------------------------ validation
def test_zero_occupancy_single_channel_stays_legal():
    # The ideal-network ablation: the one bus at occupancy 0.
    config = SystemConfig(bus_occupancy=0)
    assert config.bus_occupancy == 0


def test_unknown_topology_rejected_with_available_list():
    with pytest.raises(ConfigError, match=r"registered: \[.*'single-bus'"):
        SystemConfig(topology="hypercube")


def test_mesh_dims_requires_mesh_topology():
    with pytest.raises(ConfigError, match="topology='mesh'"):
        SystemConfig(mesh_dims=(4, 4))


def test_mesh_dims_must_cover_cores():
    with pytest.raises(ConfigError, match="mesh_dims"):
        SystemConfig(topology="mesh", mesh_dims=(2, 2), num_cores=16)
    with pytest.raises(ConfigError, match="positive"):
        SystemConfig(topology="mesh", mesh_dims=(0, 4))


def test_num_srds_round_trips_through_dict():
    config = SystemConfig(topology="mesh", mesh_dims=(4, 4), num_srds=2)
    clone = SystemConfig.from_dict(config.to_dict())
    assert clone.mesh_dims == (4, 4)
    assert clone.num_srds == 2
    assert clone == config


# ----------------------------------------------------------------- obs
def test_obs_run_exports_link_tracks_and_gauges():
    from repro.obs.collector import MetricsCollector, finalize_system
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    captured = {}

    def attach(system):
        captured["system"] = system
        system.metrics = registry
        MetricsCollector(system.hooks, registry)

    run_workload(
        "ping-pong", setting_by_name("tuned"), scale=0.1,
        config=SystemConfig(topology="mesh"), on_system=attach,
    )
    finalize_system(captured["system"], registry)
    snapshot = registry.as_dict()
    gauges, counters = set(snapshot["gauges"]), set(snapshot["counters"])
    assert "net.links" in gauges
    assert "net.utilization" in gauges
    assert any(name.startswith("net.traversals.") for name in counters)
    assert any(name.startswith("net.link.") for name in gauges)


def test_obs_bus_run_has_no_net_metrics():
    from repro.obs.collector import MetricsCollector, finalize_system
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    captured = {}

    def attach(system):
        captured["system"] = system
        system.metrics = registry
        MetricsCollector(system.hooks, registry)

    run_workload("ping-pong", setting_by_name("tuned"), scale=0.1,
                 on_system=attach)
    finalize_system(captured["system"], registry)
    snapshot = registry.as_dict()
    names = list(snapshot["gauges"]) + list(snapshot["counters"])
    assert not any(name.startswith("net.") for name in names)


def test_perfetto_trace_gets_interconnect_process():
    import json

    from repro.obs.perfetto import PerfettoTraceSink

    sink = {}

    def attach(system):
        sink["trace"] = PerfettoTraceSink(system.hooks)

    run_workload(
        "ping-pong", setting_by_name("tuned"), scale=0.1,
        config=SystemConfig(topology="mesh"), on_system=attach,
    )
    events = json.loads(sink["trace"].to_json())["traceEvents"]
    names = {
        e["args"]["name"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    assert "interconnect" in names
    assert any(e.get("cat") == "net" for e in events)
