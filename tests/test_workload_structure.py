"""Structural tests for workload internals: grids, wavefronts, credits."""

import pytest

from repro.system import System
from repro.workloads import Halo, Sweep, make_workload
from repro.workloads.ember import Incast


# ------------------------------------------------------------------- halo grid
def test_halo_neighbor_relation_is_symmetric():
    halo = Halo()
    for r in range(halo.ROWS):
        for c in range(halo.COLS):
            for nr, nc in halo._neighbors(r, c):
                assert (r, c) in halo._neighbors(nr, nc)


def test_halo_neighbor_counts():
    halo = Halo()
    counts = sorted(
        len(halo._neighbors(r, c))
        for r in range(halo.ROWS)
        for c in range(halo.COLS)
    )
    # 4x4 grid: 4 corners with 2, 8 edges with 3, 4 interior with 4.
    assert counts == [2] * 4 + [3] * 8 + [4] * 4


def test_halo_edge_count_matches_table2():
    halo = Halo()
    total_directed_edges = sum(
        len(halo._neighbors(r, c))
        for r in range(halo.ROWS)
        for c in range(halo.COLS)
    )
    assert total_directed_edges == 48
    assert halo.topology()[0].count == 48


def test_halo_builds_one_queue_per_directed_edge(small_config):
    system = System(config=small_config.with_overrides(num_cores=16), device="vl")
    halo = make_workload("halo", scale=0.05)
    halo.build(system)
    assert len(system.library.producers) == 48
    assert len(system.library.consumers) == 48


# -------------------------------------------------------------------- sweep
def test_sweep_has_48_directed_edges():
    sweep = Sweep()
    assert sweep.topology()[0].count == 48


def test_sweep_wavefront_completes_in_dependency_order():
    """The forward wavefront reaches (3,3) only after every upstream cell."""
    system = System(device="vl")
    sweep = make_workload("sweep", scale=0.04)
    sweep.build(system)
    system.run_to_completion(limit=100_000_000)
    sweep.validate()


# -------------------------------------------------------------------- incast
def test_incast_master_on_core_zero(small_config):
    system = System(config=small_config.with_overrides(num_cores=16), device="vl")
    incast = make_workload("incast", scale=0.05)
    incast.build(system)
    master = system.library.consumers[0]
    assert master.core_id == 0
    producers = {p.core_id for p in system.library.producers}
    assert producers == {1, 2, 3, 4}


def test_incast_total_messages():
    system = System(device="vl")
    incast = make_workload("incast", scale=0.1)
    incast.build(system)
    system.run_to_completion(limit=100_000_000)
    expected = Incast.PRODUCERS * incast.scaled(Incast.MESSAGES_PER_PRODUCER)
    assert incast.total_messages() == expected


# ------------------------------------------------------------------ pipeline
def test_pipeline_credit_window_bounds_inflight():
    """The generator never has more than CREDIT_WINDOW packets uncredited,
    so routing-device occupancy stays far below the entry count."""
    system = System(device="vl")
    pipeline = make_workload("pipeline", scale=0.08)
    pipeline.build(system)

    max_seen = [0]

    def monitor(ctx):
        while any(t.is_alive for t in system.threads[:-1]):
            occupancy = sum(d.entries_in_use for d in system.devices)
            max_seen[0] = max(max_seen[0], occupancy)
            yield ctx.compute(200)

    system.spawn(system.config.num_cores - 1, monitor, "monitor")
    system.run_to_completion(limit=200_000_000)
    pipeline.validate()
    assert max_seen[0] <= system.config.prodbuf_entries


# ------------------------------------------------------------------- firewall
def test_firewall_splits_packets_evenly():
    system = System(device="vl")
    firewall = make_workload("firewall", scale=0.1)
    firewall.build(system)
    system.run_to_completion(limit=200_000_000)
    firewall.validate()
    filter_a = sum(1 for k in firewall.consumed if k[0] == "fa")
    filter_b = sum(1 for k in firewall.consumed if k[0] == "fb")
    assert abs(filter_a - filter_b) <= 1


# ---------------------------------------------------------------------- FIR
def test_fir_burst_structure():
    """The source's inter-burst gaps are visible in production timestamps."""
    system = System(device="spamer", algorithm="0delay")
    fir = make_workload("FIR", scale=0.1)
    fir.build(system)
    system.run_to_completion(limit=200_000_000)
    fir.validate()
    assert fir.total_messages() == fir.scaled(fir.SAMPLES) * (fir.STAGES - 1)


# ------------------------------------------------------------------- bitonic
def test_bitonic_window_bounds_outstanding_blocks():
    system = System(device="vl")
    bitonic = make_workload("bitonic", scale=0.1)
    bitonic.build(system)
    system.run_to_completion(limit=200_000_000)
    bitonic.validate()
    # All blocks accounted for in the master's result set.
    assert set(bitonic.sorted_blocks) == set(range(bitonic._blocks))
