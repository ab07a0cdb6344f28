"""Unit and property tests for the MOESI coherence substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.mem.cache import MoesiState
from repro.mem.coherence import CoherentMemorySystem
from repro.sim.kernel import Environment


@pytest.fixture
def mem(env):
    return CoherentMemorySystem(env, SystemConfig(num_cores=4))


def run_op(env, gen):
    """Drive a yield-from memory operation to completion."""
    proc = env.process(gen)
    env.run_until_complete()
    return proc.value


def test_load_returns_stored_value(env, mem):
    run_op(env, mem.store(0, 0x1000, 42))
    assert run_op(env, mem.load(0, 0x1000)) == 42


def test_cold_load_goes_to_dram(env, mem):
    run_op(env, mem.load(0, 0x1000))
    assert mem.dram.reads == 1
    assert mem.counters.get("dram_fills") == 1


def test_second_load_hits_l1(env, mem):
    run_op(env, mem.load(0, 0x1000))
    t0 = env.now
    run_op(env, mem.load(0, 0x1000))
    assert env.now - t0 == mem.config.l1d.hit_latency
    assert mem.counters.get("load_hits") == 1


def test_remote_dirty_line_supplied_cache_to_cache(env, mem):
    run_op(env, mem.store(0, 0x2000, 7))
    assert mem.l1[0].state_of(0x2000) is MoesiState.MODIFIED
    value = run_op(env, mem.load(1, 0x2000))
    assert value == 7
    assert mem.counters.get("c2c_transfers") == 1
    # Supplier degrades to OWNED, requester takes SHARED.
    assert mem.l1[0].state_of(0x2000) is MoesiState.OWNED
    assert mem.l1[1].state_of(0x2000) is MoesiState.SHARED


def test_store_invalidates_sharers(env, mem):
    run_op(env, mem.load(0, 0x3000))
    run_op(env, mem.load(1, 0x3000))
    run_op(env, mem.store(1, 0x3000, 9))
    assert mem.l1[0].state_of(0x3000) is MoesiState.INVALID
    assert mem.l1[1].state_of(0x3000) is MoesiState.MODIFIED
    assert mem.counters.get("upgrades") == 1


def test_exclusive_fill_when_no_sharers(env, mem):
    run_op(env, mem.load(0, 0x4000))
    assert mem.l1[0].state_of(0x4000) is MoesiState.EXCLUSIVE


def test_shared_fill_when_other_sharer(env, mem):
    run_op(env, mem.load(0, 0x5000))
    run_op(env, mem.load(1, 0x5000))
    assert mem.l1[1].state_of(0x5000) is MoesiState.SHARED


def test_silent_upgrade_exclusive_to_modified(env, mem):
    run_op(env, mem.load(0, 0x6000))  # E
    bus_before = mem.network.total_packets
    run_op(env, mem.store(0, 0x6000, 1))
    assert mem.network.total_packets == bus_before  # silent E->M
    assert mem.l1[0].state_of(0x6000) is MoesiState.MODIFIED


def test_cas_success_and_failure(env, mem):
    run_op(env, mem.store(0, 0x7000, 5))
    assert run_op(env, mem.cas(1, 0x7000, 5, 6)) is True
    assert run_op(env, mem.cas(0, 0x7000, 5, 7)) is False
    assert mem.values[0x7000] == 6


def test_ping_pong_lines_bounce(env, mem):
    """Alternating writers force repeated invalidations (Figure 1a cost)."""
    for i in range(6):
        run_op(env, mem.store(i % 2, 0x9000, i))
    # Each ownership change after the first is an upgrade or RdX.
    assert mem.counters.get("store_misses") + mem.counters.get("upgrades") >= 5
    mem.check_coherence_invariant()


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["load", "store", "cas"]),
            st.integers(min_value=0, max_value=3),       # core
            st.integers(min_value=0, max_value=7),       # line index
            st.integers(min_value=0, max_value=100),     # value
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=30, deadline=None)
def test_coherence_matches_reference_model(ops):
    """Property: sequential op streams match a plain dict memory model and
    never violate the single-writer/multiple-reader invariant."""
    env = Environment()
    mem = CoherentMemorySystem(env, SystemConfig(num_cores=4))
    reference = {}
    for op, core, line, value in ops:
        addr = 0x10000 + line * 64
        if op == "load":
            got = run_op(env, mem.load(core, addr))
            assert got == reference.get(addr, 0)
        elif op == "store":
            run_op(env, mem.store(core, addr, value))
            reference[addr] = value
        else:
            expected = reference.get(addr, 0)
            assert run_op(env, mem.cas(core, addr, expected, value)) is True
            reference[addr] = value
        mem.check_coherence_invariant()


# --------------------------------------------------------- coverage top-ups
def test_peek_and_poke_bypass_simulated_time(env, mem):
    mem.poke_value(0x9000, 123)
    assert mem.values[0x9000] == 123
    assert env.now == 0  # no cycles consumed


def test_store_miss_supplied_cache_to_cache(env, mem):
    run_op(env, mem.store(0, 0x4000, 5))  # dirty in core 0
    run_op(env, mem.store(1, 0x4000, 6))  # BusRdX, remote M supplies
    assert mem.counters.get("c2c_transfers") == 1
    assert mem.counters.get("store_misses") == 2  # cold miss + BusRdX
    assert mem.l1[0].state_of(0x4000) is MoesiState.INVALID
    assert mem.l1[1].state_of(0x4000) is MoesiState.MODIFIED


def test_dirty_victim_writes_back_to_l2(env, mem):
    # Fill one L1 set past associativity with MODIFIED lines: stride =
    # num_sets * line_bytes keeps every address in the same set.
    geometry = mem.config.l1d
    stride = geometry.num_sets * geometry.line_bytes
    for i in range(geometry.associativity + 1):
        run_op(env, mem.store(0, 0x100000 + i * stride, i))
    assert mem.counters.get("writebacks") >= 1
    # The victim's line is now in L2, so re-loading it hits there.
    run_op(env, mem.load(0, 0x100000))
    assert mem.counters.get("l2_hits") >= 1


def test_load_after_remote_clean_copy_degrades_exclusive(env, mem):
    run_op(env, mem.load(0, 0x5000))  # EXCLUSIVE in core 0
    run_op(env, mem.load(1, 0x5000))  # supplier degrades E -> S
    assert mem.l1[0].state_of(0x5000) is MoesiState.SHARED
    assert mem.l1[1].state_of(0x5000) is MoesiState.SHARED


def test_invariant_rejects_multiple_writable_copies(env, mem):
    from repro.errors import ProtocolError

    run_op(env, mem.store(0, 0x6000, 1))
    mem.l1[1].install(0x6000, MoesiState.MODIFIED)  # corrupt on purpose
    with pytest.raises(ProtocolError, match="multiple writable"):
        mem.check_coherence_invariant()


def test_invariant_rejects_writable_plus_sharer(env, mem):
    from repro.errors import ProtocolError

    run_op(env, mem.store(0, 0x6100, 1))
    mem.l1[1].install(0x6100, MoesiState.SHARED)
    with pytest.raises(ProtocolError, match="coexists"):
        mem.check_coherence_invariant()


def test_invariant_rejects_multiple_owners(env, mem):
    from repro.errors import ProtocolError

    mem.l1[0].install(0x6200, MoesiState.OWNED)
    mem.l1[1].install(0x6200, MoesiState.OWNED)
    with pytest.raises(ProtocolError, match="multiple owners"):
        mem.check_coherence_invariant()


def test_coherence_over_mesh_network(env):
    # The NoC path: coherence requests travel core -> hub (SRD shard 0's
    # node) and c2c transfers pay core-to-core distance.
    from repro.registry import TOPOLOGIES

    config = SystemConfig(num_cores=16, topology="mesh")
    net = CoherentMemorySystem(env, config,
                               network=TOPOLOGIES.resolve("mesh")(env, config))
    run_op(env, net.store(0, 0x7000, 9))
    far = run_op(env, net.load(15, 0x7000))  # c2c across the die
    assert far == 9
    assert net.counters.get("c2c_transfers") == 1
    assert net.network.wait_cycles >= 0
    assert net.network.links()  # real per-link fabric underneath
    net.check_coherence_invariant()
