"""Cross-cutting checks: device accounting identities and speculative-trace
correctness, across devices, algorithms and seeds."""

import pytest

from repro.eval.experiments import reconstruct_transactions
from repro.eval.runner import Setting, collect_metrics, standard_settings
from repro.sim.hooks import TraceHook
from repro.spamer.delay import TunedDelay
from repro.system import System
from repro.workloads import make_workload

SCALE = 0.06


def run_system(name, device, algorithm=None, seed=0xC0FFEE, on_system=None):
    workload = make_workload(name, scale=SCALE)
    system = System(device=device, algorithm=algorithm, seed=seed)
    if on_system is not None:
        on_system(system)
    workload.build(system)
    system.run_to_completion(limit=200_000_000)
    workload.validate()
    return system, workload


@pytest.mark.parametrize("name", ["incast", "firewall", "FIR"])
@pytest.mark.parametrize("device,algo", [("vl", None), ("spamer", "adapt")])
def test_device_accounting_identities(name, device, algo):
    system, workload = run_system(name, device, algo)
    stats = system.aggregate_device_stats()
    # Identity 1: every attempt resolves to exactly one hit or failure.
    assert stats.get("push_attempts") == stats.get("push_hits") + stats.get(
        "push_failures"
    )
    # Identity 2: hits == delivered messages (each message fills one line).
    assert stats.get("push_hits") == workload.total_messages()
    # Identity 3: split counters tile the totals.
    assert stats.get("push_attempts") == stats.get("ondemand_pushes") + stats.get(
        "spec_pushes"
    )
    assert stats.get("push_failures") == stats.get("ondemand_failures") + stats.get(
        "spec_failures"
    )
    # Identity 4: all prodBuf entries returned, all buffers drained.
    for dev in system.devices:
        assert dev.entries_in_use == 0
        for row in dev.linktab.rows.values():
            assert not row.buffered_data
    # Identity 5: consumer line fills equal hits.
    fills = sum(
        line.fills for ep in system.library.consumers for line in ep.lines
    )
    assert fills == stats.get("push_hits")


def test_every_data_arrival_is_a_push_arrival():
    system, workload = run_system("pipeline", "spamer", "0delay")
    stats = system.aggregate_device_stats()
    assert stats.get("data_arrivals") == workload.total_messages()


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_trace_consistency_under_speculation(seed):
    """Every traced speculative transaction satisfies the Figure 7 event
    ordering and carries no request; counts match device stats."""
    events = []
    system, workload = run_system(
        "incast", "spamer", "0delay", seed=seed,
        on_system=lambda s: s.hooks.subscribe(TraceHook, events.append),
    )
    txns = [t for t in reconstruct_transactions(events) if t.line_fill is not None]
    assert len(txns) == workload.total_messages()
    spec = [t for t in txns if t.speculative]
    assert len(spec) == len(txns)  # incast spec endpoints never request
    for t in txns:
        assert t.complete
        assert t.data_arrive is not None
        assert t.line_vacate <= t.line_fill
        assert t.line_fill <= t.first_use


def test_metrics_collection_is_pure():
    """collect_metrics never mutates the system (safe to call twice)."""
    system, workload = run_system("firewall", "vl")
    setting = standard_settings()[0]
    a = collect_metrics(system, workload, setting)
    b = collect_metrics(system, workload, setting)
    assert a == b


@pytest.mark.parametrize("name", ["ping-pong", "incast", "bitonic"])
def test_full_run_determinism_per_seed(name):
    """Identical (workload, device, seed) runs are cycle-identical, and the
    aggregate stat dictionaries match exactly."""

    def fingerprint():
        system, _w = run_system(name, "spamer", TunedDelay(), seed=99)
        return system.env.now, system.aggregate_device_stats().as_dict()

    assert fingerprint() == fingerprint()


def test_latency_stats_sample_count_matches_messages():
    system, workload = run_system("incast", "vl")
    assert system.latency_stats.n == workload.total_messages()
    assert min(system.latency_stats.samples) > 0
