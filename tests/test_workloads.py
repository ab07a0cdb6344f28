"""Tests for the 8 benchmarks: topology (Table 2), execution, validation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.system import System
from repro.workloads import (
    Bitonic,
    Fir,
    Firewall,
    Halo,
    Incast,
    PingPong,
    Pipeline,
    Sweep,
    WorkCounter,
    make_workload,
    workload_names,
)

SCALE = 0.06  # keep each run well under a second


# -------------------------------------------------------------------- registry
def test_registry_matches_table2_order():
    assert workload_names() == [
        "ping-pong", "halo", "sweep", "incast",
        "pipeline", "firewall", "FIR", "bitonic",
    ]


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        make_workload("quantum-sort")


# -------------------------------------------------------------------- topology
@pytest.mark.parametrize(
    "name,expected",
    [
        ("ping-pong", "(1:1)x2"),
        ("halo", "(1:1)x48"),
        ("sweep", "(1:1)x48"),
        ("incast", "(4:1)x1"),
        ("pipeline", "(1:4)x1+(4:4)x1+(4:1)x1+(1:1)x1"),
        ("firewall", "(1:1)x3+(2:1)x1"),
        ("FIR", "(1:1)x9"),
        ("bitonic", "(1:6)x1+(6:1)x1"),
    ],
)
def test_topologies_match_table2(name, expected):
    w = make_workload(name)
    assert "+".join(spec.label() for spec in w.topology()) == expected


def test_thread_counts_fit_16_cores():
    for name in workload_names():
        w = make_workload(name)
        assert 2 <= w.num_threads() <= 16


def test_table2_rows_have_descriptions():
    for name in workload_names():
        assert len(make_workload(name).description) > 10


# ------------------------------------------------------------------- execution
@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("device,algo", [("vl", None), ("spamer", "0delay")])
def test_workload_runs_and_conserves_messages(name, device, algo):
    w = make_workload(name, scale=SCALE)
    system = System(device=device, algorithm=algo)
    w.build(system)
    system.run_to_completion(limit=100_000_000)
    w.validate()  # conservation (+ FIR numerics, bitonic sortedness)
    assert w.total_messages() > 0
    assert system.messages_delivered() == w.total_messages()


def test_workloads_are_deterministic():
    def run_once():
        w = make_workload("firewall", scale=SCALE)
        system = System(device="spamer", algorithm="tuned", seed=123)
        w.build(system)
        return system.run_to_completion(limit=100_000_000)

    assert run_once() == run_once()


def test_different_seeds_change_timing():
    def run_seed(seed):
        w = make_workload("incast", scale=SCALE)
        system = System(device="vl", seed=seed)
        w.build(system)
        return system.run_to_completion(limit=100_000_000)

    assert run_seed(1) != run_seed(2)


def test_scale_controls_message_count():
    small = make_workload("ping-pong", scale=0.05)
    big = make_workload("ping-pong", scale=0.1)
    for w in (small, big):
        system = System(device="vl")
        w.build(system)
        system.run_to_completion(limit=100_000_000)
    assert big.total_messages() == 2 * small.total_messages()


def test_invalid_scale_rejected():
    with pytest.raises(WorkloadError):
        make_workload("ping-pong", scale=0)


# ------------------------------------------------------------------ validation
def test_validate_detects_loss():
    w = make_workload("ping-pong", scale=SCALE)
    w.note_produced("ghost")
    with pytest.raises(WorkloadError, match="conservation"):
        w.validate()


def test_work_counter_guards_overrun():
    counter = WorkCounter(2)
    counter.mark_done()
    counter.mark_done()
    assert counter.all_done()
    with pytest.raises(WorkloadError):
        counter.mark_done()


# ---------------------------------------------------------------- FIR numerics
def test_fir_output_matches_convolution():
    w = make_workload("FIR", scale=SCALE)
    system = System(device="spamer", algorithm="0delay")
    w.build(system)
    system.run_to_completion(limit=100_000_000)
    w.validate()
    x = np.asarray(w.inputs)
    expected = np.convolve(x, w.coefficients)[: len(x)]
    got = np.empty(len(x))
    for n, y in w.results:
        got[n] = y
    assert np.allclose(got, expected)


def test_fir_validate_rejects_corrupted_output():
    w = make_workload("FIR", scale=SCALE)
    system = System(device="vl")
    w.build(system)
    system.run_to_completion(limit=100_000_000)
    w.results[0] = (w.results[0][0], w.results[0][1] + 1.0)
    with pytest.raises(WorkloadError, match="mismatch"):
        w.validate()


# ------------------------------------------------------------- bitonic results
def test_bitonic_blocks_come_back_sorted():
    w = make_workload("bitonic", scale=SCALE)
    system = System(device="spamer", algorithm="adapt")
    w.build(system)
    system.run_to_completion(limit=100_000_000)
    w.validate()
    assert len(w.sorted_blocks) == w._blocks
    for block in w.sorted_blocks.values():
        assert list(block) == sorted(block)


# ---------------------------------------------------------------- class knobs
def test_incast_master_lines_differ_by_mode():
    for device, algo, expected in (("vl", None, 1), ("spamer", "0delay", 32)):
        w = make_workload("incast", scale=SCALE)
        system = System(device=device, algorithm=algo)
        w.build(system)
        master = system.library.consumers[0]
        assert len(master.lines) == expected
