"""Acceptance tests for the registry architecture.

1. A third routing-device flavor is added *in this file alone* — one
   ``@DEVICES.register`` class, zero edits to ``system.py``, ``runner.py``
   or ``cli.py`` — and is immediately buildable, runnable and visible to
   the CLI.
2. The refactor is bit-identical: ``SPAMeR(tuned)`` metrics for a pinned
   workload/seed pair match the values captured on the pre-refactor tree.
"""

import dataclasses

import pytest

from repro import System
from repro.registry import DEVICES
from repro.vlink.vlrd import VirtualLinkRoutingDevice


@pytest.fixture
def ideal_device():
    """Register a zero-latency device for the duration of one test."""

    @DEVICES.register("ideal")
    class IdealRoutingDevice(VirtualLinkRoutingDevice):
        kind = "IDEAL"

        def _stage_latency(self) -> int:
            return 0

    try:
        yield IdealRoutingDevice
    finally:
        DEVICES.unregister("ideal")


def _run_ping_pong(system, messages=16):
    q = system.library.create_queue()
    prod = system.library.open_producer(q, core_id=0)
    cons = system.library.open_consumer(q, core_id=1)

    def producer(ctx):
        for i in range(messages):
            yield from ctx.push(prod, i)
            yield from ctx.compute(50)

    def consumer(ctx):
        for _ in range(messages):
            yield from ctx.pop(cons)
            yield from ctx.compute(30)

    system.spawn(0, producer, "producer")
    system.spawn(1, consumer, "consumer")
    return system.run_to_completion()


def test_third_device_builds_with_no_core_edits(ideal_device):
    assert "ideal" in DEVICES.names()
    system = System(device="ideal")
    assert isinstance(system.device, ideal_device)
    assert system.device.name == "ideal"
    assert not system.supports_speculation


def test_third_device_runs_a_workload(ideal_device):
    ideal = System(device="ideal")
    baseline = System(device="vl")
    ideal_cycles = _run_ping_pong(ideal)
    baseline_cycles = _run_ping_pong(baseline)
    assert ideal.messages_delivered() == 16
    # Zero pipeline latency must not be slower than the 3-stage baseline.
    assert ideal_cycles <= baseline_cycles


def test_third_device_reaches_runner_and_cli(ideal_device):
    from repro.cli import build_parser
    from repro.eval.runner import available_setting_names, setting_by_name

    assert "ideal" in available_setting_names()
    setting = setting_by_name("ideal")
    assert setting.device == "ideal" and setting.algorithm is None
    # The CLI's --setting choices are registry-driven.
    args = build_parser().parse_args(["run", "ping-pong", "--setting", "ideal"])
    assert args.setting == "ideal"


#: Metrics of run_workload("ping-pong", SPAMeR(tuned), scale=0.1,
#: seed=0xC0FFEE) captured on the pre-refactor tree.  The registry /
#: pipeline / transaction / hook refactor must not move a single tick.
PRE_REFACTOR_GOLDEN = {
    "workload": "ping-pong",
    "setting": "SPAMeR(tuned)",
    "exec_cycles": 45122,
    "messages_delivered": 160,
    "messages_produced": 160,
    "push_attempts": 160,
    "push_failures": 0,
    "ondemand_pushes": 0,
    "ondemand_failures": 0,
    "spec_pushes": 160,
    "spec_failures": 0,
    "bus_busy_cycles": 960,
    "bus_packets": 320,
    "request_packets": 0,
    "avg_line_empty": 43479.25,
    "avg_line_valid": 1642.75,
    "latency_mean": 122.19999999999997,
    "latency_p50": 121.5,
    "latency_p99": 130.0,
    "extra": {"buffered": 0, "requests_dropped": 0, "spec_selected": 160},
}


def test_refactor_is_bit_identical_to_pre_refactor_metrics():
    from repro.eval.runner import run_workload, standard_settings

    tuned = standard_settings()[3]
    assert tuned.label == "SPAMeR(tuned)"
    metrics = run_workload("ping-pong", tuned, scale=0.1, seed=0xC0FFEE)
    assert dataclasses.asdict(metrics) == PRE_REFACTOR_GOLDEN
