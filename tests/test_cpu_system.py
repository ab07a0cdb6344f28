"""Tests for the CPU layer and the System facade."""

import pytest

from repro.config import SystemConfig
from repro.cpu.core import Core
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.system import System


# ---------------------------------------------------------------------- Core
def test_core_compute_rejects_negative(env):
    core = Core(env, 0, SystemConfig())
    with pytest.raises(WorkloadError):
        core.compute(-1)


def test_core_pin_once(env):
    core = Core(env, 0, SystemConfig())

    def prog():
        yield 1

    core.pin(prog(), "first")
    with pytest.raises(WorkloadError):
        core.pin(prog(), "second")


# --------------------------------------------------------------------- System
def test_system_builds_requested_device():
    from repro.spamer.srd import SpamerRoutingDevice
    from repro.vlink.vlrd import VirtualLinkRoutingDevice

    vl = System(device="vl")
    assert type(vl.device) is VirtualLinkRoutingDevice
    assert not vl.supports_speculation
    sp = System(device="spamer", algorithm="tuned")
    assert isinstance(sp.device, SpamerRoutingDevice)
    assert sp.spec_default


def test_system_rejects_bad_device():
    with pytest.raises(ConfigError):
        System(device="quantum")


def test_vl_with_algorithm_rejected():
    with pytest.raises(ConfigError):
        System(device="vl", algorithm="tuned")


def test_spamer_default_algorithm_is_tuned():
    from repro.spamer.delay import TunedDelay

    system = System(device="spamer")
    assert isinstance(system.device.algorithm, TunedDelay)


def test_spawn_pins_one_thread_per_core(vl_system):
    def prog(ctx):
        yield ctx.core.compute(10)

    vl_system.spawn(0, prog, "t0")
    with pytest.raises(WorkloadError):
        vl_system.spawn(0, prog, "t1")


def test_run_to_completion_joins_all_threads(vl_system):
    done = []

    def prog(delay):
        def thread(ctx):
            yield from ctx.compute(delay)
            done.append(delay)
        return thread

    vl_system.spawn(0, prog(100), "a")
    vl_system.spawn(1, prog(300), "b")
    end = vl_system.run_to_completion()
    assert end == 300
    assert sorted(done) == [100, 300]


def test_run_to_completion_deadlock_detected(vl_system):
    lib = vl_system.library
    q = lib.create_queue()
    cons = lib.open_consumer(q, 0)

    def starved(ctx):
        yield from ctx.pop(cons)  # no producer ever pushes

    vl_system.spawn(0, starved, "starved")
    with pytest.raises(SimulationError):
        vl_system.run_to_completion(limit=200_000)


def test_thread_context_pinning_check(vl_system):
    lib = vl_system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, core_id=2)

    def wrong_core(ctx):
        yield from ctx.push(prod, 1)

    vl_system.spawn(0, wrong_core, "wrong")
    with pytest.raises(WorkloadError):
        vl_system.run_to_completion(limit=10_000)


def test_consumer_line_cycles_aggregate(vl_system):
    from tests.conftest import build_pingpong

    build_pingpong(vl_system, rounds=10)
    vl_system.run_to_completion(limit=10_000_000)
    empty, valid = vl_system.consumer_line_cycles()
    assert empty > 0 and valid > 0
    assert empty + valid == pytest.approx(vl_system.env.now, abs=1)


def test_message_accounting(vl_system):
    from tests.conftest import build_pingpong

    build_pingpong(vl_system, rounds=15)
    vl_system.run_to_completion(limit=10_000_000)
    assert vl_system.messages_produced() == 15
    assert vl_system.messages_delivered() == 15
