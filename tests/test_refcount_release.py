"""A finished :class:`~repro.system.System` is freed by reference counting.

A system is one large reference cycle while it runs: the library, the
stall watchdog and the invariant checker point back at it, each mapping
pipeline holds a bound method of its device, and the kernel's leftover
queue entries hold bound methods of the model.  Left alone, such a cycle
is freed only by a full collection, so finished systems pile up between
collections.  :func:`~repro.eval.runner.run_workload` closes the system
(:meth:`System.close`) once its metrics are collected; with the cyclic
collector disabled, every system it built must be gone when it returns,
and nothing the run built may be left in a cycle (a multi-push policy
holds its device by weak proxy for this reason).
``return_system=True`` hands the system back whole instead.  A run that
raises closes its system too, so the system goes once the caught error
is dropped.  The Figure 7 trace experiment is a plain run with one more
subscriber, so it frees its system too.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import SystemConfig
from repro.errors import SimDeadlockError, SimulationError
from repro.eval import experiments
from repro.eval.autotune import saturated_bus_config
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.system import System
from repro.workloads.arrival import ArrivalSpec
from repro.workloads.registry import workload_names
from tests.test_result_digest import canonical_bytes

SEED = 12648430
SCALE = 0.05

CASES = [
    pytest.param(dict(workload_name=workload, setting=setting),
                 id=f"{workload}/{setting}")
    for workload in workload_names()
    for setting in ("vl", "tuned")
] + [
    pytest.param(
        dict(workload_name="scaling-halo", setting=setting,
             config=scaling_config(16, topology)),
        id=f"scaling-halo/{setting}/{topology}16",
    )
    for topology in ("mesh", "torus")
    for setting in ("vl", "tuned")
] + [
    pytest.param(
        dict(
            workload_name="incast",
            setting="multipush",
            config=saturated_bus_config().with_overrides(burst_k=2, p_min=0.0),
            arrival=ArrivalSpec.make("poisson", rate=0.002),
        ),
        id="incast/multipush-k2/poisson",
    ),
    pytest.param(dict(workload_name="incast", setting="tuned", verify=True),
                 id="incast/tuned/verify"),
]


@pytest.fixture
def built(monkeypatch):
    """Weak references to every System built, with the collector off."""
    refs = []
    init = System.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(System, "__init__", tracked_init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _run(kwargs, **extra):
    kwargs = dict(kwargs)
    setting = setting_by_name(kwargs.pop("setting"))
    return run_workload(setting=setting, scale=SCALE, seed=SEED, **kwargs, **extra)


@pytest.mark.parametrize("kwargs", CASES)
def test_finished_system_is_freed_by_reference_counting(built, kwargs):
    metrics = _run(kwargs)
    assert metrics.messages_delivered > 0
    assert len(built) == 1
    assert built[0]() is None
    assert gc.collect() == 0


def _failing_thread(system):
    """A thread on a spare core whose own error (not a SimulationError)
    ends the run; its frame holds its context, so the error's traceback
    reaches back into the system."""
    def failing(ctx):
        yield 5
        raise KeyError("device state")

    system.spawn(system.config.num_cores - 1, failing)


RAISING = [
    pytest.param(dict(), SimDeadlockError, id="deadlock"),
    pytest.param(dict(limit=2_000), SimulationError, id="limit"),
    pytest.param(dict(spawn=_failing_thread), KeyError, id="process"),
]


@pytest.mark.parametrize("extra, expected", RAISING)
def test_system_of_a_raising_run_is_freed_with_its_error(built, extra, expected):
    """``pipeline`` under VL with a 16-entry prodBuf deadlocks; the stall
    watchdog raises, a cycle limit stops the run first, or a model
    process raises its own error before either.  Every way, the system is
    closed before the error propagates: a weak reference taken through
    ``on_system`` is dead once the caught error is dropped, with the
    cyclic collector off."""
    extra = dict(extra)
    spawn = extra.pop("spawn", None)
    captured = []

    def on_system(system):
        captured.append(weakref.ref(system))
        if spawn is not None:
            spawn(system)

    with pytest.raises(expected) as caught:
        _run(dict(workload_name="pipeline", setting="vl",
                  config=SystemConfig(prodbuf_entries=16)),
             on_system=on_system, **extra)
    assert caught.type is expected
    system = captured[0]()
    assert system is not None and system.library.system is None
    assert system.env.queue_length == 0 and not system.env.has_watchdog
    del system, caught
    assert captured[0]() is None


def test_return_system_keeps_the_system_whole(built):
    kwargs = dict(workload_name="pipeline", setting="tuned")
    closed = _run(kwargs)
    metrics, system = _run(kwargs, return_system=True)
    assert canonical_bytes(metrics) == canonical_bytes(closed)
    assert built[0]() is None and built[1]() is system
    assert system.library.system is system
    assert system.env.has_watchdog
    assert all(device.pipeline._dispatch is not None for device in system.devices)


def test_close_keeps_the_clock_and_counts_but_empties_the_queue(built):
    _, system = _run(dict(workload_name="ping-pong", setting="tuned"),
                     return_system=True)
    env = system.env
    assert env.queue_length == 0           # the run ends on its last exit
    env.call_later(10, lambda _arg: None)  # what a run stopped early leaves
    counts = (env.now, env.events_scheduled, env.events_processed)
    system.close()
    assert (env.now, env.events_scheduled, env.events_processed) == counts
    assert env.queue_length == 0           # read the gauge before close()
    assert not env.has_watchdog


def test_fig7_trace_path_keeps_its_records(built, monkeypatch):
    """The Figure 7 run frees its system and still reconstructs one
    transaction per delivered message."""
    runs = []

    def recorded_run(*args, **kwargs):
        runs.append(run_workload(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "run_workload", recorded_run)
    result = experiments.trace_experiment(
        setting_by_name("vl"), scale=SCALE, seed=SEED
    )
    assert len(built) == 1
    assert built[0]() is None
    assert len(result.transactions) == runs[0].messages_delivered > 0
