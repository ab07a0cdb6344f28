"""A run nobody observes executes no observability code.

The hook bus promises zero cost when silent (``repro.sim.hooks``): every
publisher tests ``SomeHook in hooks.wanted`` before it builds an event, and
``System(metrics=None)`` subscribes no collector.  These tests check that
promise exactly rather than by timing it.  They count every Python call of
a run with ``sys.setprofile`` and require:

* no call into a function defined under ``repro/obs/``;
* no call into ``repro/sim/hooks.py`` but one ``HookBus.__init__`` per
  system;
* no ``*Hook`` event object built (each event class's ``__init__`` is
  wrapped and counted);
* no subscription on any system's bus.

Two matrices run: the ``repro obs`` smoke matrix on the single bus, and
``scaling-halo`` at 64 cores on ``mesh``, where every packet crosses the
``BusHook`` guard and each of its hops a ``LinkHook`` guard.  A run with a
registry attached is the positive control: it runs collector code and
records its run-boundary gauges exactly once.
"""

import sys
from collections import defaultdict
from pathlib import Path

import pytest

import repro.obs
from repro.config import SystemConfig
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.obs.collector import finalize_system
from repro.obs.metrics import MetricsRegistry
from repro.obs.runner import SMOKE_SCALE, SMOKE_SEED, SMOKE_SETTINGS, SMOKE_WORKLOADS
from repro.sim import hooks
from repro.system import System

from tests.conftest import build_pingpong

OBS_DIR = Path(repro.obs.__file__).resolve().parent
HOOKS_FILE = Path(hooks.__file__).resolve()
EVENT_TYPES = [
    cls for cls in vars(hooks).values()
    if isinstance(cls, type) and issubclass(cls, hooks.HookEvent)
]

MATRICES = {
    "smoke": [(workload, setting, None)
              for workload in SMOKE_WORKLOADS for setting in SMOKE_SETTINGS],
    "fabric": [("scaling-halo", setting, scaling_config(64, "mesh"))
               for setting in SMOKE_SETTINGS],
}


def count_calls(run):
    """Call *run* under a profiler; returns ``{code object: calls}``."""
    calls = defaultdict(int)

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def observability_calls(calls):
    """The counted calls into ``repro/obs/`` and ``repro/sim/hooks.py``,
    keyed ``module-file:function``."""
    found = {}
    for code, n in calls.items():
        path = Path(code.co_filename).resolve()
        if OBS_DIR in path.parents or path == HOOKS_FILE:
            found[f"{path.name}:{code.co_name}"] = n
    return found


@pytest.fixture
def built_events(monkeypatch):
    """Every hook event object built while the fixture is active."""
    built = []
    for cls in EVENT_TYPES:
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_silent_run_executes_no_observability_code(matrix, built_events):
    systems = []

    def run():
        for workload, setting, config in MATRICES[matrix]:
            run_workload(workload, setting_by_name(setting), scale=SMOKE_SCALE,
                         seed=SMOKE_SEED, config=config,
                         on_system=systems.append)

    calls = count_calls(run)
    assert len(systems) == len(MATRICES[matrix])
    assert observability_calls(calls) == {"hooks.py:__init__": len(systems)}
    assert calls[hooks.HookBus.__init__.__code__] == len(systems)
    assert built_events == []
    assert all(system.hooks.wanted == frozenset() for system in systems)


def test_attached_registry_runs_the_collector_and_finalizes_once(built_events):
    """The positive control: the same counting sees a registry's collector
    at work, and ``run_to_completion`` records the gauges once."""
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned", metrics=MetricsRegistry())
    build_pingpong(system, rounds=5)
    calls = count_calls(system.run_to_completion)
    assert calls[finalize_system.__code__] == 1
    assert "collector.py:_on_push" in observability_calls(calls)
    assert "PushHook" in built_events
