"""Parallel-executor acceptance tests: equivalence, isolation, plumbing.

The headline guarantee of :mod:`repro.eval.parallel` is that fanning
independent simulations across worker processes is *unobservable* in the
results: the full Figure-8 matrix and batch reports must be byte-identical
between ``jobs=1`` and ``jobs=4``, and one run's failure must neither lose
the other runs' results nor arrive as an opaque ``PicklingError``.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigError, SimDeadlockError
from repro.eval.parallel import (
    RunRequest,
    execute_requests,
    resolve_jobs,
    run_requests,
)
from repro.eval.runner import (
    Setting,
    setting_by_name,
    standard_settings,
    tuned_setting,
)
from repro.workloads.registry import workload_names

SCALE = 0.05
SEED = 0xC0FFEE


def _fig8_requests():
    """The full Figure-8 matrix: 8 workloads × the 4 evaluated settings."""
    return [
        RunRequest.from_setting(w, s, scale=SCALE, seed=SEED)
        for w in workload_names()
        for s in standard_settings()
    ]


# ----------------------------------------------------------- equivalence
def test_fig8_matrix_parallel_is_byte_identical_to_serial():
    requests = _fig8_requests()
    serial = run_requests(requests, jobs=1)
    parallel = run_requests(requests, jobs=4)
    assert [dataclasses.asdict(m) for m in serial] == [
        dataclasses.asdict(m) for m in parallel
    ]
    # Byte-identical, not merely equal-within-epsilon.
    assert repr(serial) == repr(parallel)


def test_batch_report_json_is_identical_across_jobs():
    from repro.eval.batch import run_batch

    spec = {
        "name": "jobs-equivalence",
        "workloads": ["ping-pong", "incast"],
        "settings": ["vl", "tuned"],
        "seeds": [1, 2],
        "scale": SCALE,
    }
    serial = run_batch(spec, jobs=1)
    parallel = run_batch(spec, jobs=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


def test_autotune_burst_grid_identical_across_jobs():
    """The (k, p_min) frontier grid fans out through the same executor,
    so the whole tune result — frontier order, metrics, winner — must be
    byte-identical between serial and two workers."""
    from repro.eval.autotune import autotune_burst, saturated_bus_config

    kwargs = dict(
        workload_name="incast",
        ks=(1, 2),
        p_mins=(0.0, 0.75),
        scale=0.02,
        seed=SEED,
        config=saturated_bus_config(cores=16),
    )
    serial = autotune_burst(jobs=1, **kwargs)
    parallel = autotune_burst(jobs=2, **kwargs)
    assert serial == parallel
    assert repr(serial.frontier()) == repr(parallel.frontier())
    assert serial.best.burst_k == parallel.best.burst_k
    assert serial.best.p_min == parallel.best.p_min


def test_sensitivity_sweep_parallel_matches_serial():
    from repro.eval.sweep import PAPER_TUNED_PARAMS, sensitivity_sweep

    kwargs = dict(params_grid=[PAPER_TUNED_PARAMS], scale=SCALE, seed=SEED)
    serial = sensitivity_sweep("incast", **kwargs)
    parallel = sensitivity_sweep("incast", jobs=2, **kwargs)
    assert [dataclasses.asdict(p.metrics) for p in serial] == [
        dataclasses.asdict(p.metrics) for p in parallel
    ]
    assert [(p.label, p.normalized_delay, p.normalized_energy) for p in serial] == [
        (p.label, p.normalized_delay, p.normalized_energy) for p in parallel
    ]


def test_replicated_comparison_parallel_matches_serial():
    from repro.eval.replication import replicated_comparison

    kwargs = dict(seeds=[1, 2], workloads=["ping-pong"], scale=SCALE)
    serial = replicated_comparison(**kwargs)
    parallel = replicated_comparison(jobs=2, **kwargs)
    assert serial.settings == parallel.settings
    assert serial.speedups == parallel.speedups
    assert serial.geomeans == parallel.geomeans


# ------------------------------------------------------- failure handling
def test_worker_crash_does_not_lose_other_results():
    good = RunRequest.from_setting(
        "ping-pong", setting_by_name("tuned"), scale=SCALE, seed=SEED
    )
    # The `never` ablation on fetch-skipping consumers deadlocks by
    # construction; the stall watchdog aborts it with a typed diagnostic.
    bad = RunRequest.from_setting(
        "incast", setting_by_name("never"), scale=SCALE, seed=SEED
    )
    outcomes = execute_requests([good, bad, good], jobs=3)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[0].metrics == outcomes[2].metrics
    error = outcomes[1].error
    assert isinstance(error, SimDeadlockError)
    # The typed diagnostics survived the worker->parent pickle round-trip.
    assert error.tick > 0
    assert error.blocked and all(isinstance(b, str) for b in error.blocked)


def test_run_requests_raises_first_submission_order_error():
    bad = RunRequest.from_setting(
        "incast", setting_by_name("never"), scale=SCALE, seed=SEED
    )
    good = RunRequest.from_setting(
        "ping-pong", setting_by_name("vl"), scale=SCALE, seed=SEED
    )
    with pytest.raises(SimDeadlockError) as excinfo:
        run_requests([good, bad], jobs=2)
    assert excinfo.value.tick > 0


def test_unpicklable_request_reports_config_error():
    lambda_setting = Setting("SPAMeR(lambda)", "spamer", lambda: None)
    request = RunRequest.from_setting("ping-pong", lambda_setting, scale=SCALE)
    with pytest.raises(ConfigError, match="picklable"):
        run_requests([request, request], jobs=2)


# ---------------------------------------------------------------- plumbing
def test_resolve_jobs_semantics():
    import os

    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ConfigError):
        resolve_jobs(-2)


def test_tuned_setting_round_trips_through_pickle():
    import pickle

    from repro.spamer.delay import TunedDelay, TunedParams

    params = TunedParams(zeta=128, tau=48, delta=32, alpha=2, beta=1)
    setting = tuned_setting(params)
    rebuilt = pickle.loads(pickle.dumps(setting))
    assert rebuilt.label == setting.label
    algo = rebuilt.algorithm()
    assert isinstance(algo, TunedDelay) and algo.params == params


def test_cli_batch_and_run_accept_jobs(tmp_path, capsys):
    from repro.cli import main

    spec = {
        "name": "cli-jobs",
        "workloads": ["ping-pong"],
        "settings": ["vl", "tuned"],
        "seeds": [1],
        "scale": SCALE,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["batch", str(spec_path), "--jobs", "2"]) == 0
    assert "cli-jobs" in capsys.readouterr().out

    assert main(["run", "ping-pong", "--scale", str(SCALE),
                 "--jobs", "2"]) == 0
    assert "execution" in capsys.readouterr().out


# ------------------------------------------------- runner satellite fixes
def test_available_setting_names_cache_invalidates_on_registration():
    from repro.eval.runner import available_setting_names
    from repro.registry import DEVICES
    from repro.vlink.vlrd import VirtualLinkRoutingDevice

    before = available_setting_names()
    assert available_setting_names() == before  # cached path, same answer
    assert "cached-dev" not in before

    @DEVICES.register("cached-dev")
    class CachedDevice(VirtualLinkRoutingDevice):
        kind = "CACHED"

    try:
        assert "cached-dev" in available_setting_names()
    finally:
        DEVICES.unregister("cached-dev")
    assert "cached-dev" not in available_setting_names()
