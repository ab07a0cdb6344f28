"""The cached executor: ``run_requests`` with a result cache behind ``executor=``.

The contract under test is substitution: anywhere ``run_requests`` goes —
``repro batch``, the load sweep, the burst autotuner — a
``functools.partial(run_requests, cache=ResultCache(...))`` must produce
byte-identical results, cached or fresh, serial or on a pool.
"""

import functools
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.batch import run_batch
from repro.eval.parallel import (
    ResultCache,
    RunRequest,
    metrics_bytes,
    run_requests,
)
from repro.eval.runner import setting_by_name

SCALE = 0.05
SEED = 0xC0FFEE
QUICK_STUDY = Path(__file__).resolve().parents[1] / "examples/specs/quick_study.json"


def _requests(n=4):
    matrix = [
        ("ping-pong", "vl"), ("ping-pong", "tuned"),
        ("incast", "vl"), ("incast", "tuned"),
    ]
    return [
        RunRequest.from_setting(w, setting_by_name(s), scale=SCALE, seed=SEED)
        for w, s in matrix[:n]
    ]


def _cached(cache=None):
    # Not `cache or ...`: an empty ResultCache is falsy (it has __len__).
    return functools.partial(
        run_requests, cache=cache if cache is not None else ResultCache()
    )


def _snap(metrics_list):
    return [metrics_bytes(m) for m in metrics_list]


# ------------------------------------------------------------------ cached
def test_embedded_executor_matches_run_requests():
    requests = _requests()
    expected = _snap(run_requests(requests))
    cache = ResultCache()
    executor = _cached(cache)
    assert _snap(executor(requests)) == expected
    assert (cache.hits, cache.stores) == (0, len(requests))
    # Second pass: pure cache hits, still byte-identical.
    assert _snap(executor(requests)) == expected
    assert cache.hits == len(requests)


def test_cached_pool_run_mixes_hits_and_misses_in_submission_order(tmp_path):
    requests = _requests()
    expected = _snap(run_requests(requests, jobs=1))
    cache = ResultCache(tmp_path)
    # Warm two non-adjacent cells, then run the full grid on a pool: the
    # two misses go to the workers, the hits come from the cache, and the
    # merge must still follow submission order.
    run_requests([requests[0], requests[2]], jobs=1, cache=cache)
    assert _snap(run_requests(requests, jobs=2, cache=cache)) == expected
    assert (cache.hits, cache.misses, cache.stores) == (2, 4, 4)


def test_executor_reraises_the_first_typed_failure():
    from repro.errors import SimDeadlockError

    bad = RunRequest.from_setting(
        "incast", setting_by_name("never"), scale=SCALE, seed=SEED
    )
    with pytest.raises(SimDeadlockError):
        _cached()([_requests(1)[0], bad])


# --------------------------------------------------------------------- CLI
def test_remote_executor_matches_run_requests(tmp_path, capsys, monkeypatch):
    # `repro batch --cache DIR` twice: the second pass is all hits (runs
    # no simulation) and prints and writes byte-identical output.
    import repro.eval.parallel as parallel

    runs = []
    real = parallel.execute_request
    monkeypatch.setattr(
        parallel, "execute_request",
        lambda request: runs.append(request) or real(request),
    )
    cache_dir, report = tmp_path / "cache", tmp_path / "report.json"
    passes = []
    for _ in range(2):
        assert main(["batch", str(QUICK_STUDY), "--cache", str(cache_dir),
                     "--out", str(report)]) == 0
        passes.append((capsys.readouterr().out, report.read_bytes(), len(runs)))
    (out1, report1, runs1), (out2, report2, runs2) = passes
    assert runs1 == 9 and runs2 == runs1
    assert len(ResultCache(cache_dir)) == 9
    assert out1 == out2
    assert report1 == report2


# ------------------------------------------------------------- eval routing
def test_run_batch_routes_through_the_executor():
    spec = {
        "name": "serve-routing",
        "workloads": ["ping-pong"],
        "settings": ["vl", "tuned"],
        "scale": SCALE,
    }
    direct = run_batch(spec)
    cache = ResultCache()
    assert run_batch(spec, executor=_cached(cache)) == direct
    assert cache.stores == 2


def test_load_experiment_routes_through_the_executor():
    from repro.eval.load import load_experiment

    kwargs = dict(
        workload="ping-pong", settings=("tuned",),
        topologies=("single-bus",), rhos=(0.5,), scale=SCALE,
    )
    direct = load_experiment(**kwargs)
    cache = ResultCache()
    served = load_experiment(executor=_cached(cache), **kwargs)
    assert served.to_json() == direct.to_json()
    assert cache.stores > 0


def test_autotune_burst_routes_through_the_executor():
    from repro.eval.autotune import autotune_burst

    kwargs = dict(ks=(1, 2), p_mins=(0.75,), scale=0.02)
    direct = autotune_burst("incast", **kwargs)
    cache = ResultCache()
    served = autotune_burst("incast", executor=_cached(cache), **kwargs)
    assert _snap([p.metrics for p in served.points]) == _snap(
        [p.metrics for p in direct.points]
    )
    assert served.best.score == direct.best.score
    assert served.baseline_score == direct.baseline_score
    assert cache.stores > 0
