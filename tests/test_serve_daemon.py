"""Cached runs: hits skip the simulator, failures are never stored.

``run_requests(..., cache=...)`` looks every key up in the calling
process and runs only the misses, so these tests count
:func:`~repro.eval.parallel.execute_request` calls directly.
"""

import pytest

import repro.eval.parallel as parallel
from repro.errors import SimDeadlockError
from repro.eval.parallel import (
    ResultCache,
    RunRequest,
    metrics_bytes,
    run_requests,
)
from repro.eval.runner import setting_by_name

SCALE = 0.05
SEED = 0xC0FFEE


def _request(workload="ping-pong", setting="tuned", seed=SEED, **kwargs):
    return RunRequest.from_setting(
        workload, setting_by_name(setting), scale=SCALE, seed=seed, **kwargs
    )


@pytest.fixture
def runs(monkeypatch):
    """The requests the simulator actually ran (serial path only)."""
    ran = []
    real = parallel.execute_request

    def counting(request):
        ran.append(request)
        return real(request)

    monkeypatch.setattr(parallel, "execute_request", counting)
    return ran


def _bytes(metrics_list):
    return [metrics_bytes(m) for m in metrics_list]


def test_daemon_runs_jobs_and_matches_run_requests(tmp_path):
    # A cold cache on a pool: every cell misses, runs in a worker, comes
    # back byte-identical to an uncached serial run, and lands on disk.
    requests = [_request("ping-pong"), _request("incast")]
    cache = ResultCache(tmp_path)
    cached = run_requests(requests, jobs=2, cache=cache)
    assert _bytes(cached) == _bytes(run_requests(requests))
    reopened = ResultCache(tmp_path)
    assert len(reopened) == 2
    assert [reopened.get_bytes(r.cache_key()) for r in requests] == _bytes(cached)


def test_cache_hit_is_byte_identical_and_skips_the_queue(runs):
    request = _request()
    cache = ResultCache()
    (first,) = run_requests([request], cache=cache)
    assert len(runs) == 1
    (hit,) = run_requests([request], cache=cache)
    assert len(runs) == 1  # nothing ran the second time
    assert metrics_bytes(hit) == metrics_bytes(first)
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_cache_disabled_daemon_recomputes(runs):
    request = _request()
    first = run_requests([request], cache=None)
    again = run_requests([request], cache=None)
    assert len(runs) == 2
    assert _bytes(again) == _bytes(first)


def test_deadlock_fails_typed_and_daemon_keeps_serving(runs):
    # The `never` ablation on fetch-skipping consumers deadlocks by
    # construction: the call must re-raise the typed error with
    # .tick/.blocked intact, store nothing for that cell, and still
    # store (and later serve) the good cell submitted alongside it.
    bad, good = _request("incast", setting="never"), _request("ping-pong")
    cache = ResultCache()
    with pytest.raises(SimDeadlockError) as failure:
        run_requests([bad, good], cache=cache)
    assert failure.value.tick > 0
    assert failure.value.blocked
    assert not cache.contains(bad.cache_key())
    assert cache.contains(good.cache_key())
    ran = len(runs)
    (served,) = run_requests([good], cache=cache)
    assert len(runs) == ran
    assert _bytes([served]) == _bytes(run_requests([good]))
