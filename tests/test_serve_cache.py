"""Content-addressed result cache: key stability, sensitivity, storage.

The cache-correctness claim is an equivalence: two requests share a cache
key **iff** they would produce byte-identical pickled
:class:`~repro.eval.metrics.RunMetrics` (bit-wise determinism makes the
forward direction true; these tests pin both directions plus the
conservative invalidators — key version and registry generation).
"""

import dataclasses
import pickle

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.parallel import (
    CACHE_PICKLE_PROTOCOL,
    ResultCache,
    RunRequest,
    execute_request,
    metrics_bytes,
)
from repro.eval.runner import setting_by_name, tuned_setting
from repro.spamer.delay import TunedParams
from repro.workloads.arrival import ArrivalSpec

SCALE = 0.02
SEED = 0xC0FFEE


def _request(**overrides) -> RunRequest:
    request = RunRequest.from_setting(
        "ping-pong", setting_by_name("tuned"), scale=SCALE, seed=SEED
    )
    return dataclasses.replace(request, **overrides) if overrides else request


# ------------------------------------------------------------------ key shape
def test_cache_key_is_stable_sha256_hex():
    key = _request().cache_key()
    assert len(key) == 64
    assert int(key, 16) >= 0
    assert key == _request().cache_key()


def test_equal_keys_mean_byte_identical_metrics():
    a, b = _request(), _request()
    assert a.cache_key() == b.cache_key()
    blob_a = pickle.dumps(execute_request(a), protocol=CACHE_PICKLE_PROTOCOL)
    blob_b = pickle.dumps(execute_request(b), protocol=CACHE_PICKLE_PROTOCOL)
    assert blob_a == blob_b


# -------------------------------------------------------------- sensitivity
@pytest.mark.parametrize(
    "overrides",
    [
        {"workload": "incast"},
        {"device": "vlrd"},
        {"algorithm": None},
        {"label": "renamed"},
        {"scale": SCALE * 2},
        {"seed": SEED + 1},
        {"config": SystemConfig()},
        {"limit": 10_000_000},
        {"validate": False},
        {"verify": True},
        {"arrival": ArrivalSpec.make("poisson", rate=0.001)},
    ],
    ids=lambda o: next(iter(o)),
)
def test_every_request_field_changes_the_key(overrides):
    assert _request(**overrides).cache_key() != _request().cache_key()


def test_any_config_field_change_changes_the_key():
    base_key = _request(config=SystemConfig()).cache_key()
    assert (
        _request(config=SystemConfig(bus_latency=37)).cache_key() != base_key
    )
    assert (
        _request(config=SystemConfig(burst_k=2)).cache_key() != base_key
    )
    # Same values, independently constructed: same key.
    assert _request(config=SystemConfig()).cache_key() == base_key


def test_parameterized_factory_changes_the_key():
    paper = tuned_setting(TunedParams())
    tweaked = tuned_setting(TunedParams(zeta=128))
    base = _request(algorithm=paper.algorithm, label=None)
    same = _request(algorithm=tuned_setting(TunedParams()).algorithm,
                    label=None)
    # Factories canonicalize by class path + field values: equal values,
    # independently constructed, share a key; any field change breaks it.
    assert base.cache_key() == same.cache_key()
    assert base.cache_key() != _request(
        algorithm=tweaked.algorithm, label=None
    ).cache_key()
    assert base.cache_key() != _request(algorithm=None, label=None).cache_key()


def test_lambda_algorithm_is_rejected():
    request = _request(algorithm=lambda: None)
    with pytest.raises(ConfigError):
        request.cache_key()


def test_key_version_is_part_of_the_key(monkeypatch):
    base = _request().cache_key()
    monkeypatch.setattr("repro.eval.parallel.CACHE_KEY_VERSION", 2)
    assert _request().cache_key() != base


def test_registry_generation_is_part_of_the_key(monkeypatch):
    base = _request().cache_key()
    import repro.registry as registry

    generation = registry.registry_generation()
    monkeypatch.setattr(registry, "registry_generation",
                        lambda: generation + 1)
    assert _request().cache_key() != base


# ----------------------------------------------------------------- storage
def test_result_cache_round_trip_is_byte_exact():
    cache = ResultCache()
    request = _request()
    metrics = execute_request(request)
    key = request.cache_key()
    assert cache.lookup(request) is None
    assert cache.misses == 1
    cache.put(key, metrics)
    assert cache.lookup(request) == metrics
    assert cache.contains(key)
    assert len(cache) == 1
    assert cache.get_bytes(key) == metrics_bytes(metrics)
    assert cache.get(key) == metrics
    assert cache.hits >= 1
    assert 0.0 < cache.hit_rate <= 1.0
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["stores"] == 1
    assert "hit_rate" in stats


def test_result_cache_persists_through_its_directory(tmp_path):
    request = _request()
    metrics = execute_request(request)
    key = request.cache_key()
    ResultCache(tmp_path).put(key, metrics)
    # A fresh instance over the same directory serves the same bytes.
    reopened = ResultCache(tmp_path)
    assert reopened.get_bytes(key) == metrics_bytes(metrics)
    assert reopened.get(key) == metrics


def test_metrics_bytes_pins_the_pickle_protocol():
    metrics = execute_request(_request())
    assert metrics_bytes(metrics) == pickle.dumps(
        metrics, protocol=CACHE_PICKLE_PROTOCOL
    )
