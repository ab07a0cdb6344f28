"""Tests for latency metrics, config serialization, trace export,
multi-channel networks and multi-seed replication."""

import json

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.errors import ConfigError
from repro.eval.replication import ReplicatedStat, _stat, replicated_comparison
from repro.eval.experiments import reconstruct_transactions, transactions_csv
from repro.eval.runner import run_workload, standard_settings
from repro.obs.perfetto import JsonlTraceSink
from repro.sim.hooks import EventKind, HookBus, TraceHook


SCALE = 0.06


# ------------------------------------------------------------- latency metrics
def test_latency_metrics_collected():
    vl = standard_settings()[0]
    m = run_workload("incast", vl, scale=SCALE)
    assert m.latency_mean > 0
    assert m.latency_p50 <= m.latency_p99
    # Latency includes at least one network traversal.
    assert m.latency_mean > DEFAULT_CONFIG.bus_latency


def test_spamer_reduces_mean_latency_on_backlogged_consumer():
    vl, zero = standard_settings()[:2]
    base = run_workload("firewall", vl, scale=SCALE)
    spec = run_workload("firewall", zero, scale=SCALE)
    assert spec.latency_mean < base.latency_mean


# --------------------------------------------------------- config serialization
def test_config_roundtrips_through_dict_and_json():
    cfg = SystemConfig(num_cores=8, bus_latency=50, link_latency=7)
    assert SystemConfig.from_dict(cfg.to_dict()) == cfg
    assert SystemConfig.from_dict(json.loads(cfg.to_json())) == cfg


def test_config_json_is_valid_json():
    data = json.loads(DEFAULT_CONFIG.to_json())
    assert data["num_cores"] == 16
    assert data["l1d"]["size_bytes"] == 32 * 1024


# -------------------------------------------------------------- trace export
def test_trace_csv_export(env):
    events = [
        TraceHook(tick=tick, kind=kind, transaction_id=0, sqi=1)
        for kind, tick in (
            (EventKind.DATA_ARRIVE, 10),
            (EventKind.LINE_VACATE, 5),
            (EventKind.LINE_FILL, 40),
            (EventKind.FIRST_USE, 50),
        )
    ]
    csv = transactions_csv(reconstruct_transactions(events))
    lines = csv.splitlines()
    assert lines[0].startswith("transaction_id,")
    assert lines[1].split(",")[:3] == ["0", "1", "10"]
    assert lines[1].split(",")[7] == "1"  # speculative (no request)


def test_trace_events_json(env):
    bus = HookBus()
    sink = JsonlTraceSink(bus)
    bus.publish(TraceHook(tick=7, kind=EventKind.REQUEST_ARRIVE,
                          transaction_id=0, sqi=2, detail="x"))
    assert [json.loads(line) for line in sink.lines] == [
        {"ev": "trace", "t": 7, "kind": "request arrive", "tid": 0,
         "sqi": 2, "detail": "x"}
    ]


# ---------------------------------------------------------------- replication
def test_stat_math():
    s = _stat([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.stddev == pytest.approx(1.0)
    assert s.ci95_half_width == pytest.approx(4.303 / (3 ** 0.5), rel=1e-3)
    assert s.low < s.mean < s.high
    single = _stat([5.0])
    assert single.ci95_half_width == 0.0


def test_replicated_comparison_aggregates():
    result = replicated_comparison(
        seeds=[1, 2, 3], workloads=["ping-pong", "incast"], scale=SCALE
    )
    vl = result.settings[0]
    assert result.speedups["ping-pong"][vl].mean == 1.0
    assert result.speedups["ping-pong"][vl].stddev == 0.0
    incast_zero = result.speedups["incast"][result.settings[1]]
    assert incast_zero.samples == 3
    assert incast_zero.mean > 1.0
    geo = result.geomeans[result.settings[1]]
    assert geo.low <= geo.mean <= geo.high


def test_replication_needs_seeds():
    with pytest.raises(ConfigError):
        replicated_comparison(seeds=[])


def test_speedup_shapes_stable_across_seeds():
    """The qualitative claims are not one-seed accidents."""
    result = replicated_comparison(
        seeds=[10, 20, 30], workloads=["incast", "firewall"], scale=SCALE
    )
    zero = result.settings[1]
    for w in ("incast", "firewall"):
        stat = result.speedups[w][zero]
        assert stat.low > 1.0, (w, str(stat))  # wins even at the CI floor
        assert stat.ci95_half_width < 0.5 * stat.mean