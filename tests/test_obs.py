"""Tests for the observability layer: registry, collector, trace sinks,
accuracy reports, and the obs runner/CLI."""

import json

import pytest

from repro.config import SystemConfig
from repro.eval.runner import run_workload, setting_by_name
from repro.obs.accuracy import (
    SpeculationAccuracy,
    accuracy_from_metrics,
    stage_latency_summary,
)
from repro.obs.collector import MetricsCollector, attach_collector, finalize_system
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    SimTimer,
    WindowedHistogram,
)
from repro.obs.perfetto import (
    JsonlTraceSink,
    PID_NETWORK,
    PID_SPECBUF,
    PID_TRANSACTIONS,
    PerfettoTraceSink,
)
from repro.obs.runner import (
    ObsRequest,
    PID_BLOCK,
    collect_cell,
    run_obs,
    smoke_requests,
)
from repro.sim.hooks import EventKind
from repro.system import System
from repro.units import CACHELINE_BYTES

from tests.conftest import build_pingpong, collect_records


# --------------------------------------------------------- WindowedHistogram
def test_histogram_validation():
    with pytest.raises(ValueError):
        WindowedHistogram(bucket_width=0)
    with pytest.raises(ValueError):
        WindowedHistogram(window=-1)


def test_histogram_cumulative_mode():
    hist = WindowedHistogram(bucket_width=10, window=0)
    for v in (0, 5, 15, 25, 25):
        hist.observe(v)
    assert hist.count == 5 and hist.windowed_count == 5
    assert hist.total == 70 and hist.mean == pytest.approx(14.0)
    assert hist.buckets() == {0: 2, 10: 1, 20: 2}
    # Percentile resolves to the upper edge of the holding bucket.
    assert hist.percentile(50) == 19.0
    assert hist.percentile(100) == 29.0
    assert hist.percentile(0) == 9.0


def test_histogram_window_ages_out_old_samples():
    hist = WindowedHistogram(bucket_width=10, window=3)
    for v in (100, 100, 100, 5, 5, 5):
        hist.observe(v)
    # Windowed view only sees the three 5s; lifetime stats see all six.
    assert hist.buckets() == {0: 3}
    assert hist.windowed_count == 3
    assert hist.count == 6
    assert hist.total == 315
    assert hist.percentile(99) == 9.0


def test_histogram_percentile_range_check():
    with pytest.raises(ValueError):
        WindowedHistogram().percentile(101)
    assert WindowedHistogram().percentile(50) == 0.0  # empty -> 0


def test_histogram_negative_values_clamp_to_bucket_zero():
    hist = WindowedHistogram(bucket_width=10)
    hist.observe(-5)
    assert hist.buckets() == {0: 1}
    assert hist.total == -5  # lifetime sum keeps the true value


# ------------------------------------------------------------------ SimTimer
def test_sim_timer_accumulates_intervals():
    t = SimTimer()
    t.start(100)
    assert t.stop(150) == 50
    t.start(200)
    t.stop(300)
    assert (t.count, t.total, t.max) == (2, 150, 100)
    assert t.mean == pytest.approx(75.0)


def test_sim_timer_stop_without_start_raises():
    with pytest.raises(ValueError):
        SimTimer().stop(10)
    assert SimTimer().mean == 0.0


# ------------------------------------------------------------ MetricsRegistry
def test_registry_counters_and_gauges():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 4)
    assert reg.counter("a") == 5 and reg.counter("missing") == 0
    reg.gauge_set("g", 1.5)
    reg.gauge_max("hw", 3.0)
    reg.gauge_max("hw", 2.0)  # lower value never lowers the high-water mark
    assert reg.gauge("g") == 1.5 and reg.gauge("hw") == 3.0
    assert reg.gauge("missing") == 0.0


def test_registry_histograms_and_timers():
    reg = MetricsRegistry(histogram_bucket_width=8)
    reg.observe("lat", 10)
    reg.observe("lat", 20)
    assert reg.histogram("lat").count == 2
    assert reg.histogram_names() == ["lat"]
    timer = reg.timer("t")
    timer.start(0)
    timer.stop(7)
    assert reg.timer("t") is timer  # memoized per name


def test_registry_export_is_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.gauge_set("g", 2.0)
        reg.observe("h", 33)
        t = reg.timer("t")
        t.start(0)
        t.stop(5)
        return reg

    a, b = build(), build()
    assert a.to_json() == b.to_json()
    doc = a.as_dict()
    assert set(doc) == {"counters", "gauges", "histograms", "timers"}
    assert list(doc["counters"]) == ["a", "z"]  # sorted
    assert doc["histograms"]["h"]["count"] == 1
    assert doc["timers"]["t"]["total"] == 5
    # indent variant parses back to the same document
    assert json.loads(a.to_json(indent=2)) == json.loads(a.to_json())


def test_null_registry_records_nothing():
    reg = NullMetricsRegistry()
    reg.inc("a")
    reg.gauge_set("g", 1.0)
    reg.gauge_max("g", 2.0)
    reg.observe("h", 5)
    assert reg.counter("a") == 0 and reg.gauge("g") == 0.0
    assert reg.as_dict()["histograms"] == {}
    assert reg.enabled is False and NULL_METRICS.enabled is False
    assert MetricsRegistry.enabled is True


# ----------------------------------------------------------- MetricsCollector
def run_observed(device="spamer", algorithm="tuned", rounds=30):
    system = System(
        config=SystemConfig(num_cores=4), device=device, algorithm=algorithm
    )
    registry = MetricsRegistry()
    collector = attach_collector(system, registry)
    build_pingpong(system, rounds=rounds)
    system.run_to_completion()
    finalize_system(system, registry)
    return system, registry, collector


def test_collector_counts_semantic_events():
    system, reg, _ = run_observed()
    assert reg.counter("push.messages") == system.messages_produced() == 30
    assert reg.counter("delivery.messages") == system.messages_delivered() == 30
    hits, misses = reg.counter("spec.hits"), reg.counter("spec.misses")
    stats = system.aggregate_device_stats().as_dict()
    assert hits + misses == stats.get("spec_pushes", 0)
    assert reg.histogram("txn.latency").count == 30

    # FIR/tuned and pipeline/0delay stamp RESPONDED after RETIRED on many
    # messages (the hit response of the last stash rides back after the
    # pop); each message still counts once.
    for workload, setting in (("FIR", "tuned"), ("pipeline", "0delay")):
        reg = MetricsRegistry()
        metrics = run_workload(
            workload, setting_by_name(setting), scale=0.05, seed=12648430,
            on_system=lambda system: attach_collector(system, reg),
        )
        delivered = metrics.messages_delivered
        assert reg.histogram("txn.latency").count == delivered
        assert reg.counter("txn.retries") == metrics.push_attempts - delivered


def test_collector_records_decisions_per_algorithm():
    _, reg, _ = run_observed(algorithm="tuned")
    decisions = reg.histogram("spec.decision.tuned")
    assert decisions.count > 0
    # every decision delay is >= 0 (refusals go to spec.refused.*)
    assert min(decisions.buckets()) >= 0


def test_collector_observes_stage_edges():
    _, reg, _ = run_observed()
    edges = [n for n in reg.histogram_names() if n.startswith("txn.stage.")]
    assert any("created->pushed" in e for e in edges)
    assert any("->retired" in e for e in edges)


def test_finalize_records_run_boundary_gauges():
    system, reg, _ = run_observed()
    assert reg.gauge("kernel.sim_time") == float(system.env.now)
    assert reg.gauge("kernel.events.dispatched") == float(
        system.env.events_processed
    )
    assert (
        reg.gauge("kernel.events.scheduled")
        >= reg.gauge("kernel.events.dispatched") > 0
    )
    assert reg.gauge("library.messages_delivered") == 30.0
    assert reg.gauge("bus.busy_cycles") > 0
    assert 0.0 <= reg.gauge("bus.utilization") <= 1.0


def test_collector_never_perturbs_timing():
    """Attaching the full observability stack must not move a single tick."""
    bare = System(config=SystemConfig(num_cores=4), device="spamer",
                  algorithm="tuned")
    build_pingpong(bare, rounds=30)
    bare_end = bare.run_to_completion()
    observed, *_ = run_observed()
    assert observed.env.now == bare_end
    assert observed.env.events_processed == bare.env.events_processed


def test_collector_detach_stops_counting():
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned")
    registry = MetricsRegistry()
    collector = MetricsCollector(system.hooks, registry)
    assert system.hooks.wanted
    collector.detach()
    assert system.hooks.wanted == frozenset()
    build_pingpong(system, rounds=5)
    system.run_to_completion()
    assert registry.counter("push.messages") == 0
    assert not system.hooks.errors


def test_system_owned_registry_finalizes_on_completion():
    registry = MetricsRegistry()
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned", metrics=registry)
    build_pingpong(system, rounds=5)
    system.run_to_completion()
    assert registry.counter("push.messages") == 5
    assert registry.gauge("kernel.sim_time") == float(system.env.now)


def test_system_skips_collector_for_null_registry():
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned", metrics=NULL_METRICS)
    build_pingpong(system, rounds=5)
    system.run_to_completion()  # must not crash, must not subscribe
    from repro.sim.hooks import PushHook

    assert PushHook not in system.hooks.wanted
    assert NULL_METRICS.counter("push.messages") == 0


# ----------------------------------------------------------- PerfettoTraceSink
def run_traced(pid_base=0, label=""):
    """A Perfetto-traced ping-pong; returns the run's kept transaction
    records (``records(kind)``) and the sink."""
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned")
    records = collect_records(system)
    sink = PerfettoTraceSink(system.hooks, pid_base=pid_base, label=label)
    build_pingpong(system, rounds=20)
    system.run_to_completion()
    return records, sink


def test_perfetto_track_metadata():
    _, sink = run_traced(label="cell")
    meta = [e for e in sink.events if e["ph"] == "M"]
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in meta if e["name"] == "process_name"
    }
    assert process_names[PID_TRANSACTIONS] == "transactions [cell]"
    assert PID_NETWORK in process_names and PID_SPECBUF in process_names
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    names = {e["args"]["name"] for e in thread_names}
    assert any(n.startswith("sqi ") for n in names)
    assert any(n.startswith("entry ") for n in names)
    # metadata is emitted once per track, not per event
    assert len(meta) == len(
        {(e["name"], e["pid"], e["tid"]) for e in meta}
    )


def test_perfetto_slices_have_nonnegative_durations():
    _, sink = run_traced()
    slices = [e for e in sink.events if e["ph"] == "X"]
    assert slices
    assert all(s["dur"] >= 0 for s in slices)
    assert all("->" in s["name"] for s in slices)


def test_perfetto_flow_events_reconcile_with_transaction_records():
    """Acceptance criterion: every message lifecycle maps 1:1 onto a flow
    chain — one ``s`` (push), one ``t`` per stash attempt, one ``f``
    (delivery) — all carrying the transaction id."""
    records, sink = run_traced()
    records = records("message")
    assert records and all(r.retired for r in records)
    starts = [e for e in sink.events if e["ph"] == "s"]
    steps = [e for e in sink.events if e["ph"] == "t"]
    ends = [e for e in sink.events if e["ph"] == "f"]
    assert {e["id"] for e in starts} == {r.tid for r in records}
    assert {e["id"] for e in ends} == {r.tid for r in records}
    assert len(starts) == len(ends) == len(records)
    assert len(steps) == sum(r.attempts for r in records)
    assert all(e["bp"] == "e" for e in ends)
    # per-transaction: the chain is time-ordered push -> ... -> delivery
    by_id = {e["id"]: e for e in starts}
    for end in ends:
        assert by_id[end["id"]]["ts"] <= end["ts"]


def test_perfetto_pid_base_offsets_every_event():
    _, sink = run_traced(pid_base=PID_BLOCK)
    assert sink.events
    assert all(e["pid"] > PID_BLOCK for e in sink.events)


def test_perfetto_document_and_json_are_deterministic():
    _, sink_a = run_traced()
    _, sink_b = run_traced()
    assert sink_a.to_json() == sink_b.to_json()
    doc = sink_a.document()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert json.loads(sink_a.to_json(indent=1)) == doc


def test_perfetto_detach_stops_streaming():
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned")
    sink = PerfettoTraceSink(system.hooks)
    assert system.hooks.wanted
    sink.detach()
    assert system.hooks.wanted == frozenset()
    build_pingpong(system, rounds=5)
    system.run_to_completion()
    assert sink.events == []


# --------------------------------------------------------------- JsonlTraceSink
def test_jsonl_sink_emits_parseable_lines():
    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="tuned")
    sink = JsonlTraceSink(system.hooks)
    build_pingpong(system, rounds=10)
    system.run_to_completion()
    text = sink.to_jsonl()
    assert text.endswith("\n")
    events = [json.loads(line) for line in text.splitlines()]
    kinds = {e["ev"] for e in events}
    assert {"txn", "push", "delivery", "bus", "decision", "trace"} <= kinds
    # The sink is the one raw export of the Figure 7 moments.
    moments = {kind.value for kind in EventKind}
    assert all(e["kind"] in moments for e in events if e["ev"] == "trace")
    assert all("t" in e for e in events)
    assert JsonlTraceSink(system.hooks).to_jsonl() == ""


# -------------------------------------------------------------------- accuracy
def test_speculation_accuracy_edge_cases():
    empty = SpeculationAccuracy("w", "s", 0, 0, 0, 0)
    assert empty.precision == 0.0 and empty.recall == 0.0
    clamped = SpeculationAccuracy("w", "s", 10, 8, 4, 0)
    assert clamped.recall == 1.0  # more hits than deliveries clamps
    half = SpeculationAccuracy("w", "s", 10, 5, 10, 320)
    assert half.precision == 0.5 and half.recall == 0.5
    doc = half.as_dict()
    assert doc["precision"] == 0.5 and doc["wasted_push_bytes"] == 320


def test_accuracy_from_run_metrics():
    metrics = run_workload("ping-pong", setting_by_name("tuned"), scale=0.05)
    acc = accuracy_from_metrics(metrics)
    assert acc.spec_pushes == metrics.spec_pushes
    assert acc.spec_hits == metrics.spec_pushes - metrics.spec_failures
    assert acc.wasted_push_bytes == metrics.spec_failures * CACHELINE_BYTES
    assert 0.0 <= acc.precision <= 1.0 and 0.0 <= acc.recall <= 1.0


def test_run_metrics_accuracy_properties_stay_out_of_asdict():
    import dataclasses

    metrics = run_workload("ping-pong", setting_by_name("tuned"), scale=0.05)
    assert metrics.spec_hits == metrics.spec_pushes - metrics.spec_failures
    assert metrics.push_precision == pytest.approx(
        metrics.spec_hits / metrics.spec_pushes
    )
    assert metrics.wasted_push_bytes == metrics.spec_failures * CACHELINE_BYTES
    doc = dataclasses.asdict(metrics)
    # derived values are properties, so the golden asdict stays unchanged
    for key in ("spec_hits", "push_precision", "push_recall",
                "wasted_push_bytes"):
        assert key not in doc


def test_stage_latency_summary_strips_prefix():
    reg = MetricsRegistry()
    reg.observe("txn.stage.created->pushed", 10)
    reg.observe("txn.latency", 99)  # not a stage edge
    summary = stage_latency_summary(reg)
    assert list(summary) == ["created->pushed"]
    row = summary["created->pushed"]
    assert row["count"] == 1.0 and {"p50", "p90", "p99"} <= set(row)
    assert stage_latency_summary(reg, percentiles=[75.0])[
        "created->pushed"
    ].get("p75") is not None


# ------------------------------------------------------------------ obs runner
def test_smoke_requests_assign_disjoint_pid_blocks():
    requests = smoke_requests()
    assert len(requests) == 4
    assert [r.pid_base for r in requests] == [0, 8, 16, 24]
    assert PID_BLOCK == 8


def test_collect_cell_returns_complete_documents():
    cell = collect_cell(ObsRequest("ping-pong", "tuned", scale=0.05))
    assert cell["workload"] == "ping-pong" and cell["setting"] == "tuned"
    assert cell["exec_cycles"] > 0
    assert cell["trace_events"] and cell["jsonl"]
    assert cell["accuracy"]["spec_pushes"] > 0
    assert cell["metrics"]["counters"]["push.messages"] > 0
    assert cell["stage_latency"]


def test_collect_cell_vl_has_no_speculation():
    cell = collect_cell(ObsRequest("ping-pong", "vl", scale=0.05))
    assert cell["accuracy"]["spec_pushes"] == 0
    assert cell["accuracy"]["precision"] == 0.0
    counters = cell["metrics"]["counters"]
    assert not any(k.startswith("spec.decision") for k in counters)


def test_run_obs_summary_mentions_each_cell():
    result = run_obs(smoke_requests(scale=0.02), jobs=1)
    text = result.summary()
    assert "speculation accuracy" in text
    assert "ping-pong" in text and "incast" in text
    assert "stage latency" in text


# ------------------------------------------------------------------------ CLI
def test_cli_obs_single_cell_summary(capsys):
    from repro.cli import main

    assert main(["obs", "ping-pong", "--setting", "tuned",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "speculation accuracy" in out
    assert "ping-pong" in out


def test_cli_obs_writes_artifacts(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    jsonl = tmp_path / "events.jsonl"
    assert main(["obs", "smoke", "--scale", "0.02", "--jobs", "1",
                 "--trace", str(trace), "--metrics", str(metrics),
                 "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "ui.perfetto.dev" in out
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"]
    cells = json.loads(metrics.read_text())["cells"]
    assert [c["workload"] for c in cells] == [
        "ping-pong", "ping-pong", "incast", "incast"
    ]
    assert all(json.loads(line) for line in jsonl.read_text().splitlines())
