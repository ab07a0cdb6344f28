"""Cross-device semantic-equivalence smoke matrix.

Every registered zero-configuration setting must deliver a bit-identical
canonical stream (per-producer FIFO projection) on each small workload —
timings differ across devices, semantics must not.  A burst participant
runs on its own ``burst_k`` config, so the matrix is two differentials
that both include ``vl`` (which ignores ``burst_k``) as their anchor.
The ``never`` ablation is excluded: it deadlocks fetch-skipping consumers
by construction and is covered by the watchdog regression in
``test_verify_invariants.py``.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.eval.runner import setting_by_name, setting_names
from repro.verify.oracle import (
    FunctionalQueueModel,
    StreamRecorder,
    run_differential,
    software_reference_stream,
)

SMALL = SystemConfig(num_cores=16)
# Workloads here must push a *device-invariant* per-producer stream:
# ping-pong and incast have fixed producer programs, and firewall routes
# packets to its two filters deterministically (alternating dispatch).
# The pipeline workload is excluded on purpose — its middle stages shard
# packets across worker threads dynamically, so which worker (producer)
# forwards a given packet is timing-dependent and per-producer streams
# legitimately differ across devices.
WORKLOADS = [("ping-pong", 0.02), ("incast", 0.02), ("firewall", 0.02)]


def matrix_runs(config=SMALL):
    """The matrix as (settings, config) differentials.

    Every zero-config flavor runs on *config*, whose ``burst_k=1`` makes
    every SPAMeR flavor single-push; ``vl`` and ``multipush`` then run on
    the ``burst_k=4`` copy of it, so the matrix cross-checks actual
    burst/rollback interleavings against the other devices' canonical
    streams.
    """
    registered = [s for s in setting_names() if s.algorithm != "never"]
    burst = [setting_by_name("vl"), setting_by_name("multipush")]
    return [
        (registered, config),
        (burst, config.with_overrides(burst_k=4, p_min=0.0)),
    ]


def run_matrix(workload, scale, config=SMALL):
    """One oracle report per differential of :func:`matrix_runs`; the
    ``vl`` stream of every report must be the same."""
    reports = [
        run_differential(workload, scale=scale, settings=settings, config=cfg)
        for settings, cfg in matrix_runs(config)
    ]
    vl = setting_by_name("vl").label
    for report in reports[1:]:
        assert report.streams[vl] == reports[0].streams[vl], workload
    return reports


@pytest.mark.parametrize("workload,scale", WORKLOADS,
                         ids=[w for w, _ in WORKLOADS])
def test_all_devices_agree_on_semantics(workload, scale):
    reports = run_matrix(workload, scale)
    for report in reports:
        assert report.ok, "\n".join(report.mismatches)
    # Every flavor actually delivered something comparable.
    totals = {
        (label, cfg): s.total_delivered()
        for report, cfg in zip(reports, ("single", "burst"))
        for label, s in report.streams.items()
    }
    assert len(set(totals.values())) == 1, totals
    assert next(iter(totals.values())) > 0


def test_matrix_covers_every_registered_device():
    from repro.registry import DEVICES

    runs = matrix_runs()
    devices = {s.device for settings, _ in runs for s in settings}
    assert devices == set(DEVICES.names())
    burst_settings, burst_config = runs[1]
    assert burst_config.burst_k == 4
    assert [s.algorithm for s in burst_settings] == [None, "multipush"]
    assert all(setting_by_name("vl") in settings for settings, _ in runs)


def test_multipush_k1_metrics_bit_identical_to_tuned():
    """At ``burst_k=1`` the ``multipush`` label must run single-push
    SPAMeR exactly, whatever ``p_min``: every RunMetrics field (cycles,
    push and bus counters, occupancy averages, extras) equal bit for bit,
    not just the delivered stream."""
    import dataclasses

    from repro.eval.runner import run_workload

    for workload, scale in WORKLOADS:
        reference = run_workload(
            workload, setting_by_name("tuned"), scale=scale, config=SMALL
        )
        candidate = run_workload(
            workload, setting_by_name("multipush"), scale=scale,
            config=SMALL.with_overrides(p_min=0.75),
        )
        assert dataclasses.replace(candidate, setting=reference.setting) \
            == reference, (workload, candidate, reference)


def test_functional_model_predicts_push_order():
    recorder = StreamRecorder()
    recorder.pushes = {(1, 0): [0, 1, 2, 3]}
    predicted = FunctionalQueueModel().predict(recorder)
    assert predicted.links == {(1, 0): (0, 1, 2, 3)}


def test_canonical_stream_diff_reports_divergence():
    recorder = StreamRecorder()
    recorder.pushes = {(1, 0): [0, 1, 2]}
    model = FunctionalQueueModel().predict(recorder)
    other = StreamRecorder()
    other.pushes = {(1, 0): [0, 1, 2]}
    other.deliveries = {(1, 0): [0, 2, 1]}
    mismatches = model.diff(other.canonical(), "model", "mutant")
    assert len(mismatches) == 1
    assert "sqi=1" in mismatches[0]


def test_software_queue_reference_is_fifo():
    assert software_reference_stream(20) == tuple(range(20))


def test_oracle_flags_seeded_out_of_order_delivery():
    """End to end: a reordering bug in one flavor must fail the diff."""
    from repro.eval.runner import standard_settings

    report = run_differential("ping-pong", scale=0.02,
                              settings=standard_settings()[:2], config=SMALL)
    assert report.ok
    # Corrupt one stream after the fact: swap two delivered seqs.
    label = standard_settings()[1].label
    stream = report.streams[label]
    key = next(iter(stream.links))
    seqs = list(stream.links[key])
    seqs[0], seqs[1] = seqs[1], seqs[0]
    stream.links[key] = tuple(seqs)
    base = report.streams[standard_settings()[0].label]
    assert base.diff(stream, "baseline", label)
