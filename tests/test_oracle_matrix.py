"""Cross-device semantic-equivalence smoke matrix.

Every registered zero-configuration setting must deliver a bit-identical
canonical stream (per-producer FIFO projection) on each small workload —
timings differ across devices, semantics must not.  The ``never`` ablation
is excluded: it deadlocks fetch-skipping consumers by construction and is
covered by the watchdog regression in ``test_verify_invariants.py``.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.eval.runner import multipush_setting, setting_names
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


def matrix_settings():
    """Every zero-config flavor, plus an explicitly burst-mode multipush.

    The registered ``multipush`` setting inherits the config default
    ``burst_k=1``, so without the extra participant the matrix would
    never cross-check actual burst/rollback interleavings against the
    other devices' canonical streams.
    """
    registered = [s for s in setting_names() if s.algorithm != "never"]
    return registered + [multipush_setting(4, 0.0)]


@pytest.mark.parametrize("workload,scale", WORKLOADS,
                         ids=[w for w, _ in WORKLOADS])
def test_all_devices_agree_on_semantics(workload, scale):
    report = run_differential(
        workload, scale=scale, settings=matrix_settings(), config=SMALL
    )
    assert report.ok, "\n".join(report.mismatches)
    # Every flavor actually delivered something comparable.
    totals = {label: s.total_delivered() for label, s in report.streams.items()}
    assert len(set(totals.values())) == 1, totals
    assert next(iter(totals.values())) > 0


def test_matrix_covers_every_registered_device():
    devices = {s.device for s in matrix_settings()}
    from repro.registry import DEVICES

    assert devices == set(DEVICES.names())
    assert any("multipush:k4" in s.label for s in matrix_settings())


def test_multipush_k1_metrics_bit_identical_to_tuned():
    """With the default ``burst_k=1`` the burst device must degenerate to
    single-push SPAMeR exactly: every RunMetrics field (cycles, push and
    bus counters, occupancy averages, extras) equal bit for bit, not just
    the delivered stream."""
    import dataclasses

    from repro.eval.runner import run_workload, setting_by_name

    for workload, scale in WORKLOADS:
        reference = run_workload(
            workload, setting_by_name("tuned"), scale=scale, config=SMALL
        )
        candidate = run_workload(
            workload, multipush_setting(1, 0.75), scale=scale, config=SMALL
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
