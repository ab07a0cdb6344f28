"""Differential test: transaction records built on demand against the
eager form they replaced.

Every packet used to get a :class:`~repro.sim.transaction.
TransactionRecord` at its birth, stamped at every layer whether or not
anybody read it.  Records are now built only when a
:class:`~repro.sim.hooks.TransactionHook` subscriber is on the bus when
the packet is born; an unobserved run takes the same ids and builds
none.  Each case here runs once with a
test-local copy of the eager form monkeypatched in (at
``TransactionLog.take`` and ``TransactionRecord.stamp``, the one stamp
method every layer calls) and once with the library as it is, and
requires:

* a silent run builds no record, with the same per-kind id counts and
  byte-identical results;
* a subscriber sees the identical ``TransactionHook`` stream (tick,
  state, sqi, detail, tid and the record's last two stamps);
* the records a subscriber keeps carry identical stamps.
"""

from __future__ import annotations

import pytest

from repro.eval.autotune import saturated_bus_config
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.sim.hooks import TransactionHook
from repro.sim.transaction import (
    TransactionLog,
    TransactionRecord,
    TxnStamp,
    TxnState,
)
from repro.workloads.arrival import ArrivalSpec
from tests.conftest import collect_records
from tests.test_result_digest import canonical_bytes

SEED = 12648430
SCALE = 0.05
KINDS = ("message", "request")


# ------------------------------------------------- the eager form, verbatim
def _eager_take(log, sqi, kind="message"):
    """``TransactionLog.open``: a record for every id."""
    tid = log._next_id.get(kind, 0)
    log._next_id[kind] = tid + 1
    return tid, TransactionRecord(tid, sqi, kind, log.hooks)


def _eager_stamp(record, state, tick, detail=""):
    """Stamp every record, publishing only while a subscriber listens."""
    record.stamps.append(TxnStamp(state, int(tick), detail))
    hooks = record.hooks
    if TransactionHook in hooks.wanted:
        hooks.publish(
            TransactionHook(tick=tick, record=record, state=state, detail=detail)
        )


def _patch_eager(monkeypatch):
    monkeypatch.setattr(TransactionLog, "take", _eager_take)
    monkeypatch.setattr(TransactionRecord, "stamp", _eager_stamp)


# ---------------------------------------------------------------- the cases
CASES = [
    pytest.param(dict(workload_name="ping-pong", setting="tuned"), id="ping-pong/tuned"),
    pytest.param(dict(workload_name="incast", setting="vl"), id="incast/vl"),
    pytest.param(dict(workload_name="pipeline", setting="adapt"), id="pipeline/adapt"),
    pytest.param(dict(workload_name="firewall", setting="0delay"), id="firewall/0delay"),
    pytest.param(
        dict(workload_name="scaling-halo", setting="tuned",
             config=scaling_config(16, "mesh")),
        id="scaling-halo/tuned/mesh16",
    ),
    pytest.param(
        dict(
            workload_name="incast",
            setting="multipush",
            config=saturated_bus_config().with_overrides(burst_k=2, p_min=0.0),
            arrival=ArrivalSpec.make("poisson", rate=0.002),
        ),
        id="incast/multipush-k2/poisson",
    ),
]


def _run(kwargs, **extra):
    """Results, per-kind id counts and the system of one run."""
    kwargs = dict(kwargs)
    setting = setting_by_name(kwargs.pop("setting"))
    metrics, system = run_workload(
        setting=setting, scale=SCALE, seed=SEED, return_system=True,
        **kwargs, **extra,
    )
    counts = {kind: system.transactions.count(kind) for kind in KINDS}
    return canonical_bytes(metrics), counts, system


def _count_records(monkeypatch):
    built = []
    init = TransactionRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TransactionRecord, "__init__", counting_init)
    return built


def _hook_stream():
    """A TransactionHook stream and the ``on_system`` hook that fills it."""
    stream = []

    def record(event):
        rec = event.record
        stream.append(
            (event.tick, event.state, rec.sqi, event.detail, rec.kind, rec.tid,
             tuple(rec.stamps[-2:]))
        )

    def attach(system):
        system.hooks.subscribe(TransactionHook, record)

    return stream, attach


@pytest.mark.parametrize("kwargs", CASES)
def test_silent_run_builds_no_record(monkeypatch, kwargs):
    with monkeypatch.context() as m:
        _patch_eager(m)
        eager_bytes, eager_counts, _ = _run(kwargs)
    built = _count_records(monkeypatch)
    ondemand_bytes, ondemand_counts, _ = _run(kwargs)
    assert built == []
    assert ondemand_counts == eager_counts
    assert eager_counts["message"] > 0
    assert ondemand_bytes == eager_bytes


@pytest.mark.parametrize("kwargs", CASES)
def test_subscriber_sees_the_eager_hook_stream(monkeypatch, kwargs):
    with monkeypatch.context() as m:
        _patch_eager(m)
        eager_stream, attach = _hook_stream()
        eager_bytes, _, _ = _run(kwargs, on_system=attach)
    stream, attach = _hook_stream()
    ondemand_bytes, _, _ = _run(kwargs, on_system=attach)
    assert len(stream) > 0
    # Every record's first transition is its birth, on both kinds.
    first = {}
    for entry in stream:
        first.setdefault(entry[4:6], entry[1])
    assert set(first.values()) == {TxnState.CREATED}
    assert stream == eager_stream
    assert ondemand_bytes == eager_bytes


@pytest.mark.parametrize("kwargs", CASES)
def test_traced_run_retains_identical_stamps(monkeypatch, kwargs):
    def kept(records):
        return {
            kind: [(r.tid, r.sqi, r.kind, list(r.stamps)) for r in records(kind)]
            for kind in KINDS
        }

    def attach(system):
        collected.append(collect_records(system))

    with monkeypatch.context() as m:
        _patch_eager(m)
        collected = []
        eager_bytes, eager_counts, _ = _run(kwargs, on_system=attach)
        eager = kept(collected[0])
    collected = []
    ondemand_bytes, counts, _ = _run(kwargs, on_system=attach)
    assert counts == eager_counts
    assert kept(collected[0]) == eager
    assert len(eager["message"]) == counts["message"]
    assert ondemand_bytes == eager_bytes
