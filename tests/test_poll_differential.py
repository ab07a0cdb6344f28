"""Differential test: the parked poll against the generator poll loop.

A stalled pop used to resume its generator on every poll: the loop below
(``_reference_pop_impl``) yielded ``quantum`` and re-checked the line,
the stop condition, the refetch back-off and the stale scan on each wake.
The library now parks the process on a re-arming poll callback
(``repro.vlink.library._poll_tick``) and resumes the generator only when
the poll acts.  Each case here runs once with the reference loop
monkeypatched in and once with the library as it is, and requires
byte-identical results *and* the identical sequence of dispatched
``(time, seq)`` queue keys.

The cases cover the knobs the benchmark never sets: ``spin_then_yield``,
``inline_library=False``, a legacy endpoint whose refetch backs off to the
``1 << 16`` cap, a stale-scan recovery that retargets, and ``pop_until``
M:N workers (``pipeline``, ``bitonic`` and the fuzz workload).
"""

from __future__ import annotations

import heapq

import pytest

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.eval.runner import run_workload, setting_by_name
from repro.mem.cacheline import LineState
from repro.sim.hooks import DeliveryHook, EventKind, TraceHook
from repro.sim.transaction import TxnState
from repro.system import System
from repro.verify.fuzz import LinkSpec, ProgramSpec, run_fuzz_case
from repro.vlink import library
from repro.vlink.packets import Message
from tests.test_result_digest import canonical_bytes

SEED = 0xC0FFEE
SCALE = 0.05


def _reference_pop_impl(self, consumer, stop_check):
    """``QueueLibrary._pop_impl`` as it was before the parked poll."""
    cfg = self.config
    if not cfg.inline_library:
        yield cfg.call_overhead

    if not consumer.spec_enabled:
        yield cfg.fetch_instruction_cost
        self._send_request(
            consumer,
            prerequest=consumer.current_line.state is LineState.VALID,
        )

    line = consumer.current_line
    if not line.poppable:
        stall_start = self.env.now
        since_fetch = 0
        refetch_after = cfg.refetch_interval
        while not consumer.current_line.poppable:
            if (
                cfg.spin_then_yield
                and self.env.now - stall_start >= cfg.spin_threshold
            ):
                quantum = cfg.yield_penalty
            else:
                quantum = cfg.poll_interval
            yield quantum
            if stop_check is not None and stop_check():
                return None
            since_fetch += quantum
            if not consumer.spec_enabled and since_fetch >= refetch_after:
                self._send_request(consumer, prerequest=True)
                since_fetch = 0
                refetch_after = min(refetch_after * 2, 1 << 16)
            if self.env.now - stall_start >= cfg.stale_scan_threshold:
                recovered = consumer.oldest_valid_line()
                if recovered is not None:
                    consumer.retarget(recovered)
                    break
                stall_start = self.env.now
        yield cfg.slow_path_penalty
        line = consumer.current_line

    hooks = self.system.hooks
    if TraceHook in hooks.wanted:
        hooks.publish(
            TraceHook(
                tick=self.env.now,
                kind=EventKind.FIRST_USE,
                transaction_id=line.fill_txn or 0,
                sqi=consumer.sqi,
            )
        )
    yield cfg.pop_fast_path_cost
    message = line.consume()
    if message.txn is not None:
        message.txn.stamp(TxnState.RETIRED, self.env.now)
    if DeliveryHook in hooks.wanted:
        hooks.publish(
            DeliveryHook(
                tick=self.env.now,
                sqi=message.sqi,
                endpoint_id=consumer.endpoint_id,
                producer_id=message.producer_id,
                seq=message.seq,
                transaction_id=message.transaction_id,
            )
        )
    self.system.latency_stats.add(self.env.now - message.produced_at)
    consumer.advance()
    consumer.pops += 1
    return message


def _run(monkeypatch, case, reference):
    """Run *case*; return its result and every dispatched queue key."""
    keys = []

    def pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:2])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "heappop", pop)
        if reference:
            patch.setattr(library.QueueLibrary, "_pop_impl", _reference_pop_impl)
        result = case()
    return result, keys


def _assert_same(monkeypatch, case):
    want, want_keys = _run(monkeypatch, case, reference=True)
    got, got_keys = _run(monkeypatch, case, reference=False)
    assert got == want
    assert got_keys == want_keys
    return got


# ------------------------------------------------------ whole workload runs
_SPIN = dict(spin_then_yield=True, spin_threshold=64, yield_penalty=200)
_CALL = dict(inline_library=False)

WORKLOAD_CASES = [
    ("pipeline", "vl", _SPIN),
    ("bitonic", "tuned", _SPIN),
    ("halo", "vl", _SPIN),
    ("firewall", "vl", _CALL),
    ("incast", "tuned", _CALL),
    ("pipeline", "vl", {}),
    ("pipeline", "tuned", {}),
    ("bitonic", "vl", {}),
    ("bitonic", "tuned", {}),
]


@pytest.mark.parametrize(
    "workload,setting,overrides",
    WORKLOAD_CASES,
    ids=[f"{w}-{s}-{'+'.join(o) or 'default'}" for w, s, o in WORKLOAD_CASES],
)
def test_workload_metrics_match_reference_loop(monkeypatch, workload, setting, overrides):
    config = SystemConfig().with_overrides(**overrides)
    _assert_same(
        monkeypatch,
        lambda: canonical_bytes(
            run_workload(workload, setting_by_name(setting), scale=SCALE,
                         config=config, seed=SEED)
        ),
    )


# ------------------------------------------------------- targeted scenarios
def _signature(system):
    return (
        system.env.now,
        system.env.events_processed,
        system.network.counters.get("request"),
        [(c.pops, c.empty_cycles()) for c in system.library.consumers],
    )


def test_refetch_backoff_to_the_cap_matches_reference_loop(monkeypatch):
    """A legacy consumer stranded ~300k cycles: its refetch interval
    doubles from 160 up to the 1 << 16 cap and stays there."""
    capped = []
    act = library._StalledPop.act

    def spy(self, now):
        capped.append(self.refetch_after == 1 << 16)
        return act(self, now)

    monkeypatch.setattr(library._StalledPop, "act", spy)

    def case():
        system = System(config=SystemConfig(num_cores=4), device="vl")
        q = system.library.create_queue()
        prod = system.library.open_producer(q, 0)
        cons = system.library.open_consumer(q, 1)
        got = []

        def producer(ctx):
            yield ctx.compute(300_000)
            yield from ctx.push(prod, "late")

        def consumer(ctx):
            got.append((yield from ctx.pop(cons)).payload)
            got.append(ctx.now)

        system.spawn(0, producer, "p")
        system.spawn(1, consumer, "c")
        system.run_to_completion(limit=1_000_000)
        return got, _signature(system)

    _assert_same(monkeypatch, case)
    assert any(capped)


def test_stale_scan_retarget_matches_reference_loop(monkeypatch):
    """Messages parked in future round-robin slots are recovered by the
    stale scan, once after a fruitless scan (the stall restarts) and once
    on the first scan; a pop_until worker stops mid-stall."""

    def case():
        config = SystemConfig(num_cores=4, stale_scan_threshold=256)
        system = System(config=config, device="spamer", algorithm="0delay")
        q = system.library.create_queue()
        cons = system.library.open_consumer(q, 1, num_lines=4)
        idle = system.library.open_consumer(system.library.create_queue(), 2)
        got = []

        def park(ctx, index, payload):
            message = Message(payload=payload, sqi=q, producer_id=0, seq=index,
                              transaction_id=0, produced_at=ctx.now)
            cons.lines[index].try_fill(message, transaction_id=0)

        def filler(ctx):
            yield ctx.compute(300)
            park(ctx, 2, "late")
            yield ctx.compute(2_000)
            park(ctx, 1, "next")

        def consumer(ctx):
            for _ in range(2):
                got.append(((yield from ctx.pop(cons)).payload, ctx.now))

        def worker(ctx):
            got.append(((yield from ctx.pop_until(idle, lambda: ctx.now > 5_000)), ctx.now))

        system.spawn(0, filler, "f")
        system.spawn(1, consumer, "c")
        system.spawn(2, worker, "w")
        system.run_to_completion(limit=1_000_000)
        return got, _signature(system)

    got, _ = _assert_same(monkeypatch, case)
    assert [payload for payload, _ in got] == ["late", "next", None]


@pytest.mark.parametrize("setting", ["vl", "tuned"])
def test_fuzz_mn_workers_match_reference_loop(monkeypatch, setting):
    spec = ProgramSpec(
        links=(LinkSpec(producers=2, consumers=3, messages=6),
               LinkSpec(producers=1, consumers=2, messages=5)),
        producer_compute=120,
        consumer_compute=40,
    )

    def case():
        result = run_fuzz_case(spec, setting_by_name(setting), seed=SEED)
        assert result.ok
        return result.stream, _signature(result.system)

    _assert_same(monkeypatch, case)
