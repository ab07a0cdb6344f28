"""Focused tests for the queue library's less-travelled paths."""

import pytest

from repro.config import SystemConfig
from repro.eval.experiments import reconstruct_transactions
from repro.mem.bus import PacketKind
from repro.mem.cacheline import LineState
from repro.sim.hooks import TraceHook
from repro.system import System


def make_1to1(config=None, device="vl", algorithm=None):
    system = System(config=config or SystemConfig(num_cores=4),
                    device=device, algorithm=algorithm)
    q = system.library.create_queue()
    prod = system.library.open_producer(q, 0)
    cons = system.library.open_consumer(q, 1)
    return system, prod, cons


# ------------------------------------------------------------ stale-scan path
def test_stale_scan_recovers_parked_message():
    """A message parked in a non-current line is recovered by the forward
    scan after stale_scan_threshold cycles."""
    cfg = SystemConfig(num_cores=4, stale_scan_threshold=256)
    system = System(config=cfg, device="spamer", algorithm="0delay")
    q = system.library.create_queue()
    cons = system.library.open_consumer(q, 1, num_lines=4)
    got = []

    # Park a message directly in line 2 while the consumer waits on line 0.
    from repro.vlink.packets import Message

    parked = Message(payload="parked", sqi=q, producer_id=0, seq=0,
                     transaction_id=0, produced_at=0)
    cons.lines[2].try_fill(parked, transaction_id=0)

    def consumer(ctx):
        msg = yield from ctx.pop(cons)
        got.append(msg.payload)

    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    assert got and got[0] == "parked"
    assert cons.pops == 1


def test_stale_scan_does_not_fire_before_threshold():
    cfg = SystemConfig(num_cores=4, stale_scan_threshold=100_000)
    system = System(config=cfg, device="spamer", algorithm="0delay")
    q = system.library.create_queue()
    cons = system.library.open_consumer(q, 1, num_lines=4)
    cons.lines[2].try_fill("parked")

    def consumer(ctx):
        msg = yield from ctx.pop_until(cons, lambda: ctx.now > 5_000)
        assert msg is None

    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    assert cons.lines[2].state is LineState.VALID  # still parked


# -------------------------------------------------------------- refetch backoff
def test_refetch_backoff_limits_request_packets():
    """A consumer stranded for a long time sends only O(log t) refetches."""
    cfg = SystemConfig(num_cores=4, refetch_interval=128)
    system = System(config=cfg, device="vl")
    q = system.library.create_queue()
    cons = system.library.open_consumer(q, 1)
    system.library.open_producer(q, 0)  # never pushes

    def consumer(ctx):
        msg = yield from ctx.pop_until(cons, lambda: ctx.now > 60_000)
        assert msg is None

    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    # 60k cycles of stall: backoff 128,256,...,32768 -> <= ~10 requests.
    assert system.network.packets(PacketKind.REQUEST) <= 10


def test_stop_check_error_is_raised_inside_the_popping_thread():
    """A stop condition that raises while the pop is parked fails the
    pop in the thread that called it, where the program can catch it."""
    system, prod, cons = make_1to1()
    caught = []

    def stop_check():
        if system.env.now >= 100:
            raise RuntimeError("stop check broke")
        return False

    def consumer(ctx):
        try:
            yield from ctx.pop_until(cons, stop_check)
        except RuntimeError as exc:
            caught.append((str(exc), ctx.now))

    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    assert caught and caught[0][0] == "stop check broke" and caught[0][1] >= 100


# ------------------------------------------------------------- spin-then-yield
def test_spin_then_yield_coarsens_detection():
    def run(spin_then_yield):
        cfg = SystemConfig(num_cores=4, spin_then_yield=spin_then_yield,
                           spin_threshold=64, yield_penalty=400)
        system, prod, cons = make_1to1(config=cfg)
        done = []

        def producer(ctx):
            yield ctx.compute(2_000)  # force a long consumer wait
            yield from ctx.push(prod, "late")

        def consumer(ctx):
            msg = yield from ctx.pop(cons)
            done.append(ctx.now)

        system.spawn(0, producer, "p")
        system.spawn(1, consumer, "c")
        system.run_to_completion(limit=1_000_000)
        return done[0]

    assert run(True) >= run(False)


# ------------------------------------------------------------------ tracing
def test_trace_records_full_transaction_through_device():
    system = System(device="vl")
    events = []
    system.hooks.subscribe(TraceHook, events.append)
    q = system.library.create_queue()
    prod = system.library.open_producer(q, 0)
    cons = system.library.open_consumer(q, 1)

    def producer(ctx):
        yield from ctx.push(prod, "x")

    def consumer(ctx):
        yield from ctx.pop(cons)

    system.spawn(0, producer, "p")
    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    txns = [t for t in reconstruct_transactions(events) if t.line_fill is not None]
    assert len(txns) == 1
    t = txns[0]
    assert t.complete
    assert t.data_arrive is not None and t.request_arrive is not None
    # Prerequisite ordering: vacate <= fill, data <= fill, first use >= fill.
    assert t.line_vacate <= t.line_fill
    assert t.data_arrive <= t.line_fill
    assert t.first_use >= t.line_fill


def test_trace_vacate_attributed_to_next_transaction():
    system = System(device="vl")
    events = []
    system.hooks.subscribe(TraceHook, events.append)
    q = system.library.create_queue()
    prod = system.library.open_producer(q, 0)
    cons = system.library.open_consumer(q, 1)

    def producer(ctx):
        for i in range(2):
            yield from ctx.push(prod, i)
            yield ctx.compute(500)

    def consumer(ctx):
        for _ in range(2):
            yield from ctx.pop(cons)
            yield ctx.compute(100)

    system.spawn(0, producer, "p")
    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=1_000_000)
    txns = sorted(
        (t for t in reconstruct_transactions(events) if t.line_fill is not None),
        key=lambda t: t.line_fill,
    )
    assert len(txns) == 2
    # The second transaction's vacate is the consume time of the first.
    assert txns[1].line_vacate >= txns[0].first_use


# --------------------------------------------------------------- multi-queue
def test_consumer_thread_multiplexes_queues():
    """One thread popping two queues (halo-style) stays correct."""
    system = System(device="spamer", algorithm="tuned")
    lib = system.library
    qa, qb = lib.create_queue(), lib.create_queue()
    pa, pb = lib.open_producer(qa, 0), lib.open_producer(qb, 0)
    ca, cb = lib.open_consumer(qa, 1), lib.open_consumer(qb, 1)
    got = []

    def producer(ctx):
        for i in range(10):
            yield from ctx.push(pa, ("a", i))
            yield from ctx.push(pb, ("b", i))
            yield ctx.compute(300)

    def consumer(ctx):
        for _ in range(10):
            msg_a = yield from ctx.pop(ca)
            msg_b = yield from ctx.pop(cb)
            got.append((msg_a.payload, msg_b.payload))
            yield ctx.compute(150)

    system.spawn(0, producer, "p")
    system.spawn(1, consumer, "c")
    system.run_to_completion(limit=10_000_000)
    assert [g[0] for g in got] == [("a", i) for i in range(10)]
    assert [g[1] for g in got] == [("b", i) for i in range(10)]
