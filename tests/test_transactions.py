"""The explicit transaction lifecycle threaded through the stack."""

from tests.conftest import collect_records
from repro import System
from repro.sim.hooks import HookBus, TransactionHook
from repro.sim.transaction import TransactionLog, TransactionRecord, TxnState


def _ping_pong(system, messages=8):
    q = system.library.create_queue()
    prod = system.library.open_producer(q, core_id=0)
    cons = system.library.open_consumer(q, core_id=1)

    def producer(ctx):
        for i in range(messages):
            yield from ctx.push(prod, i)
            yield ctx.compute(50)

    def consumer(ctx):
        for _ in range(messages):
            yield from ctx.pop(cons)
            yield ctx.compute(30)

    system.spawn(0, producer, "producer")
    system.spawn(1, consumer, "consumer")
    system.run_to_completion()


# ------------------------------------------------------------- unit level
def test_record_stamps_and_queries():
    record = TransactionRecord(0, sqi=1)
    record.stamp(TxnState.CREATED, 10)
    record.stamp(TxnState.PUSHED, 25)
    record.stamp(TxnState.STASHED, 30, "on-demand")
    record.stamp(TxnState.RESPONDED, 60, "miss")
    record.stamp(TxnState.STASHED, 70, "on-demand")
    record.stamp(TxnState.RESPONDED, 100, "hit")
    record.stamp(TxnState.RETIRED, 120)
    assert record.state is TxnState.RETIRED and record.retired
    assert record.attempts == 2
    assert record.first(TxnState.STASHED) == 30
    assert record.last(TxnState.STASHED) == 70
    assert record.ticks(TxnState.RESPONDED) == [60, 100]
    assert record.latency == 110
    assert record.first(TxnState.PUSHED) - record.first(TxnState.CREATED) == 15
    assert record.last(TxnState.RETIRED) - record.last(TxnState.RESPONDED) == 20


def test_log_keeps_dense_per_kind_id_sequences():
    log = TransactionLog(HookBus())
    tids = [log.take(1)[0] for _ in range(3)]
    rids = [log.take(1, kind="request")[0] for _ in range(2)]
    assert tids == [0, 1, 2]
    assert rids == [0, 1]          # requests do not perturb message ids
    assert log.count() == 3 and log.count("request") == 2


def test_log_builds_records_only_when_observed():
    bus = HookBus()
    log = TransactionLog(bus)
    assert log.take(1) == (0, None)          # silent bus: an id, no record
    sub = bus.subscribe(TransactionHook, lambda event: None)
    tid, record = log.take(1)
    assert tid == 1 and record.tid == 1
    bus.unsubscribe(sub)
    assert log.take(1, kind="request") == (0, None)
    assert log.count() == 2 and log.count("request") == 1


# ----------------------------------------------------------- system level
def test_message_lifecycle_through_a_real_run():
    system = System(device="spamer")
    records = collect_records(system)
    _ping_pong(system)
    records = records()
    assert len(records) == 8
    for record in records:
        assert record.retired
        assert record.first(TxnState.CREATED) is not None
        assert record.first(TxnState.PUSHED) is not None
        assert record.first(TxnState.MAPPED) is not None
        assert record.attempts >= 1
        assert record.latency is not None and record.latency > 0
        # Ticks are monotonically non-decreasing along the journey.
        ticks = [stamp.tick for stamp in record.stamps]
        assert ticks == sorted(ticks)
    # Message ids stay the dense 0..n-1 sequence the trace figures key on.
    assert [r.tid for r in records] == list(range(8))


def test_request_lifecycle_on_baseline_device():
    system = System(device="vl")
    records = collect_records(system)
    _ping_pong(system)
    requests = records("request")
    assert requests, "legacy pops must issue vl_fetch requests"
    terminal = {TxnState.MATCHED, TxnState.COALESCED, TxnState.DROPPED}
    assert any(r.state in terminal for r in requests)


def test_untraced_system_does_not_retain_records(monkeypatch):
    built = []
    init = TransactionRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TransactionRecord, "__init__", counting_init)
    system = System(device="spamer")
    _ping_pong(system)
    assert built == []                       # nobody observes: no record
    assert system.transactions.count() == 8  # ids were still allocated


def test_recording_does_not_perturb_timing():
    plain = System(device="spamer", seed=7)
    _ping_pong(plain)
    traced = System(device="spamer", seed=7)
    collect_records(traced)
    _ping_pong(traced)
    assert plain.env.now == traced.env.now
    assert plain.device.stats.as_dict() == traced.device.stats.as_dict()
