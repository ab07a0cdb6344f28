"""The request lifecycle's O(1) stamping: idempotence, stamp order, the
sojourn reservoir, and the exact ``RequestHook`` sequence of open runs."""

import ast
import hashlib
import inspect

import pytest

import repro.sim.request as request_module
from repro.eval.runner import run_workload, setting_by_name
from repro.sim.hooks import HookBus, RequestHook, TraceHook
from repro.sim.request import ReqState, RequestLog
from repro.workloads.arrival import Poisson


def _subscribed_log():
    hooks = HookBus()
    seen = []
    hooks.subscribe(RequestHook, lambda e: seen.append((e.state, e.tick, e.sojourn)))
    return RequestLog(hooks=hooks).activate(), seen


def test_touch_after_complete_and_second_complete_are_no_ops():
    log, seen = _subscribed_log()
    record = log.open("s", 0, arrival_tick=4, admission_tick=6)
    log.touch(record, 10)
    log.touch(record, 12)
    log.complete(record, 15)
    log.touch(record, 20)
    log.complete(record, 25)
    assert [(s.state, s.tick) for s in record.stamps] == [
        (ReqState.ARRIVED, 4),
        (ReqState.ADMITTED, 6),
        (ReqState.FIRST_POP, 10),
        (ReqState.COMPLETED, 15),
    ]
    assert seen == [
        ("arrived", 4, None),
        ("admitted", 6, None),
        ("first-pop", 10, None),
        ("completed", 15, 11),
    ]
    assert log.completed == 1 and log.sojourn_stats.samples == [11]


def test_single_hop_complete_stamps_first_pop_before_completed():
    log, seen = _subscribed_log()
    record = log.open("s", 0, arrival_tick=0, admission_tick=3)
    log.complete(record, 30)
    assert [s.state for s in record.stamps] == [
        ReqState.ARRIVED,
        ReqState.ADMITTED,
        ReqState.FIRST_POP,
        ReqState.COMPLETED,
    ]
    assert record.first_pop == record.completion == 30
    assert seen[2:] == [("first-pop", 30, None), ("completed", 30, 30)]


def test_a_bus_without_a_request_subscriber_builds_no_event():
    class CountingBus(HookBus):
        __slots__ = ("published",)

        def publish(self, event):
            self.published += 1
            super().publish(event)

    hooks = CountingBus()
    hooks.published = 0
    hooks.subscribe(TraceHook, lambda e: None)
    assert RequestHook not in hooks.wanted
    log = RequestLog(hooks=hooks).activate()
    record = log.open("s", 0, arrival_tick=1, admission_tick=2)
    log.touch(record, 5)
    log.complete(record, 9)
    assert hooks.published == 0 and record.sojourn == 8


def test_sojourn_reservoir_equals_the_records_sojourns():
    completions = []

    def attach(system):
        system.hooks.subscribe(
            RequestHook,
            lambda e: completions.append(e.rid) if e.state == "completed" else None,
        )

    _, system = run_workload(
        "pipeline", setting_by_name("tuned"), scale=0.05,
        arrival=Poisson(rate=0.002), on_system=attach, return_system=True,
    )
    log = system.requests
    records = log.records()
    assert records and sorted(completions) == [r.rid for r in records]
    assert log.sojourn_stats.samples == [records[rid].sojourn for rid in completions]


#: sha256 of the ordered ``(rid, state, tick, sojourn)`` RequestHook
#: sequence of a tuned open run at scale 0.05, Poisson rate 0.002, seed
#: 0xC0FFEE, with its event count; pinned before the O(1) lifecycle.
REQUEST_SEQUENCE_DIGESTS = {
    "incast": (400, "8e9fa7a748831397f3524be6b9bb67d63bec96dd4cc46d6105afc6095292310f"),
    "pipeline": (120, "f69cfc749ff4ba33e679f7b19d635723bb05d706576a96757754fdb23424a2e7"),
}


@pytest.mark.parametrize("workload", sorted(REQUEST_SEQUENCE_DIGESTS))
def test_request_hook_sequence_is_pinned(workload):
    seen = []

    def attach(system):
        system.hooks.subscribe(
            RequestHook, lambda e: seen.append((e.rid, e.state, e.tick, e.sojourn))
        )

    run_workload(
        workload, setting_by_name("tuned"), scale=0.05,
        arrival=Poisson(rate=0.002), on_system=attach,
    )
    digest = hashlib.sha256(repr(seen).encode()).hexdigest()
    assert (len(seen), digest) == REQUEST_SEQUENCE_DIGESTS[workload]


def test_request_module_imports_nothing_inside_a_function():
    tree = ast.parse(inspect.getsource(request_module))
    nested = [
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
