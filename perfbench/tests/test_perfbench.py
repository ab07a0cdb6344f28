"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke runs of every workload at a tiny size, the mutation check on the
output comparison, and the per-layer self-time attribution.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, layers, run  # noqa: E402
from perfbench.matrix import WORKLOADS, Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.05"


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entries, table in ((BENCHMARK["end_to_end"], run.END_TO_END),
                           (BENCHMARK["per_layer"], run.PER_LAYER)):
        assert {e["name"]: (e["unit"], e["better"]) for e in entries} == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.01",
         "--trace", str(trace), "--scale-factor", TINY]
    )
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[workload].runs
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in table
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_source_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "fig8-closed", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def _tiny_records(name="fig8-closed", seed=3):
    workload = WORKLOADS[name](float(TINY))
    recorder = Recorder()
    workload.run(recorder, seed)
    return workload, recorder.records


def test_perturbed_reference_field_fails_the_run():
    workload, records = _tiny_records()
    expected = check.snapshot(records)
    assert check.diff(records, expected) == {}

    expected[3]["metrics"]["exec_cycles"] += 1
    tally = run.Tally()
    run.iterate(workload, Recorder(), 3, tally, expected)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert "exec_cycles" in tally.messages[0] and "run 3" in tally.messages[0]


def test_invariants_catch_a_lost_message():
    _, records = _tiny_records()
    lost = dataclasses.replace(
        records[1].metrics, messages_delivered=records[1].metrics.messages_delivered - 1
    )
    broken = list(records)
    broken[1] = dataclasses.replace(records[1], metrics=lost)
    assert check.invariants(records) == {}
    problems = check.invariants(broken)
    assert list(problems) == [1]
    assert any("another setting" in p for p in problems[1])


def test_recorded_reference_holds_and_catches_a_mutation():
    seed = 12648430
    expected = check.load_reference(seed, "incast-open")
    assert expected is not None
    workload = WORKLOADS["incast-open"]()
    recorder = Recorder()
    workload.run(recorder, seed)
    assert check.diff(recorder.records, expected) == {}
    expected[0]["metrics"]["bus_packets"] += 1
    assert list(check.diff(recorder.records, expected)) == [0]


def test_self_time_is_attributed_to_repro_modules():
    pkg = "/checkout/src/repro"
    stats = {
        (f"{pkg}/sim/kernel.py", 10, "step"): (5, 5, 0.5, 0.9, {}),
        (f"{pkg}/sim/event.py", 20, "__init__"): (7, 7, 0.25, 0.25, {}),
        (f"{pkg}/net/mesh.py", 30, "transit"): (1, 1, 0.125, 0.2, {}),
        (f"{pkg}/system.py", 40, "spawn"): (1, 1, 0.0625, 0.1, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 0.03125, 0.03125, {}),
        ("/usr/lib/python3/json/decoder.py", 50, "decode"): (1, 1, 0.5, 0.5, {}),
        ("/checkout/src/reprox/other.py", 1, "f"): (1, 1, 1.0, 1.0, {}),
    }
    totals = layers.self_time_by_layer(stats, pkg)
    assert totals["sim"] == 0.75
    assert totals["net"] == 0.125
    assert totals[layers.OTHER] == 0.0625
    assert totals[layers.HOST] == 1.53125
    assert all(totals[layer] == 0.0 for layer in ("vlink", "mem", "spamer", "cpu", "workloads", "eval"))
    assert sum(totals.values()) == sum(entry[2] for entry in stats.values())


def test_call_count_reads_a_function_by_its_code_object():
    def target():
        pass

    code = target.__code__
    stats = {(code.co_filename, code.co_firstlineno, code.co_name): (3, 4, 0.0, 0.0, {})}
    assert layers.call_count(stats, target) == 4
    assert layers.call_count(stats, None) == 0


def test_queue_depth_percentile():
    from collections import Counter

    depths = Counter({1: 10, 5: 80, 40: 10})
    assert layers.QueueSampler.percentile(depths, 50) == 5
    assert layers.QueueSampler.percentile(depths, 95) == 40
    assert layers.QueueSampler.percentile(Counter(), 50) == 0
