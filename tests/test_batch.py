"""Tests for the batch experiment runner and the CLI surface around it."""

import json

import pytest

from repro.errors import ConfigError
from repro.eval.batch import parse_spec, run_batch, run_batch_file, summarize_report


MINI_SPEC = {
    "name": "mini",
    "workloads": ["ping-pong", "incast"],
    "settings": ["vl", "0delay"],
    "seeds": [1],
    "scale": 0.06,
}


def test_parse_spec_fills_defaults():
    norm = parse_spec({})
    assert norm["name"] == "unnamed-study"
    assert len(norm["workloads"]) == 8
    assert norm["settings"] == ["vl", "0delay", "adapt", "tuned"]
    assert norm["seeds"] == [0xC0FFEE]
    assert norm["scale"] == 1.0


@pytest.mark.parametrize(
    "bad",
    [
        {"workloads": ["nope"]},
        {"settings": ["warp-drive"]},
        {"seeds": []},
        {"scale": 0},
        {"config": {"bus_latency": -1}},
        {"config": {"no_such_field": 1}},
        {"config": {"scheduler": "heap"}},
    ],
)
def test_parse_spec_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        parse_spec(bad)


def test_run_batch_produces_full_grid():
    report = run_batch(MINI_SPEC)
    assert report["baseline"] == "vl"
    assert set(report["results"]) == {"ping-pong", "incast"}
    for per_setting in report["results"].values():
        assert set(per_setting) == {"vl", "0delay"}
        for per_seed in per_setting.values():
            assert set(per_seed) == {"1"}
            metrics = per_seed["1"]
            assert metrics["exec_cycles"] > 0
            assert "failure_rate" in metrics


def test_run_batch_speedups_relative_to_first_setting():
    report = run_batch(MINI_SPEC)
    assert report["speedups"]["incast"]["vl"]["1"] == 1.0
    assert report["speedups"]["incast"]["0delay"]["1"] > 1.0


def test_run_batch_applies_config_overrides():
    slow = run_batch({**MINI_SPEC, "workloads": ["incast"],
                      "config": {"pop_fast_path_cost": 150}})
    fast = run_batch({**MINI_SPEC, "workloads": ["incast"]})
    assert (
        slow["results"]["incast"]["vl"]["1"]["exec_cycles"]
        > fast["results"]["incast"]["vl"]["1"]["exec_cycles"]
    )


def test_report_is_json_serializable():
    report = run_batch(MINI_SPEC)
    json.dumps(report)  # must not raise


def test_run_batch_file_roundtrip(tmp_path):
    spec_path = tmp_path / "spec.json"
    report_path = tmp_path / "report.json"
    spec_path.write_text(json.dumps(MINI_SPEC))
    report = run_batch_file(str(spec_path), report_path=str(report_path))
    on_disk = json.loads(report_path.read_text())
    assert on_disk["name"] == report["name"] == "mini"


def test_summarize_report_rows():
    report = run_batch(MINI_SPEC)
    rows = summarize_report(report)
    assert ["ping-pong", "vl", "1.00x"] in rows
    assert len(rows) == 4


def test_cli_batch(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(MINI_SPEC))
    assert main(["batch", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "mini" in out and "incast" in out
