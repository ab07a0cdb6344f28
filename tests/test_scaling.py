"""Tests for the interconnect scaling study (repro.eval.scaling + CLI)."""

import json

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.scaling import (
    ScalingResult,
    scaling_config,
    scaling_experiment,
    scaling_requests,
)

# One tiny 2-cell matrix reused by most tests: fast, still exercises the
# cross-topology baseline bookkeeping.
TINY = dict(cores=(8,), topologies=("single-bus", "mesh"), settings=("vl", "tuned"),
            scale=0.05)


# ----------------------------------------------------------------- config
def test_scaling_config_keeps_table1_at_16_cores():
    config = scaling_config(16, topology="single-bus")
    stock = SystemConfig()
    assert config.prodbuf_entries == stock.prodbuf_entries == 64
    assert config.linktab_entries == stock.linktab_entries
    assert config.num_cores == 16


def test_scaling_config_grows_buffers_per_core():
    config = scaling_config(64)
    assert config.num_cores == 64
    assert config.topology == "mesh"
    assert config.prodbuf_entries == 256  # 4 per core
    assert config.specbuf_entries == 256
    config = scaling_config(8)
    assert config.prodbuf_entries == 64  # never below Table 1's pool


def test_scaling_config_rejects_zero_cores():
    with pytest.raises(ConfigError):
        scaling_config(0)


# --------------------------------------------------------------- requests
def test_request_matrix_structure_and_order():
    requests = scaling_requests(cores=(8, 16), topologies=("single-bus", "mesh"),
                                settings=("vl", "tuned"), scale=0.05)
    assert len(requests) == 8  # 2 cores x 2 topologies x 2 settings
    cells = [(r.config.num_cores, r.config.topology) for r in requests]
    # (cores, topology, setting) nesting order, settings innermost.
    assert cells == [(8, "single-bus")] * 2 + [(8, "mesh")] * 2 + \
        [(16, "single-bus")] * 2 + [(16, "mesh")] * 2
    assert all(r.workload == "scaling-halo" for r in requests)


# ------------------------------------------------------------- experiment
def test_tiny_experiment_report_shape():
    result = scaling_experiment(**TINY)
    assert len(result.rows) == 4
    rendered = result.render()
    assert "Scaling study" in rendered
    assert "single-bus" in rendered and "mesh" in rendered
    # Baselines are per-(cores, topology): both VL rows read 1.00x.
    assert rendered.count("1.00x") == 2
    doc = json.loads(result.to_json())
    assert len(doc) == 4
    assert {row["setting"] for row in doc} == {"VL(baseline)", "SPAMeR(tuned)"}
    assert all(row["speedup"] is not None for row in doc)


def test_net_columns_only_on_noc_rows():
    result = scaling_experiment(**TINY)
    by_topology = {row["topology"]: row for row in result.rows}
    assert by_topology["single-bus"]["net_util"] == 0.0
    assert by_topology["mesh"]["net_util"] > 0.0


def test_experiment_deterministic_across_jobs():
    serial = scaling_experiment(**TINY, jobs=1)
    parallel = scaling_experiment(**TINY, jobs=2)
    assert serial.render() == parallel.render()
    assert serial.to_json() == parallel.to_json()


def test_speedup_without_baseline_row_is_dash():
    result = ScalingResult()
    result.rows.append({
        "cores": 8, "topology": "mesh", "srds": 1, "setting": "SPAMeR(tuned)",
        "cycles": 100, "messages": 4, "bus_util": 0.1, "net_util": 0.0,
        "net_wait": 0,
    })
    assert result.speedup(result.rows[0]) is None
    assert "| -" in result.render()


# -------------------------------------------------------------------- CLI
def test_scale_cli_smoke(tmp_path, capsys):
    out_file = tmp_path / "scale.json"
    assert main([
        "scale", "--cores", "8", "--topology", "mesh", "--settings",
        "vl,tuned", "--scale", "0.05", "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "Scaling study" in out
    assert "mesh" in out
    doc = json.loads(out_file.read_text())
    assert len(doc) == 2


def test_scale_cli_multi_srd(capsys):
    assert main([
        "scale", "--cores", "8", "--topology", "crossbar", "--settings",
        "tuned", "--srds", "2", "--scale", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "| 2" in out  # srds column
