"""Tests for the open-system load sweep (repro.eval.load + CLI)."""

import json

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.load import (
    DEFAULT_RHOS,
    LoadResult,
    arrival_spec_for,
    load_config,
    load_experiment,
)

# One tiny single-cell matrix reused by most tests: fast, still covers
# calibration + a full four-point rho axis.
TINY = dict(workload="incast", arrival="poisson", settings=("vl",),
            topologies=("single-bus",), scale=0.05)


# ----------------------------------------------------------------- helpers
def test_load_config_reuses_matching_base():
    base = SystemConfig(topology="mesh")
    assert load_config("mesh", base=base) is base
    derived = load_config("torus", base=base)
    assert derived.topology == "torus"
    assert load_config("single-bus").topology == "single-bus"


def test_arrival_spec_for_maps_rates():
    spec = arrival_spec_for("poisson", 0.004)
    assert spec.name == "poisson" and dict(spec.params) == {"rate": 0.004}
    spec = arrival_spec_for("bursty", 0.004)
    assert dict(spec.params) == {"rate": 0.004}
    spec = arrival_spec_for("ramp", 0.004)
    assert dict(spec.params) == {"rate_lo": 0.002, "rate_hi": 0.008}
    spec = arrival_spec_for("poisson", 0.004, churn=0.5)
    assert dict(spec.params)["churn"] == 0.5
    assert all(spec.build() for spec in [spec])  # every spec instantiates


def test_arrival_spec_for_rejects_closed_and_unknown():
    with pytest.raises(ConfigError, match="no\\s+rate to sweep"):
        arrival_spec_for("closed", 0.004)
    with pytest.raises(ConfigError, match="registered"):
        arrival_spec_for("pareto", 0.004)


def test_a_registered_arrival_process_can_be_load_swept():
    from repro.registry import ARRIVALS
    from repro.workloads.arrival import Poisson

    @ARRIVALS.register("test-paced")
    class Paced(Poisson):
        @classmethod
        def params_for_rate(cls, rate):
            return {"rate": rate * 2.0}

    try:
        spec = arrival_spec_for("test-paced", 0.004, churn=0.25)
        assert dict(spec.params) == {"rate": 0.008, "churn": 0.25}
        result = load_experiment(rhos=(0.5,), jobs=1, **{
            **TINY, "arrival": "test-paced"})
        assert result.arrival == "test-paced"
        assert len(result.rows) == 1 and result.rows[0]["requests"] > 0
    finally:
        ARRIVALS.unregister("test-paced")


# -------------------------------------------------------------- experiment
def test_tiny_sweep_covers_four_load_points():
    result = load_experiment(rhos=DEFAULT_RHOS, jobs=1, **TINY)
    assert len(result.calibration) == 1
    cell = result.calibration[0]
    assert cell["service_rate"] > 0 and cell["requests"] > 0
    assert len(result.rows) == len(DEFAULT_RHOS) == 4
    for row in result.rows:
        assert row["requests"] > 0
        assert row["p50"] <= row["p99"] <= row["p999"]
        assert row["throughput"] > 0
    # offered rate scales linearly with rho against one calibration
    rates = [row["rate"] for row in result.rows]
    assert rates == sorted(rates)
    # past saturation the tail is strictly worse than at light load
    assert result.rows[-1]["p99"] > result.rows[0]["p99"]


def test_sweep_is_byte_identical_across_jobs():
    serial = load_experiment(rhos=(0.5, 1.1), jobs=1, **TINY)
    parallel = load_experiment(rhos=(0.5, 1.1), jobs=2, **TINY)
    assert serial.to_json() == parallel.to_json()
    assert serial.render() == parallel.render()


def test_render_and_json_round_trip():
    result = load_experiment(rhos=(0.5,), jobs=1, **TINY)
    text = result.render()
    assert "Load sweep: incast under poisson arrivals" in text
    assert "p999" in text
    doc = json.loads(result.to_json())
    assert doc["workload"] == "incast" and doc["arrival"] == "poisson"
    assert doc["rows"] == result.rows


def test_closed_only_workload_rejected():
    with pytest.raises(ConfigError, match="closed-only"):
        load_experiment(workload="halo", arrival="poisson", jobs=1)


def test_closed_arrival_rejected():
    with pytest.raises(ConfigError, match="open arrival"):
        load_experiment(workload="incast", arrival="closed",
                        rhos=(0.5,), jobs=1)


def test_empty_result_renders_headers_only():
    assert "p999" in LoadResult(workload="w", arrival="a").render()


# --------------------------------------------------------------------- CLI
def test_cli_load_prints_table(capsys):
    rc = main(["load", "--workload", "incast", "--arrival", "poisson",
               "--topology", "single-bus", "--settings", "vl",
               "--rhos", "0.5", "--scale", "0.05", "--jobs", "1"])
    assert rc in (0, None)
    out = capsys.readouterr().out
    assert "Load sweep: incast under poisson arrivals" in out
    assert "0.5" in out


def test_cli_load_writes_json_report(tmp_path, capsys):
    out_file = tmp_path / "load.json"
    main(["load", "--workload", "incast", "--settings", "vl",
          "--rhos", "0.5", "--scale", "0.05", "--jobs", "1",
          "--out", str(out_file)])
    doc = json.loads(out_file.read_text())
    assert doc["rows"] and doc["calibration"]
    assert "wrote JSON report" in capsys.readouterr().out


def test_cli_load_offers_the_open_registered_arrivals(capsys):
    from repro.registry import ARRIVALS

    with pytest.raises(SystemExit):
        main(["load", "--arrival", "closed"])
    err = capsys.readouterr().err
    for name in ARRIVALS.names():
        if name != "closed":
            assert repr(name) in err
