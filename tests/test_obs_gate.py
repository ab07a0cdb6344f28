"""Unit test for tools/obs_gate.py, the observability overhead gate."""

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "obs_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("obs_gate_tool", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    """Manually-advanced clock stand-in."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def test_obs_overhead_gate_document(gate):
    """Gate structure with a deterministic fake clock (each leg reads the
    clock twice, so every leg measures exactly 0.5 fake seconds and both
    overheads are 0%)."""
    clock = FakeClock()

    def reading():
        clock.advance(0.5)
        return clock.t

    result = gate.measure_obs_overhead(
        repeats=1, scale=0.01, threshold_pct=3.0, clock=reading
    )
    assert result["name"] == "obs-overhead-gate"
    assert result["off_s"] == result["null_s"] == result["on_s"] == 0.5
    assert result["overhead_disabled_pct"] == 0.0
    assert result["pass"] is True
    assert result["matrix"]["repeats"] == 1
    # The fabric leg: same three legs over a 64-core mesh, same bound.
    fabric = result["fabric"]
    assert fabric["off_s"] == fabric["null_s"] == fabric["on_s"] == 0.5
    assert fabric["overhead_disabled_pct"] == 0.0
    assert fabric["pass"] is True
    assert fabric["matrix"] == {
        "workload": "scaling-halo",
        "cores": 64,
        "topology": "mesh",
        "settings": ["vl", "tuned"],
    }
    assert gate.THRESHOLD_PCT == 3.0


class DriftingClock:
    """A clock stand-in read twice per timed run (start, end):
    every run takes 1.5% longer than the one before, like a host slowly
    losing turbo or gaining a noisy neighbour."""

    DRIFT = 1.015

    def __init__(self) -> None:
        self.t = 0.0
        self.reads = 0
        self.runs = 0

    def __call__(self) -> float:
        self.reads += 1
        if self.reads % 2 == 0:
            self.t += self.DRIFT ** self.runs
            self.runs += 1
        return self.t


def test_upward_drift_does_not_fail_the_gate(gate):
    """Under a steady upward drift the ``null`` leg's best run is one run
    later than the ``off`` leg's (1.5%, inside the 3% bound), not a whole
    leg of repeats later (3 runs, 4.6%, which fails): the legs
    interleave, so drift cannot pile onto one of them."""
    clock = DriftingClock()
    result = gate.measure_obs_overhead(
        repeats=3, scale=0.01, threshold_pct=3.0, clock=clock
    )
    assert clock.runs == 2 * 3 * 3
    for doc in (result, result["fabric"]):
        assert doc["null_s"] / doc["off_s"] == pytest.approx(1.015, abs=1e-3)
        assert doc["overhead_disabled_pct"] < 3.0
        assert doc["pass"] is True
    assert result["pass"] is True
