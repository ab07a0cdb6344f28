"""Tests for the extended delay-prediction families (spamer/learned.py)."""

import pytest

from repro.errors import ConfigError
from repro.mem.address import Segment
from repro.registry import ALGORITHMS
from repro.spamer.learned import HistoryDelay, PerceptronDelay
from repro.spamer.specbuf import SpecEntry
from repro.vlink.endpoint import ConsumerEndpoint


@pytest.fixture
def entry(env):
    ep = ConsumerEndpoint(env, 0, 1, Segment(0x1000, 4096), 0, 4, spec_enabled=True)
    return SpecEntry(0, ep)


# ----------------------------------------------------------------- HistoryDelay
def test_history_validation():
    with pytest.raises(ConfigError):
        HistoryDelay(smoothing=0.0)
    with pytest.raises(ConfigError):
        HistoryDelay(smoothing=1.5)
    with pytest.raises(ConfigError):
        HistoryDelay(margin=1.0)
    with pytest.raises(ConfigError):
        HistoryDelay(margin=-0.1)
    with pytest.raises(ConfigError):
        HistoryDelay(backoff_step=0)


def test_history_pushes_immediately_without_history(entry):
    algo = HistoryDelay()
    assert algo.send_tick(entry, 123) == 123


def test_history_first_hit_records_no_interval(entry):
    """The first success has no predecessor, so no interval is trained."""
    algo = HistoryDelay(smoothing=0.5)
    algo.on_response(entry, hit=True, now=100)
    s = algo._entry_state(entry)
    assert s.samples == 1 and s.last_success == 100
    assert s.ewma_interval == 0.0
    assert entry.nfills == 1 and entry.last == 100 and entry.failed is False


def test_history_ewma_and_margin(entry):
    """delay = ewma * (1 - margin) measured from the last success."""
    algo = HistoryDelay(smoothing=0.5, margin=0.25)
    algo.on_response(entry, hit=True, now=100)
    algo.on_response(entry, hit=True, now=300)  # interval 200 -> ewma 100
    assert algo._entry_state(entry).ewma_interval == pytest.approx(100.0)
    # planned = int(100 * 0.75) = 75, anchored at last success (t=300)
    assert algo.send_tick(entry, 310) == 375
    # already past the predicted point: push now
    assert algo.send_tick(entry, 500) == 500


def test_history_failures_back_off_without_corrupting_ewma(entry):
    algo = HistoryDelay(smoothing=0.5, margin=0.25, backoff_step=48)
    algo.on_response(entry, hit=True, now=100)
    algo.on_response(entry, hit=True, now=300)
    before = algo._entry_state(entry).ewma_interval
    algo.on_response(entry, hit=False, now=350)
    algo.on_response(entry, hit=False, now=400)
    s = algo._entry_state(entry)
    assert s.ewma_interval == before  # failures never train the EWMA
    assert s.consecutive_failures == 2
    assert entry.failed
    # planned = 75 + 2*48 = 171 from last success at 300
    assert algo.send_tick(entry, 310) == 300 + 171
    # a hit clears the backoff
    algo.on_response(entry, hit=True, now=500)
    assert algo._entry_state(entry).consecutive_failures == 0


def test_history_backoff_applies_even_before_first_sample(entry):
    algo = HistoryDelay(backoff_step=48)
    algo.on_response(entry, hit=False, now=10)
    assert algo.send_tick(entry, 20) == 20 + 48


def test_history_respects_max_delay(entry):
    algo = HistoryDelay(smoothing=1.0, margin=0.0, max_delay=50)
    algo.on_response(entry, hit=True, now=0)
    algo.on_response(entry, hit=True, now=1000)  # ewma 1000, capped to 50
    assert algo.send_tick(entry, 1001) == 1050


# -------------------------------------------------------------- PerceptronDelay
def test_perceptron_validation():
    with pytest.raises(ConfigError):
        PerceptronDelay(learning_rate=0.0)
    with pytest.raises(ConfigError):
        PerceptronDelay(learning_rate=-1.0)


def test_perceptron_starts_aggressive(entry):
    """Zero weights activate at the threshold: push now, and always push
    now while untrained (samples == 0)."""
    algo = PerceptronDelay()
    assert algo.send_tick(entry, 100) == 100
    assert algo._entry_state(entry).last_aggressive


def test_perceptron_trains_only_on_wrong_decisions(entry):
    algo = PerceptronDelay(learning_rate=1.0)
    algo.send_tick(entry, 0)
    # Aggressive push that hit: decision was right, no update.
    algo.on_response(entry, hit=True, now=10)
    s = algo._entry_state(entry)
    assert s.bias == 0.0 and s.weights == [0.0] * 4
    assert s.samples == 1 and s.last_success == 10
    # Aggressive push that missed: move toward "don't push now".
    algo.send_tick(entry, 20)
    algo.on_response(entry, hit=False, now=30)
    assert s.bias == -1.0
    assert s.weights[0] == -1.0  # feature 0 (last push hit) was active
    assert s.consecutive_failures == 1 and entry.failed


def test_perceptron_untrained_entries_push_now_even_if_negative(entry):
    """samples == 0 overrides a negative activation (must learn somehow)."""
    algo = PerceptronDelay(learning_rate=1.0)
    algo.send_tick(entry, 0)
    algo.on_response(entry, hit=False, now=10)  # bias now -1
    assert algo.send_tick(entry, 20) == 20


def test_perceptron_conservative_waits_out_the_interval(entry):
    algo = PerceptronDelay()
    s = algo._entry_state(entry)
    s.samples, s.ewma_interval, s.last_success, s.bias = 4, 100.0, 200, -10.0
    entry.failed = False
    assert algo.send_tick(entry, 210) == 300  # last_success + ewma
    assert not s.last_aggressive
    # Conservative wait followed by a hit is a wrong "wait": train toward
    # aggression (bias moves up by learning_rate).
    algo.on_response(entry, hit=True, now=300)
    assert s.bias == -10.0 + algo.learning_rate


def test_perceptron_conservative_respects_max_delay(entry):
    algo = PerceptronDelay(max_delay=50)
    s = algo._entry_state(entry)
    s.samples, s.ewma_interval, s.last_success, s.bias = 4, 1000.0, 200, -10.0
    entry.failed = False
    assert algo.send_tick(entry, 210) == 250  # 200 + capped 50


def test_perceptron_hit_updates_interval_estimate(entry):
    algo = PerceptronDelay()
    algo.send_tick(entry, 0)
    algo.on_response(entry, hit=True, now=100)
    algo.send_tick(entry, 150)
    algo.on_response(entry, hit=True, now=300)  # interval 200
    s = algo._entry_state(entry)
    assert s.ewma_interval == pytest.approx(0.25 * 200)
    assert s.samples == 2
    assert entry.nfills == 2 and entry.last == 300


def test_learned_algorithms_are_registered():
    assert isinstance(ALGORITHMS.resolve("history").factory(), HistoryDelay)
    assert isinstance(ALGORITHMS.resolve("perceptron").factory(), PerceptronDelay)
