"""Unit and property tests for the statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Environment
from repro.sim.stats import Counter, RunningStats, StateTimer, geometric_mean
from tests.conftest import noop


# -------------------------------------------------------------------- Counter
def test_counter_accumulates():
    c = Counter()
    c.counts["hits"] += 1
    c.counts["hits"] += 4
    assert c.get("hits") == 5
    assert c.get("misses") == 0
    assert c.as_dict() == {"hits": 5}


# ------------------------------------------------------------------ StateTimer
def test_state_timer_accumulates_per_state(env):
    timer = StateTimer(env, "empty")
    env.call_later(10, noop)
    env.run()
    timer.transition("valid")
    env.call_later(30, noop)
    env.run()
    timer.transition("empty")
    assert timer.time_in("empty") == 10
    assert timer.time_in("valid") == 30


def test_state_timer_open_interval_counted(env):
    timer = StateTimer(env, "empty")
    env.call_later(7, noop)
    env.run()
    assert timer.time_in("empty") == 7
    assert timer.time_in("empty", up_to_now=False) == 0


def test_state_timer_close(env):
    timer = StateTimer(env, "a")
    env.call_later(5, noop)
    env.run()
    timer.close()
    assert timer.time_in("a", up_to_now=False) == 5


def test_state_timer_total_is_elapsed(env):
    timer = StateTimer(env, "a")
    for state, dt in (("b", 3), ("a", 9), ("b", 2)):
        env.call_later(dt, noop)
        env.run()
        timer.transition(state)
    assert timer.time_in("a") + timer.time_in("b") == env.now


# ---------------------------------------------------------------- RunningStats
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
@settings(max_examples=50, deadline=None)
def test_running_stats_matches_numpy(values):
    rs = RunningStats()
    for v in values:
        rs.add(v)
    assert rs.n == len(values)
    assert rs.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert rs.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-4)
    assert rs.minimum == min(values)
    assert rs.maximum == max(values)


def test_running_stats_empty():
    rs = RunningStats()
    assert rs.mean == 0.0
    assert rs.variance == 0.0


def test_running_stats_percentiles():
    rs = RunningStats(keep_samples=True)
    for v in range(101):
        rs.add(float(v))
    assert rs.percentile(0) == 0
    assert rs.percentile(50) == 50
    assert rs.percentile(100) == 100
    with pytest.raises(ValueError):
        rs.percentile(101)


def test_percentile_without_samples_raises():
    rs = RunningStats()
    rs.add(1.0)
    with pytest.raises(ValueError):
        rs.percentile(50)


# -------------------------------------------------------------- geometric_mean
def test_geometric_mean_known_value():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([-1.0])


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_geometric_mean_between_min_and_max(values):
    g = geometric_mean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9
    # And matches the closed form.
    assert g == pytest.approx(
        math.exp(sum(math.log(v) for v in values) / len(values))
    )
