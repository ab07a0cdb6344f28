"""Unit and property tests for the delay-prediction algorithms (Listing 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mem.address import Segment
from repro.registry import ALGORITHMS
from repro.spamer.delay import (
    AdaptiveDelay,
    FixedDelay,
    MAX_DELAY,
    NeverPush,
    TunedDelay,
    TunedParams,
    ZeroDelay,
)
from repro.spamer.specbuf import SpecEntry
from repro.vlink.endpoint import ConsumerEndpoint


@pytest.fixture
def entry(env):
    ep = ConsumerEndpoint(env, 0, 1, Segment(0x1000, 4096), 0, 4, spec_enabled=True)
    return SpecEntry(0, ep)


# ------------------------------------------------------------------- ZeroDelay
def test_zero_delay_pushes_immediately(entry):
    algo = ZeroDelay()
    assert algo.send_tick(entry, 100) == 100
    algo.on_response(entry, hit=True, now=150)
    assert entry.nfills == 1 and entry.last == 150
    algo.on_response(entry, hit=False, now=200)
    assert entry.failed


# ---------------------------------------------------------------- AdaptiveDelay
def test_adaptive_halves_on_success(entry):
    algo = AdaptiveDelay(initial_delay=64)
    assert algo.send_tick(entry, 0) == 64
    algo.on_response(entry, hit=True, now=100)
    assert entry.delay == 32
    algo.on_response(entry, hit=True, now=200)
    assert entry.delay == 16


def test_adaptive_doubles_on_failure(entry):
    algo = AdaptiveDelay(initial_delay=64)
    algo.send_tick(entry, 0)
    algo.on_response(entry, hit=False, now=50)
    assert entry.delay == 128
    algo.on_response(entry, hit=False, now=100)
    assert entry.delay == 256


def test_adaptive_delay_is_capped(entry):
    algo = AdaptiveDelay(initial_delay=64, max_delay=256)
    algo.send_tick(entry, 0)
    for _ in range(10):
        algo.on_response(entry, hit=False, now=0)
    assert entry.delay == 256


def test_adaptive_recovers_from_zero(entry):
    algo = AdaptiveDelay(initial_delay=4)
    algo.send_tick(entry, 0)
    algo.on_response(entry, hit=True, now=1)
    algo.on_response(entry, hit=True, now=2)
    algo.on_response(entry, hit=True, now=3)
    assert entry.delay == 0
    algo.on_response(entry, hit=False, now=4)
    assert entry.delay == 1  # doubling from zero still makes progress


def test_adaptive_validation():
    with pytest.raises(ConfigError):
        AdaptiveDelay(initial_delay=-1)


# ------------------------------------------------------------------- TunedDelay
def test_tuned_params_defaults_match_paper():
    p = TunedParams()
    assert (p.zeta, p.tau, p.delta, p.alpha, p.beta) == (256, 96, 64, 1, 2)
    assert p.label() == "z256-t96-d64-a1-b2"


def test_tuned_params_validation():
    with pytest.raises(ConfigError):
        TunedParams(delta=0)
    with pytest.raises(ConfigError):
        TunedParams(beta=0)
    with pytest.raises(ConfigError):
        TunedParams(tau=-1)


def test_tuned_init_phase(entry):
    """During the first beta fills the delay is 0 (or delta after a miss)."""
    algo = TunedDelay()
    assert algo.send_tick(entry, 1000) == 1000
    entry.failed = True
    assert algo.send_tick(entry, 1000) == 1000 + 64  # + delta


def test_tuned_hit_update_sets_reference_window(entry):
    """Listing 1: delay = interval - tau, ddl = interval + zeta."""
    algo = TunedDelay()
    entry.last = 1000
    algo.on_response(entry, hit=True, now=1500)  # interval = 500
    assert entry.delay == 500 - 96
    assert entry.ddl == 500 + 256
    assert entry.nfills == 1
    assert entry.last == 1500
    assert entry.failed is False


def test_tuned_hit_clamps_negative_delay(entry):
    algo = TunedDelay()
    entry.last = 1000
    algo.on_response(entry, hit=True, now=1050)  # interval 50 < tau 96
    assert entry.delay == 0


def test_tuned_miss_steps_additively_before_deadline(entry):
    algo = TunedDelay()
    entry.delay, entry.ddl = 100, 500
    algo.on_response(entry, hit=False, now=0)
    assert entry.delay == 164  # +delta
    assert entry.failed


def test_tuned_miss_escalates_past_deadline(entry):
    algo = TunedDelay()
    entry.delay, entry.ddl = 600, 500
    algo.on_response(entry, hit=False, now=0)
    assert entry.delay == 1200  # << alpha (=1)


def test_tuned_planned_delay_branch(entry):
    """elapse < delay -> push at last + delay."""
    algo = TunedDelay()
    entry.nfills = 5
    entry.last, entry.delay, entry.failed = 1000, 800, False
    tick = algo.send_tick(entry, 1400)  # elapse 400 < 800 (and >= halved)
    assert tick in (1000 + 800, 1000 + (800 >> 1))  # halved branch possible


def test_tuned_immediate_when_late_and_not_failed(entry):
    algo = TunedDelay()
    entry.nfills = 5
    entry.last, entry.delay, entry.failed = 1000, 100, False
    assert algo.send_tick(entry, 2000) == 2000  # elapse 1000 >= delay


def test_tuned_step_when_failed_before_deadline(entry):
    algo = TunedDelay()
    entry.nfills = 5
    entry.last, entry.delay, entry.failed, entry.ddl = 1000, 100, True, 2000
    assert algo.send_tick(entry, 1500) == 1500 + 64  # + delta


def test_tuned_fallback_past_deadline(entry):
    algo = TunedDelay()
    entry.nfills = 5
    entry.last, entry.delay, entry.failed, entry.ddl = 1000, 100, True, 200
    assert algo.send_tick(entry, 5000) == 5000 + 100


@given(
    last=st.integers(min_value=0, max_value=10_000),
    delay=st.integers(min_value=0, max_value=5_000),
    ddl=st.integers(min_value=0, max_value=10_000),
    nfills=st.integers(min_value=0, max_value=10),
    failed=st.booleans(),
    gap=st.integers(min_value=0, max_value=20_000),
)
@settings(max_examples=200, deadline=None)
def test_tuned_send_tick_never_in_the_past(last, delay, ddl, nfills, failed, gap):
    """Property: the scheduled push tick is always >= now (liveness)."""
    from repro.sim.kernel import Environment
    ep = ConsumerEndpoint(Environment(), 0, 1, Segment(0x1000, 4096), 0, 4, spec_enabled=True)
    entry = SpecEntry(0, ep)
    entry.last, entry.delay, entry.ddl = last, delay, ddl
    entry.nfills, entry.failed = nfills, failed
    now = last + gap
    tick = TunedDelay().send_tick(entry, now)
    assert tick is not None
    assert tick >= min(now, last + delay)
    assert tick <= now + max(delay, MAX_DELAY) + 64


@given(
    responses=st.lists(st.booleans(), min_size=1, max_size=100),
)
@settings(max_examples=100, deadline=None)
def test_tuned_delay_stays_bounded(responses):
    """Property: any hit/miss history keeps delay within [0, MAX_DELAY]."""
    from repro.sim.kernel import Environment
    ep = ConsumerEndpoint(Environment(), 0, 1, Segment(0x1000, 4096), 0, 4, spec_enabled=True)
    entry = SpecEntry(0, ep)
    algo = TunedDelay()
    now = 0
    for hit in responses:
        now += 50
        algo.on_response(entry, hit, now)
        assert 0 <= entry.delay <= MAX_DELAY


# ---------------------------------------------------------------- controls
def test_fixed_delay(entry):
    algo = FixedDelay(500)
    assert algo.send_tick(entry, 100) == 600
    with pytest.raises(ConfigError):
        FixedDelay(-1)


def test_never_push(entry):
    assert NeverPush().send_tick(entry, 0) is None


def test_algorithm_factory():
    def build(name, **kwargs):
        return ALGORITHMS.resolve(name).factory(**kwargs)

    assert isinstance(build("0delay"), ZeroDelay)
    assert isinstance(build("adapt"), AdaptiveDelay)
    assert isinstance(build("tuned"), TunedDelay)
    assert isinstance(build("fixed", delay=10), FixedDelay)
    assert isinstance(build("never"), NeverPush)
    with pytest.raises(ConfigError):
        build("nonsense")
