"""Unit tests for the arrival-process layer (repro.workloads.arrival).

Covers the registry, the closed-batch zero-cost contract, interarrival
statistics of every open process, churn quota bounds, and the determinism
guarantees the ``--jobs`` invariance rests on (same seed => byte-identical
plans, plans independent across sessions).
"""

import pickle

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.registry import ARRIVALS
from repro.sim.rng import RngPool
from repro.workloads.arrival import (
    CLOSED_BATCH,
    ArrivalProcess,
    ArrivalSpec,
    Bursty,
    ClosedBatch,
    DiurnalRamp,
    Poisson,
    resolve_arrival,
)


# ----------------------------------------------------------------- registry
def test_builtin_arrivals_registered():
    assert ARRIVALS.names() == ["bursty", "closed", "poisson", "ramp"]


def test_make_arrival_by_name_with_params():
    proc = ARRIVALS.resolve("poisson")(rate=0.01)
    assert isinstance(proc, Poisson)
    assert proc.rate == 0.01


def test_make_unknown_arrival_lists_available():
    with pytest.raises(ConfigError, match="poisson"):
        ARRIVALS.resolve("pareto")


def test_register_and_unregister_custom_arrival():
    @ARRIVALS.register("test-fixed")
    class Fixed(ArrivalProcess):
        def interarrivals(self, rng, count):
            return [10] * count

    try:
        proc = ArrivalSpec.make("test-fixed").build()
        assert isinstance(proc, Fixed)
        assert proc.name == "test-fixed"
        assert proc.label() == "test-fixed()"
        assert proc.plan(RngPool(1), "s", 3) == [10, 20, 30]
    finally:
        ARRIVALS.unregister("test-fixed")
    with pytest.raises(ConfigError):
        ARRIVALS.resolve("test-fixed")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        ARRIVALS.register("poisson")(type("Dup", (ArrivalProcess,), {}))


# ------------------------------------------------------------- closed batch
def test_closed_plan_is_all_zero_and_touches_no_rng_stream():
    pool = RngPool(42)
    plan = ClosedBatch().plan(pool, "sess", 7)
    assert plan == [0] * 7
    # The zero-cost contract: a closed plan must not have created any
    # stream, so default runs draw exactly the randomness they always did.
    assert pool._streams == {}


def test_closed_batch_ignores_churn():
    batch = ClosedBatch(churn=0.9)
    assert batch.churn == 0.0
    assert len(batch.plan(RngPool(1), "s", 5)) == 5


def test_plan_rejects_empty_sessions():
    with pytest.raises(WorkloadError):
        ClosedBatch().plan(RngPool(1), "s", 0)
    with pytest.raises(WorkloadError):
        Poisson(rate=0.01).plan(RngPool(1), "s", 0)


# ------------------------------------------------------------- open processes
def test_poisson_interarrival_mean_matches_rate():
    rate = 0.01  # mean gap 100 cycles
    gaps = Poisson(rate=rate).interarrivals(RngPool(7).stream("g"), 5000)
    assert all(g >= 1 for g in gaps)
    mean = sum(gaps) / len(gaps)
    assert 0.9 / rate < mean < 1.1 / rate


def test_poisson_plan_is_nondecreasing_absolute_ticks():
    plan = Poisson(rate=0.01).plan(RngPool(7), "s", 100)
    assert len(plan) == 100
    assert all(b >= a for a, b in zip(plan, plan[1:]))
    assert plan[0] >= 1  # the first gap is the session's join offset


def test_poisson_gaps_round_half_to_even_like_round():
    import numpy as np

    draws = np.array([0.2, 0.5, 1.5, 2.5, 3.49, 7.5, 1e6 + 0.5, 4.500001])

    class FixedDraws:
        def exponential(self, scale, size):
            return draws[:size]

    gaps = Poisson(rate=0.01).interarrivals(FixedDraws(), len(draws))
    assert gaps == [max(1, int(round(g))) for g in draws]
    assert gaps == [1, 1, 2, 2, 3, 8, 1000000, 5]
    assert all(type(g) is int for g in gaps)
    stream = RngPool(11).stream("arrival:s")
    mirror = RngPool(11).stream("arrival:s")
    gaps = Poisson(rate=0.003).interarrivals(stream, 5000)
    assert gaps == [max(1, int(round(g))) for g in mirror.exponential(1 / 0.003, 5000)]


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ConfigError):
        Poisson(rate=0.0)


def test_bursty_parameter_validation():
    with pytest.raises(ConfigError):
        Bursty(rate=0.0)
    with pytest.raises(ConfigError):
        Bursty(rate=0.01, boost=0.5)
    with pytest.raises(ConfigError):
        Bursty(rate=0.01, switch=0.0)
    with pytest.raises(ConfigError):
        Bursty(rate=0.01, switch=1.5)


def test_bursty_mean_between_state_rates():
    proc = Bursty(rate=0.01, boost=4.0, switch=0.2)
    gaps = proc.interarrivals(RngPool(9).stream("g"), 5000)
    assert all(g >= 1 for g in gaps)
    mean = sum(gaps) / len(gaps)
    # The mean gap must sit strictly between the burst-state gap (1/0.04)
    # and the lull-state gap (1/0.0025).
    assert 1.0 / (proc.rate * proc.boost) < mean < 1.0 / (proc.rate / proc.boost)


def test_ramp_validation_and_rate_clamp():
    with pytest.raises(ConfigError):
        DiurnalRamp(rate_lo=0.0, rate_hi=0.01)
    with pytest.raises(ConfigError):
        DiurnalRamp(rate_lo=0.01, rate_hi=0.001)  # a ramp climbs
    with pytest.raises(ConfigError):
        DiurnalRamp(rate_lo=0.001, rate_hi=0.01, period=0)
    ramp = DiurnalRamp(rate_lo=0.001, rate_hi=0.01, period=1000)
    assert ramp.rate_at(0) == 0.001
    assert ramp.rate_at(500) == pytest.approx(0.0055)
    assert ramp.rate_at(10_000) == pytest.approx(0.01)  # clamped past period


def test_ramp_gaps_shrink_as_the_rate_climbs():
    ramp = DiurnalRamp(rate_lo=0.001, rate_hi=0.02, period=50_000)
    gaps = ramp.interarrivals(RngPool(11).stream("g"), 2000)
    early = sum(gaps[:200]) / 200
    late = sum(gaps[-200:]) / 200
    assert late < early


def test_churn_out_of_range_rejected():
    with pytest.raises(ConfigError):
        Poisson(rate=0.01, churn=1.5)
    with pytest.raises(ConfigError):
        Poisson(rate=0.01, churn=-0.1)


def test_churned_plan_is_a_truncated_prefix():
    """Churn draws from a dedicated stream, so a churned session's plan is
    a prefix of the un-churned plan (never below one request)."""
    full = Poisson(rate=0.01, churn=0.0).plan(RngPool(3), "s", 50)
    truncated = None
    for seed in range(20):
        candidate = Poisson(rate=0.01, churn=0.95).plan(RngPool(seed), "s", 50)
        assert 1 <= len(candidate) <= 50
        full_same_seed = Poisson(rate=0.01).plan(RngPool(seed), "s", 50)
        assert candidate == full_same_seed[: len(candidate)]
        if len(candidate) < 50:
            truncated = candidate
    assert truncated is not None  # churn=0.95 truncated at least one seed
    assert len(full) == 50


# ---------------------------------------------------------------- determinism
def test_same_seed_gives_byte_identical_plans():
    a = Poisson(rate=0.005).plan(RngPool(0xC0FFEE), "incast-prod0", 200)
    b = Poisson(rate=0.005).plan(RngPool(0xC0FFEE), "incast-prod0", 200)
    assert a == b


def test_plans_are_independent_across_sessions():
    """Planning session A must not perturb session B's schedule — the
    property that makes multi-session workloads ``--jobs`` invariant."""
    pool = RngPool(5)
    proc = Poisson(rate=0.005)
    _ = proc.plan(pool, "a", 100)
    b_after_a = proc.plan(pool, "b", 100)
    b_alone = proc.plan(RngPool(5), "b", 100)
    assert b_after_a == b_alone


def test_different_sessions_get_different_schedules():
    proc = Poisson(rate=0.005)
    pool = RngPool(5)
    assert proc.plan(pool, "a", 50) != proc.plan(pool, "b", 50)


def test_labels_name_process_and_parameters():
    assert CLOSED_BATCH.label() == "closed()"
    assert Poisson(rate=0.01).label() == "poisson(rate=0.01)"
    assert "churn=0.5" in Poisson(rate=0.01, churn=0.5).label()
    assert "boost=4" in Bursty(rate=0.01).label()
    assert "period=200000" in DiurnalRamp().label()


# -------------------------------------------------------------- ArrivalSpec
def test_spec_sorts_params_and_builds():
    spec = ArrivalSpec.make("poisson", rate=0.01, churn=0.2)
    assert spec.params == (("churn", 0.2), ("rate", 0.01))
    proc = spec.build()
    assert isinstance(proc, Poisson)
    assert proc.rate == 0.01 and proc.churn == 0.2


def test_spec_pickles_across_process_boundary():
    spec = ArrivalSpec.make("bursty", rate=0.02, boost=2.0)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert isinstance(clone.build(), Bursty)


def test_resolve_arrival_normalizes_every_form():
    assert resolve_arrival(None) is CLOSED_BATCH
    proc = Poisson(rate=0.01)
    assert resolve_arrival(proc) is proc
    built = resolve_arrival(ArrivalSpec.make("poisson", rate=0.01))
    assert isinstance(built, Poisson)
    with pytest.raises(ConfigError):
        resolve_arrival("poisson")
