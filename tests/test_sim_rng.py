"""Unit and property tests for deterministic randomness and bithash."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngPool, bithash


def test_same_seed_same_stream():
    a = RngPool(42).stream("x").integers(0, 1000, 10)
    b = RngPool(42).stream("x").integers(0, 1000, 10)
    assert list(a) == list(b)


def test_different_names_are_independent():
    pool = RngPool(42)
    a = list(pool.stream("a").integers(0, 1000, 10))
    b = list(pool.stream("b").integers(0, 1000, 10))
    assert a != b


def test_stream_is_cached():
    pool = RngPool(7)
    assert pool.stream("x") is pool.stream("x")


def test_adding_streams_does_not_perturb_existing():
    pool1 = RngPool(9)
    s1 = pool1.stream("thread-0")
    first_draw_alone = s1.integers(0, 10**9)

    pool2 = RngPool(9)
    pool2.stream("thread-1")  # created first this time
    s2 = pool2.stream("thread-0")
    assert s2.integers(0, 10**9) == first_draw_alone


@given(
    base=st.integers(min_value=1, max_value=100_000),
    fraction=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=100, deadline=None)
def test_jitter_stays_in_bounds(base, fraction):
    pool = RngPool(1)
    value = pool.jitter("j", base, fraction)
    assert value >= 1
    assert base * (1 - fraction) - 1 <= value <= base * (1 + fraction) + 1


def test_jitter_zero_fraction_is_exact():
    assert RngPool(1).jitter("j", 500, 0.0) == 500


def test_jitter_negative_fraction_rejected():
    with pytest.raises(ValueError):
        RngPool(1).jitter("j", 100, -0.1)


@given(
    value=st.integers(min_value=0, max_value=2**31),
    tsc=st.integers(min_value=0, max_value=2**40),
    bits=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_bithash_range(value, tsc, bits):
    """Property: shift amount is in [1, 2**bits) so delay strictly shrinks."""
    shift = bithash(value, tsc, bits=bits)
    assert 1 <= shift < max(2, 1 << bits)


def test_bithash_is_deterministic():
    assert bithash(1000, 12345) == bithash(1000, 12345)


def test_bithash_varies_with_tsc():
    values = {bithash(1 << 12, t) for t in range(64)}
    assert len(values) > 1  # the obfuscation actually varies


# ------------------------------------------------------------ jitter exactness
def _uniform_jitter(rng, base, fraction):
    """The reference draw: ``Generator.uniform`` with the jitter rounding."""
    lo = base * (1.0 - fraction)
    hi = base * (1.0 + fraction)
    return max(1, int(round(rng.uniform(lo, hi))))


@pytest.fixture(scope="module")
def workload_jitter_calls():
    """Every ``(seed, stream, base, fraction) -> cycles`` draw the Table-2
    workloads make, in call order, recorded on one small run each."""
    from repro.eval.runner import run_workload, setting_by_name
    from repro.workloads.registry import workload_names

    calls = []
    original = RngPool.jitter

    def recording(pool, name, base, fraction):
        value = original(pool, name, base, fraction)
        calls.append((pool.master_seed, name, base, fraction, value))
        return value

    RngPool.jitter = recording
    try:
        for name in workload_names():
            run_workload(name, setting_by_name("vl"), scale=0.02)
    finally:
        RngPool.jitter = original
    return calls


def test_jitter_equals_uniform_on_every_workload_draw(workload_jitter_calls):
    calls = workload_jitter_calls
    pairs = {(base, fraction) for _, _, base, fraction, _ in calls}
    # the 19 compute-step sites of the workloads draw 17 distinct ranges
    assert len(pairs) == 17
    pools = {}
    for seed, name, base, fraction, value in calls:
        pool = pools.setdefault(seed, RngPool(seed))
        assert value == _uniform_jitter(pool.stream(name), base, fraction)


def test_jitter_equals_uniform_on_the_workload_ranges(workload_jitter_calls):
    pairs = sorted({(b, f) for _, _, b, f, _ in workload_jitter_calls})
    # past 2**52 a draw's last bit survives the rounding
    pairs += [(1, 0.9), (7, 0.5), (2**20, 0.25), (2**52, 0.5)]
    for index, (base, fraction) in enumerate(pairs):
        pool, reference = RngPool(index), RngPool(index)
        stream = reference.stream("compute:t")
        for _ in range(500):
            assert pool.jitter("compute:t", base, fraction) == _uniform_jitter(
                stream, base, fraction
            )


def test_jitter_shares_the_stream_state_with_the_generator():
    # A raw draw advances the same bit generator a Generator draw does, so
    # interleaving the two keeps one sequence.
    pool, reference = RngPool(3), RngPool(3)
    stream, mirror = pool.stream("s"), reference.stream("s")
    for _ in range(100):
        assert pool.jitter("s", 500, 0.1) == _uniform_jitter(mirror, 500, 0.1)
        assert stream.integers(0, 10**9) == mirror.integers(0, 10**9)


def test_jitter_zero_and_negative_fraction_draw_nothing():
    pool = RngPool(5)
    assert pool.jitter("s", 500, 0.0) == 500
    assert pool.jitter("s", 0, 0.0) == 1
    with pytest.raises(ValueError):
        pool.jitter("s", 500, -0.05)
    # neither call consumed a draw from the stream
    assert pool.jitter("s", 500, 0.1) == _uniform_jitter(
        RngPool(5).stream("s"), 500, 0.1
    )


def test_compute_steps_are_plain_ints():
    from repro.cpu.thread import ThreadContext
    from repro.system import System

    assert not hasattr(ThreadContext, "compute_jittered")
    system = System()
    ctx = ThreadContext(system, system.cores[0], "t")
    assert ctx.compute(25) == 25
    step = ctx.jittered(400, 0.1)
    assert type(step) is int
    reference = RngPool(system.rng.master_seed).stream("compute:t")
    assert step == _uniform_jitter(reference, 400, 0.1)
