"""Burst-semantics property battery for multi-push speculation.

Randomized producer/consumer programs under random (k, p_min, endpoint
line count) burst shapes must preserve every queue invariant the
single-push device guarantees:

* **per-producer FIFO** and **message conservation** — checked twice per
  run: live by :class:`~repro.verify.invariants.InvariantChecker` (which
  ``run_fuzz_case`` attaches) and post-hoc by the functional queue oracle
  diff;
* **cacheline conservation** — every fill is eventually popped or rolled
  back, never both (the checker's conservation + rollback rules);
* **specBuf claim/release balance** — at quiesce no burst bookkeeping
  survives: every claimed slot was confirmed or rolled back, every
  ``on_fly`` latch released, every rollback pen flushed.

Rollback interleavings are exercised both by the random programs (slow
consumers overflow their line rings, so follower claims miss and drain)
and by hand-picked regression specs with known-heavy rollback and
invalidation activity.  Cross-flavor agreement pins the burst device to
the canonical delivery streams of ``vl`` and single-push SPAMeR.

Follows the :mod:`tests.test_fuzz_semantics` idiom: the module skips
cleanly when Hypothesis is absent.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.eval.runner import multipush_setting, setting_by_name
from repro.spamer.multipush import MultiPushSpeculation
from repro.verify.fuzz import (
    FUZZ_CORES,
    HAVE_HYPOTHESIS,
    LinkSpec,
    ProgramSpec,
    run_fuzz_case,
    run_fuzz_differential,
)

if not HAVE_HYPOTHESIS:  # pragma: no cover - environment dependent
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.verify.fuzz import program_specs

BURST_PROFILE = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,  # fixed example sequence: deterministic in CI
    suppress_health_check=[HealthCheck.too_slow],
)


def burst_config(lines: int) -> SystemConfig:
    return SystemConfig(num_cores=FUZZ_CORES, lines_per_endpoint=lines)


def assert_burst_balance(system) -> None:
    """specBuf claim/release balance at quiesce.

    Every burst fully resolved (no claims, pens, outstanding dooms or
    in-flight invalidations), every ``on_fly`` latch released, and the
    counters satisfy the resolution identities: only follower claims roll
    back, and every follower claim ends confirmed or rolled back.
    """
    stats = system.aggregate_device_stats()
    for device in system.devices:
        policy = device.pipeline.speculation
        if not isinstance(policy, MultiPushSpeculation):
            continue
        assert policy._bursts == {}, (
            "unresolved bursts at quiesce: "
            f"{ {i: vars(b) for i, b in policy._bursts.items()} }"
        )
        assert device.specbuf.on_fly_count() == 0
    claims = stats.get("burst_claims")
    confirms = stats.get("burst_confirms")
    rollbacks = stats.get("spec_rollbacks")
    invalidations = stats.get("rollback_invalidations")
    assert rollbacks <= claims, "a burst head can never roll back"
    assert invalidations <= rollbacks
    assert confirms + rollbacks >= claims, (
        "a follower claim neither confirmed nor rolled back"
    )


# ------------------------------------------------------------------ properties
@given(
    spec=program_specs(),
    burst_k=st.integers(min_value=1, max_value=4),
    p_min=st.sampled_from([0.0, 0.5, 0.9]),
    lines=st.integers(min_value=2, max_value=6),
)
@BURST_PROFILE
def test_multipush_fuzz_holds_all_invariants(spec, burst_k, p_min, lines):
    """Checker + oracle + claim balance on random burst interleavings."""
    result = run_fuzz_case(
        spec, multipush_setting(burst_k, p_min), config=burst_config(lines)
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)


@given(spec=program_specs(), burst_k=st.integers(min_value=2, max_value=4))
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_multipush_agrees_with_every_other_flavor(spec, burst_k):
    """vl, single-push SPAMeR and the burst device deliver one stream."""
    mismatches = run_fuzz_differential(
        spec,
        [
            setting_by_name("vl"),
            setting_by_name("0delay"),
            setting_by_name("tuned"),
            multipush_setting(burst_k, 0.0),
        ],
        config=burst_config(4),
    )
    assert not mismatches, "\n".join(mismatches)


@given(spec=program_specs())
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_multipush_k1_matches_single_push_stream(spec):
    """k=1 is the degenerate case: the tuned stream, event for event."""
    mismatches = run_fuzz_differential(
        spec,
        [setting_by_name("tuned"), multipush_setting(1, 0.75)],
        config=burst_config(2),
    )
    assert not mismatches, "\n".join(mismatches)


# ------------------------------------------------------------- regressions
#: Hand-picked burst shapes with known semantics coverage (found by a
#: parameter scan): ROLLBACK_HEAVY drains hundreds of overshot claims
#: through the pen; INVALIDATION exercises the rare doomed-claim-landed
#: path where a rolled-back stash must be invalidated over the network.
ROLLBACK_HEAVY = ProgramSpec(
    links=(LinkSpec(2, 1, 16),), producer_compute=0, consumer_compute=400
)
INVALIDATION = ProgramSpec(
    links=(LinkSpec(2, 1, 16),), producer_compute=0, consumer_compute=0
)


@pytest.mark.parametrize("burst_k", [2, 4])
def test_rollback_heavy_burst_stays_clean(burst_k):
    result = run_fuzz_case(
        ROLLBACK_HEAVY, multipush_setting(burst_k, 0.0),
        config=burst_config(4),
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)
    stats = result.system.aggregate_device_stats()
    assert stats.get("spec_rollbacks") > 50, "spec no longer rollback-heavy"


def test_doomed_claim_invalidation_path_is_exercised():
    result = run_fuzz_case(
        INVALIDATION, multipush_setting(4, 0.0), config=burst_config(4)
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)
    stats = result.system.aggregate_device_stats()
    assert stats.get("rollback_invalidations") >= 1, (
        "spec no longer reaches the landed-then-doomed invalidation path"
    )


@pytest.mark.parametrize("p_min", [0.0, 0.75, 1.0])
def test_acceptance_gate_bounds_burst_width(p_min):
    """p_min=1.0 can only gate bursts off (EWMA<1 after any rollback)."""
    result = run_fuzz_case(
        ROLLBACK_HEAVY, multipush_setting(4, p_min), config=burst_config(4)
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)
