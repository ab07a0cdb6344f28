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
the canonical delivery streams of ``vl`` and single-push SPAMeR: the burst
participant runs on its own ``burst_k`` config, and ``vl``, which ignores
``burst_k``, runs on both configs and anchors the two differentials.

Follows the :mod:`tests.test_fuzz_semantics` idiom: the module skips
cleanly when Hypothesis is absent.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.eval.runner import setting_by_name
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


MULTIPUSH = setting_by_name("multipush")


def burst_config(lines: int, **burst) -> SystemConfig:
    """*burst* sets ``burst_k``/``p_min``; the defaults are single-push."""
    return SystemConfig(num_cores=FUZZ_CORES, lines_per_endpoint=lines, **burst)


def assert_burst_balance(system) -> None:
    """specBuf claim/release balance at quiesce.

    Every burst fully resolved (no claims, pens, outstanding dooms or
    in-flight invalidations), every ``on_fly`` latch released, and the
    counters satisfy the resolution identities: only follower claims roll
    back, and every follower claim ends confirmed or rolled back.
    """
    stats = system.aggregate_device_stats()
    for device in system.devices:
        if not device.supports_speculation:
            continue
        bursts = {e.index: e.burst for e in device.specbuf.entries
                  if e.burst is not None}
        assert bursts == {}, (
            "unresolved bursts at quiesce: "
            f"{ {i: vars(b) for i, b in bursts.items()} }"
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
    """Checker + oracle + claim balance on random burst interleavings
    (k=1 examples are single push: bursts of one head)."""
    result = run_fuzz_case(
        spec, MULTIPUSH,
        config=burst_config(lines, burst_k=burst_k, p_min=p_min),
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)


@given(spec=program_specs(), burst_k=st.integers(min_value=2, max_value=4))
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_multipush_agrees_with_every_other_flavor(spec, burst_k):
    """vl, single-push SPAMeR and the burst device deliver one stream."""
    vl = setting_by_name("vl")
    mismatches = run_fuzz_differential(
        spec,
        [vl, setting_by_name("0delay"), setting_by_name("tuned")],
        config=burst_config(4),
    ) + run_fuzz_differential(
        spec, [vl, MULTIPUSH], config=burst_config(4, burst_k=burst_k, p_min=0.0)
    )
    assert not mismatches, "\n".join(mismatches)


@given(spec=program_specs())
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_multipush_k1_matches_single_push_stream(spec):
    """k=1 is the degenerate case: the tuned stream, event for event."""
    mismatches = run_fuzz_differential(
        spec,
        [setting_by_name("tuned"), MULTIPUSH],
        config=burst_config(2, p_min=0.75),
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
        ROLLBACK_HEAVY, MULTIPUSH,
        config=burst_config(4, burst_k=burst_k, p_min=0.0),
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)
    stats = result.system.aggregate_device_stats()
    assert stats.get("spec_rollbacks") > 50, "spec no longer rollback-heavy"


def test_doomed_claim_invalidation_path_is_exercised():
    result = run_fuzz_case(
        INVALIDATION, MULTIPUSH, config=burst_config(4, burst_k=4, p_min=0.0)
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
        ROLLBACK_HEAVY, MULTIPUSH, config=burst_config(4, burst_k=4, p_min=p_min)
    )
    assert result.ok, result.mismatches() or result.violations
    assert_burst_balance(result.system)
