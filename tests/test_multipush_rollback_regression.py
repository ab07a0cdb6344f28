"""Mutation-kill pair for the multi-push rollback machinery.

In the style of :mod:`tests.test_sticky_slot_regression`: a positive
control proves the guarded path is actually exercised by the pinned
workload, then each hand-written mutant — a plausible "simplification" a
refactor might introduce — must be *detected* by the verification stack,
not silently absorbed:

* **skip-rollback-invalidation**: the invalidation packet arrives but the
  unconfirmed consumer line is never vacated.  The line can never become
  poppable, the consumer spins forever, and the run blows its cycle
  budget — the simulator, not a metric, reports the bug.

* **double-charge-network**: the rollback charges *two* invalidation
  traversals for one landed stash.  The second arrival finds the line
  already vacated and trips the cacheline guard (only a VALID unconfirmed
  burst fill may be rolled back) as a hard :class:`DeviceError`.

The pinned program is the deterministic doomed-claim-lands shape found by
parameter scan (see tests/test_multipush_semantics.py): zero compute on
both sides staggers follower fills against consumer pops, so rolled-back
claims land and must be invalidated over the network.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import DeviceError, SimulationError
from repro.eval.runner import setting_by_name
from repro.net import PacketKind
from repro.spamer.policy import SpecBufSpeculation
from repro.verify.fuzz import LinkSpec, ProgramSpec, run_fuzz_case

#: Deterministic doomed-claim-lands shape: 2 producers race into one
#: consumer with no compute anywhere, so burst followers land unconfirmed
#: and a pop out of predicted order dooms claims that already filled.
INVALIDATION = ProgramSpec(
    links=(LinkSpec(2, 1, 16),), producer_compute=0, consumer_compute=0
)
CONFIG = SystemConfig(num_cores=8, lines_per_endpoint=4, burst_k=4, p_min=0.0)
SETTING = setting_by_name("multipush")


def run_pinned(limit: int = 50_000_000):
    return run_fuzz_case(INVALIDATION, SETTING, config=CONFIG, limit=limit)


# ---------------------------------------------------------------- positive
def test_pinned_spec_exercises_the_invalidation_path():
    """Both mutated code paths must run, or the kills below prove nothing."""
    result = run_pinned()
    assert result.ok, result.mismatches() or result.violations
    stats = result.system.aggregate_device_stats()
    assert stats.get("spec_rollbacks") >= 1
    assert stats.get("rollback_invalidations") >= 1


# ------------------------------------------------------------------- kills
def test_skipping_line_rollback_on_invalidation_is_detected(monkeypatch):
    """Mutant: the invalidation arrives but never vacates the line.

    The stale unconfirmed fill blocks the consumer's line ring forever;
    the pinned program (healthy quiesce ~1.4k cycles) cannot finish inside
    a 300k-cycle budget.  Either detector — the stall watchdog
    (:class:`~repro.errors.SimDeadlockError`) or the kernel's run limit —
    is a kill; both derive from :class:`SimulationError`.
    """

    def skipping(self, invalidation):
        # BUG: claim.line.rollback() dropped — only the bookkeeping runs.
        burst, _claim, spec_entry = invalidation
        burst.invalidations -= 1
        self._maybe_flush(burst, spec_entry)

    monkeypatch.setattr(SpecBufSpeculation, "_invalidated", skipping)
    with pytest.raises(SimulationError):
        run_pinned(limit=300_000)


def test_double_charging_the_invalidation_network_is_detected(monkeypatch):
    """Mutant: one landed stash charged two invalidation traversals.

    The first arrival vacates the line; the second finds it EMPTY and the
    cacheline rollback guard raises instead of double-counting wasted-push
    bytes silently.
    """
    orig = SpecBufSpeculation.complete_rollback

    def double_charging(self, entry, hit, now):
        if hit:
            # BUG: a duplicate of the hit branch of complete_rollback —
            # the same stash dispatches a second invalidation transit.
            spec_entry = self.specbuf.entry(entry.spec_entry_index)
            burst = spec_entry.burst
            claim = burst.by_entry[id(entry)]
            burst.invalidations += 1
            network = self.device.network
            src = network.srd_nodes[self.device.srd_index]
            dst = network.core_nodes[claim.line.core_id]
            self.stats.counts["rollback_invalidations"] += 1
            network.transit_then(
                PacketKind.COHERENCE,
                self._invalidated,
                (burst, claim, spec_entry),
                src=src,
                dst=dst,
            )
        orig(self, entry, hit, now)

    monkeypatch.setattr(
        SpecBufSpeculation, "complete_rollback", double_charging
    )
    with pytest.raises(
        DeviceError, match="only unconfirmed burst fills may be rolled back"
    ):
        run_pinned()
