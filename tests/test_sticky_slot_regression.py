"""Regression pin for the sticky-slot retry fix (per-producer FIFO).

A missed speculative push keeps its claim: ``on_fly`` stays set, the
specBuf offset does not rotate, and the retry re-targets the *same* line
(:meth:`~repro.spamer.policy.SpecBufSpeculation.on_response` /
:meth:`~repro.spamer.policy.SpecBufSpeculation.retry`).  That stickiness is
what preserves per-producer FIFO delivery across mis-speculations: if a
miss released the slot, a younger packet could be pushed into it and
delivered first.

The positive half runs seeded incast/firewall matrices with the live
invariant checker attached and real misses forced (``spec_failures > 0``),
asserting per-producer FIFO survives every missed-push retry.  The
negative half shows the stickiness is load-bearing from two directions:
re-applying the pre-fix policy as a mutation, and refusing retries so the
packet takes the release→requeue path instead — both must trip the
checker, so the tests fail if the fix regresses *and* if the checker
stops being able to see it.
"""

import pytest

from repro.errors import VerificationError
from repro.eval.runner import Setting, run_workload, setting_by_name
from repro.spamer.delay import ZeroDelay
from repro.spamer.policy import SpecBufSpeculation

SCALE = 0.05
SEED = 0xC0FFEE
MATRIX = [("incast", "0delay"), ("incast", "tuned"),
          ("firewall", "0delay"), ("firewall", "tuned")]


@pytest.mark.parametrize("workload,setting", MATRIX)
def test_fifo_survives_missed_push_retries(workload, setting):
    """Sticky retries actually happen and FIFO order holds throughout."""
    metrics = run_workload(
        workload, setting_by_name(setting), scale=SCALE, seed=SEED, verify=True
    )
    assert metrics.spec_failures > 0  # the miss path was really exercised
    assert metrics.messages_delivered == metrics.messages_produced


class RefuseEveryOtherRetry(ZeroDelay):
    """0delay, but refuses every second decision on a just-missed entry.

    A ``None`` from :meth:`send_tick` inside :meth:`SpecBufSpeculation.retry`
    releases the claim and sends the packet back through the mapping
    pipeline — the release→requeue escape hatch.  Refusing
    deterministically (no wall clock, no RNG) keeps the run
    seeded-reproducible.
    """

    name = "0delay-refuse"

    def __init__(self) -> None:
        self._decisions = 0

    def send_tick(self, entry, now):
        if entry.failed:
            self._decisions += 1
            if self._decisions % 2:
                return None
        return now


@pytest.mark.parametrize("workload", ["incast", "firewall"])
def test_refused_retries_lose_fifo(workload):
    """The sticky retry is load-bearing: an algorithm that refuses retries
    sends missed packets down the release→requeue path, where a younger
    packet can claim the freed slot and overtake — the checker must see
    the same out-of-order deliveries the pre-fix mutation causes.  (This
    is why every stock algorithm always accepts a retry.)"""
    setting = Setting("SPAMeR(refuse)", "spamer", RefuseEveryOtherRetry)
    with pytest.raises(VerificationError, match="out-of-order"):
        run_workload(workload, setting, scale=SCALE, seed=SEED, verify=True)


def _apply_prefix_mutation(monkeypatch):
    """Re-introduce the pre-fix behaviour: a miss releases the slot
    immediately and the retry hook gives up, so the packet re-enters the
    pipeline while a younger packet can claim its slot.
    :class:`SpecBufSpeculation` is the one policy at every ``burst_k``,
    so the patch reaches every SPAMeR device, burst or not."""

    def on_response(self, entry, hit, now):
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        self.algorithm.on_response(spec_entry, hit, now)
        spec_entry.on_fly = False
        if hit:
            spec_entry.advance_offset()
        entry.spec_entry_index = None

    monkeypatch.setattr(SpecBufSpeculation, "on_response", on_response)
    monkeypatch.setattr(
        SpecBufSpeculation, "retry", lambda self, entry, now: None
    )


@pytest.mark.parametrize("workload", ["incast", "firewall"])
def test_prefix_mutation_breaks_fifo(monkeypatch, workload):
    """Mutation kill: without the sticky slot the checker must trip."""
    _apply_prefix_mutation(monkeypatch)
    with pytest.raises(VerificationError, match="out-of-order"):
        run_workload(workload, setting_by_name("0delay"), scale=SCALE,
                     seed=SEED, verify=True)
