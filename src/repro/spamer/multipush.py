"""Confidence-gated multi-push speculation with misprediction rollback.

The paper's three delay algorithms decide *when* to push a single
anticipated message per specBuf entry (the ``on_fly`` throttle, Section
3.5).  This module borrows the acceptance-threshold idiom from speculative
decoding (``n_draft``/``n_min``/``p_min`` in llama.cpp's
``common_speculative_params``, and the draft/verify/rollback loop of
SPORK): when a per-queue acceptance estimator — an EWMA over confirmed
pops, seeded from the device's push precision counters — predicts the
consumer will keep up, the policy claims up to ``k`` *consecutive* specBuf
offsets of one entry and pushes a burst of ``k`` messages ahead.  ``k`` and
the gate ``p_min`` are ``SystemConfig.burst_k``/``p_min``; the SPAMeR device
builds this policy whenever ``burst_k > 1``, whatever its delay algorithm.

Burst protocol:

* The burst **head** behaves exactly like single-push SPAMeR: its fill is
  consumer-visible immediately, it sticky-retries its slot on a miss, and
  the inner delay algorithm learns only from head responses (so the
  cadence latches match single-push behaviour).
* **Followers** land *unconfirmed*: their cachelines hold data but are
  invisible to the consumer (``ConsumerLine.poppable`` is False) until
  every older claim of the burst has confirmed — this is what makes a
  consumer pop out of the predicted order structurally impossible.
* A follower **miss** while it is not yet the oldest claim means the burst
  overshot the consumer: that claim and every younger claim roll back.
  Landed lines are invalidated by a rollback packet charged real traversal
  cycles on the network (:class:`~repro.net.topology.PacketKind.COHERENCE`),
  the cancelled messages collect in a *pen*, and once the last doomed
  response and invalidation resolve the pen re-enters the front of the
  SQI's buffering queue in arrival order (FIFO preserved).

With ``burst_k == 1`` the policy degenerates to the base
:class:`~repro.spamer.policy.SpecBufSpeculation` walk bit-for-bit — no
follower claims, no estimator gates on the hot path, no extra events.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.topology import PacketKind
from repro.registry import ALGORITHMS
from repro.sim.hooks import HookBus, SpecBufHook, SpecDecisionHook
from repro.sim.transaction import TxnState
from repro.spamer.delay import DelayAlgorithm, TunedDelay
from repro.spamer.policy import SpecBufSpeculation
from repro.vlink.linktab import LinkRow, LinkTab
from repro.vlink.packets import ProdEntry
from repro.vlink.pipeline import SpecTarget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.cacheline import ConsumerLine
    from repro.sim.stats import Counter
    from repro.spamer.security import SecurityPolicy
    from repro.spamer.specbuf import SpecBuf, SpecEntry
    from repro.vlink.vlrd import VirtualLinkRoutingDevice


@ALGORITHMS.register("multipush")
class MultiPushDelay(TunedDelay):
    """The paper's ``tuned`` algorithm under the ``multipush`` label.

    Burst speculation is not a property of the algorithm: any SPAMeR
    setting bursts when ``SystemConfig.burst_k > 1`` (``p_min`` gates the
    follower claims).  This label names the burst runs of the sweeps and
    reports.
    """


#: EWMA weight of one confirm/rollback outcome in :class:`AcceptanceEstimator`.
ACCEPTANCE_ALPHA = 0.2


class AcceptanceEstimator:
    """Per-queue EWMA of burst-slot acceptance (confirm=1, rollback=0).

    Lazily seeded from the device's global push-precision counters
    (``spec_hits / spec_pushes``) so a warm queue starts from measured
    accuracy instead of blind optimism.
    """

    __slots__ = ("value", "seeded")

    def __init__(self) -> None:
        self.value = 1.0
        self.seeded = False

    def seed(self, pushes: int, hits: int) -> None:
        if self.seeded:
            return
        self.seeded = True
        if pushes > 0:
            self.value = hits / pushes

    def record(self, accepted: bool) -> None:
        self.seeded = True
        self.value += ACCEPTANCE_ALPHA * ((1.0 if accepted else 0.0) - self.value)


class BurstClaim:
    """One claimed specBuf offset within an in-progress burst."""

    __slots__ = ("entry", "line", "landed", "doomed")

    def __init__(self, entry: ProdEntry, line: "ConsumerLine") -> None:
        self.entry = entry
        self.line = line
        self.landed = False   # hit response processed while not yet oldest
        self.doomed = False   # cancelled by a rollback; resolves on response


class BurstState:
    """Per-specBuf-entry burst bookkeeping (claims, rollback pen)."""

    __slots__ = ("sqi", "claims", "by_entry", "pen", "draining",
                 "outstanding", "invalidations")

    def __init__(self, sqi: int) -> None:
        self.sqi = sqi
        #: Claims in predicted (arrival) order; claims[0] is the oldest.
        self.claims: Deque[BurstClaim] = deque()
        self.by_entry: Dict[int, BurstClaim] = {}
        #: Rolled-back messages awaiting re-injection, in arrival order.
        self.pen: List[ProdEntry] = []
        self.draining = False
        #: Doomed claims whose responses have not come back yet.
        self.outstanding = 0
        #: Rollback-invalidation packets still traversing the network.
        self.invalidations = 0


class MultiPushSpeculation(SpecBufSpeculation):
    """specBuf speculation extended with confidence-gated bursts."""

    def __init__(
        self,
        specbuf: "SpecBuf",
        algorithm: DelayAlgorithm,
        security: "SecurityPolicy",
        linktab: LinkTab,
        stats: "Counter",
        device: "VirtualLinkRoutingDevice",
        hooks: Optional[HookBus] = None,
    ) -> None:
        super().__init__(specbuf, algorithm, security, linktab, stats, hooks=hooks)
        #: Owning device — reached lazily for the pipeline (built after this
        #: policy) and the network (rollback packets pay real traversal).
        #: A weak proxy: the device owns this policy through its pipeline,
        #: so a strong reference back would leave every multi-push device
        #: a reference cycle after its run.
        self.device = weakref.proxy(device)
        self.burst_k = device.config.burst_k
        self.p_min = device.config.p_min
        self._bursts: Dict[int, BurstState] = {}
        self._estimators: Dict[int, AcceptanceEstimator] = {}

    # ------------------------------------------------------------------ helpers
    def estimator(self, sqi: int) -> AcceptanceEstimator:
        est = self._estimators.get(sqi)
        if est is None:
            est = self._estimators[sqi] = AcceptanceEstimator()
        if not est.seeded:
            est.seed(self.stats.get("spec_pushes"), self.stats.get("spec_hits"))
        return est

    # --------------------------------------------------------- speculation path
    def select(
        self, row: LinkRow, entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        """Base ring walk plus follower claims on busy entries we own."""
        if row.spec_head is None:
            return None
        start = self.specbuf.entry(row.spec_head)
        cursor = start
        while True:
            if not cursor.on_fly and self.security.speculation_allowed(cursor.endpoint):
                tick = self.algorithm.send_tick(cursor, now)
                if tick is not None:
                    cursor.on_fly = True
                    row.spec_head = cursor.next_index
                    burst = BurstState(cursor.sqi)
                    claim = BurstClaim(entry, cursor.target_line)
                    burst.claims.append(claim)
                    burst.by_entry[id(entry)] = claim
                    self._bursts[cursor.index] = burst
                    if SpecDecisionHook in self.hooks.wanted:
                        self.hooks.publish(
                            SpecDecisionHook(
                                tick=now,
                                sqi=entry.sqi,
                                entry_index=cursor.index,
                                algorithm=self.algorithm.name,
                                delay=max(tick, now) - now,
                            )
                        )
                    return SpecTarget(cursor.target_line, cursor.index, max(tick, now))
            elif cursor.on_fly:
                target = self._follower_target(cursor, entry, now)
                if target is not None:
                    return target
            cursor = self.specbuf.entry(cursor.next_index)
            if cursor is start:
                return None

    def _follower_target(
        self, cursor: "SpecEntry", entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        """Claim the next consecutive offset of an in-progress burst."""
        burst = self._bursts.get(cursor.index)
        if burst is None or burst.draining or not burst.claims:
            return None
        if len(burst.claims) >= min(self.burst_k, cursor.length):
            return None
        if self.estimator(cursor.sqi).value < self.p_min:
            return None
        line = cursor.endpoint.lines[
            (cursor.offset + len(burst.claims)) % cursor.length
        ]
        claim = BurstClaim(entry, line)
        burst.claims.append(claim)
        burst.by_entry[id(entry)] = claim
        if SpecDecisionHook in self.hooks.wanted:
            self.hooks.publish(
                SpecDecisionHook(
                    tick=now,
                    sqi=entry.sqi,
                    entry_index=cursor.index,
                    algorithm=self.algorithm.name,
                    delay=0,
                )
            )
        self.stats.counts["burst_claims"] += 1
        return SpecTarget(line, cursor.index, now, unconfirmed=True)

    # ---------------------------------------------------------------- responses
    def on_response(
        self, entry: ProdEntry, hit: bool, now: int
    ) -> Optional[str]:
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        burst = self._bursts.get(spec_entry.index)
        claim = burst.by_entry.get(id(entry)) if burst is not None else None
        if claim is None:
            # Not part of a tracked burst (defensive): base behaviour.
            super().on_response(entry, hit, now)
            return None
        if claim.doomed:
            # A cancelled claim's response came back; the device stamps
            # ROLLED_BACK and hands the entry to complete_rollback().
            burst.outstanding -= 1
            if SpecBufHook in self.hooks.wanted:
                self.hooks.publish(
                    SpecBufHook(tick=now, sqi=entry.sqi,
                                entry_index=spec_entry.index, hit=hit)
                )
            self.estimator(entry.sqi).record(False)
            return "rollback"
        if burst.claims[0] is claim:
            # Oldest claim: exactly the single-push response path — the
            # inner algorithm learns, a miss sticky-retries via retry().
            self.algorithm.on_response(spec_entry, hit, now)
            if SpecBufHook in self.hooks.wanted:
                self.hooks.publish(
                    SpecBufHook(tick=now, sqi=entry.sqi,
                                entry_index=spec_entry.index, hit=hit)
                )
            if hit:
                self._confirm_front(burst, spec_entry, now)
            return None
        if SpecBufHook in self.hooks.wanted:
            self.hooks.publish(
                SpecBufHook(tick=now, sqi=entry.sqi,
                            entry_index=spec_entry.index, hit=hit)
            )
        if hit:
            # Landed ahead of schedule; stays unconfirmed until every older
            # claim confirms (the consumer cannot pop it meanwhile).
            claim.landed = True
            return None
        # A follower missed while an older claim is still unresolved: the
        # burst overshot the consumer.  Cancel it and every younger claim.
        self._begin_rollback(burst, claim)
        self.estimator(entry.sqi).record(False)
        return "rollback"

    def retry(self, entry: ProdEntry, now: int) -> Optional[SpecTarget]:
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        burst = self._bursts.get(spec_entry.index)
        if burst is None or not burst.claims or burst.claims[0].entry is not entry:
            return super().retry(entry, now)
        # Once a claim is the oldest of its burst it is the next expected
        # delivery: redispatch confirmed so the fill is immediately poppable.
        entry.spec_unconfirmed = False
        target = super().retry(entry, now)
        if target is not None:
            return target
        if len(burst.claims) > 1 or burst.draining or burst.outstanding:
            # The inner algorithm refuses to retry, but younger claims
            # depend on this slot staying claimed (abandoning it would
            # orphan their unconfirmed fills).  Hold the claim and retry
            # immediately; the response round-trip paces the loop.
            spec_entry.on_fly = True
            return SpecTarget(spec_entry.target_line, spec_entry.index, now)
        # Solo claim abandoned (base semantics): drop the burst bookkeeping.
        burst.by_entry.pop(id(entry), None)
        burst.claims.clear()
        del self._bursts[spec_entry.index]
        return None

    # ----------------------------------------------------------------- confirm
    def _confirm_front(
        self, burst: BurstState, spec_entry: "SpecEntry", now: int
    ) -> None:
        """Pop the confirmed front claim and every landed successor."""
        est = self.estimator(burst.sqi)
        while True:
            claim = burst.claims.popleft()
            del burst.by_entry[id(claim.entry)]
            claim.line.confirm()
            spec_entry.advance_offset()
            claim.entry.spec_entry_index = None
            claim.entry.spec_unconfirmed = False
            est.record(True)
            self.stats.counts["burst_confirms"] += 1
            if not burst.claims or not burst.claims[0].landed:
                break
        self._maybe_finish(burst, spec_entry)

    def _maybe_finish(self, burst: BurstState, spec_entry: "SpecEntry") -> None:
        """Release the specBuf slot once the burst fully resolves."""
        if burst.claims or burst.draining or burst.outstanding or burst.pen:
            return
        del self._bursts[spec_entry.index]
        spec_entry.on_fly = False

    # ---------------------------------------------------------------- rollback
    def _begin_rollback(self, burst: BurstState, claim: BurstClaim) -> None:
        """Cancel *claim* and every younger claim of its burst.

        Younger claims are still in flight (responses come back in dispatch
        order), so they are doomed in place and resolve through the device's
        rollback verdict when their own responses arrive.
        """
        burst.draining = True
        idx = burst.claims.index(claim)
        while len(burst.claims) > idx + 1:
            doomed = burst.claims.pop()
            doomed.doomed = True
            burst.outstanding += 1
        burst.claims.pop()  # the triggering claim (resolves synchronously)

    def complete_rollback(self, entry: ProdEntry, hit: bool, now: int) -> None:
        """Device callback after a "rollback" verdict was stamped.

        Pens the cancelled message for FIFO re-injection; if its stash had
        landed, an invalidation packet is charged real traversal cycles on
        the network before the unconfirmed line is vacated.
        """
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        burst = self._bursts[spec_entry.index]
        claim = burst.by_entry.pop(id(entry))
        entry.spec_entry_index = None
        entry.spec_unconfirmed = False
        self.stats.counts["spec_rollbacks"] += 1
        if hit:
            # The stash filled claim.line (unconfirmed).  Invalidating it
            # costs a real network traversal — the wasted-push charge.
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
        burst.pen.append(entry)
        self._maybe_flush(burst, spec_entry)

    def _invalidated(
        self, invalidation: Tuple[BurstState, BurstClaim, "SpecEntry"]
    ) -> None:
        """The invalidation packet reached the consumer: vacate the line."""
        burst, claim, spec_entry = invalidation
        claim.line.rollback()
        burst.invalidations -= 1
        self._maybe_flush(burst, spec_entry)

    def _maybe_flush(self, burst: BurstState, spec_entry: "SpecEntry") -> None:
        """Re-inject the pen once the rollback has fully drained.

        The pen re-enters the *front* of the SQI's buffering queue in
        arrival order — older than everything buffered behind the burst —
        so per-producer FIFO survives the misprediction.
        """
        if burst.outstanding or burst.invalidations or not burst.draining:
            return
        pipeline = self.device.pipeline
        row = self.linktab.row(burst.sqi)
        pen, burst.pen = burst.pen, []
        for entry in reversed(pen):
            row.buffered_data.appendleft(entry)
        burst.draining = False
        now = self.device.env._now
        for entry in pen:
            txn = entry.message.txn
            if txn is not None:
                txn.stamp(TxnState.BUFFERED, now, "rollback")
        self._maybe_finish(burst, spec_entry)
        pipeline.kick(row)
