"""The SPAMeR speculation policy: the pluggable Stage-2 of the pipeline.

:class:`SpecBufSpeculation` packages everything Section 3.2 adds to the
mapping pipeline — the specBuf ring walk behind ``linkTab.specHead``, the
``on_fly`` throttle, the security gate, and the delay-prediction algorithm —
as a :class:`~repro.vlink.pipeline.SpeculationPolicy` the SPAMeR device
plugs into the shared :class:`~repro.vlink.pipeline.MappingPipeline`.  The
hit/miss feedback loop of Figure 6 lives here too, publishing a
:class:`~repro.sim.hooks.SpecBufHook` per response so instrumentation can
watch speculation accuracy without touching the device.

Single push is the burst policy at ``burst_k = 1``.  With
``SystemConfig.burst_k > 1`` the same ring walk lets an ``on_fly`` entry
take the packet as a *follower* on the next consecutive offset
(:mod:`repro.spamer.multipush` describes the burst protocol and its
rollback).  The burst bookkeeping hangs off the
:class:`~repro.spamer.specbuf.SpecEntry` and is built only when the first
follower is claimed, so a single-push run allocates none of it.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import RegistrationError
from repro.net.topology import PacketKind
from repro.sim.hooks import HookBus, SpecBufHook, SpecDecisionHook
from repro.sim.transaction import TxnState
from repro.spamer.multipush import AcceptanceEstimator, BurstClaim, BurstState
from repro.vlink.linktab import LinkRow, LinkTab
from repro.vlink.packets import ProdEntry
from repro.vlink.pipeline import SpecTarget, SpeculationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.stats import Counter
    from repro.spamer.delay import DelayAlgorithm
    from repro.spamer.security import SecurityPolicy
    from repro.spamer.specbuf import SpecBuf, SpecEntry
    from repro.vlink.endpoint import ConsumerEndpoint
    from repro.vlink.vlrd import VirtualLinkRoutingDevice


class SpecBufSpeculation(SpeculationPolicy):
    """specBuf + delay algorithm + security gate as one pipeline stage."""

    def __init__(
        self,
        specbuf: "SpecBuf",
        algorithm: "DelayAlgorithm",
        security: "SecurityPolicy",
        linktab: LinkTab,
        stats: "Counter",
        device: "VirtualLinkRoutingDevice",
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.specbuf = specbuf
        self.algorithm = algorithm
        self.security = security
        self.linktab = linktab
        self.stats = stats
        self.hooks = hooks if hooks is not None else HookBus()
        #: Owning device — reached lazily for the pipeline (built after this
        #: policy) and the network (rollback packets pay real traversal).
        #: A weak proxy: the device owns this policy through its pipeline,
        #: so a strong reference back would leave every SPAMeR device a
        #: reference cycle after its run.
        self.device = weakref.proxy(device)
        self.burst_k = device.config.burst_k
        self.p_min = device.config.p_min
        self._estimators: Dict[int, AcceptanceEstimator] = {}

    # ------------------------------------------------------------- registration
    def register(self, endpoint: "ConsumerEndpoint") -> None:
        """Handle ``spamer_register`` stores for *endpoint* (Section 3.3).

        The library issues one register per consumer endpoint, covering all
        its cachelines; the policy allocates a specBuf entry, links it into
        the SQI's ring, and seeds ``linkTab.specHead`` for the SQI.
        """
        if not endpoint.spec_enabled:
            raise RegistrationError(
                f"{endpoint!r} was opened as a legacy (non-speculative) endpoint"
            )
        self.security.check_registration(endpoint)
        self.specbuf.register(endpoint)
        row = self.linktab.row(endpoint.sqi)
        if row.spec_head is None:
            head = self.specbuf.ring_head(endpoint.sqi)
            assert head is not None
            row.spec_head = head.index
        self.stats.counts["spec_registrations"] += 1

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
        """Stage-2 specBuf lookup: pick an entry from the SQI's ring.

        Starting at ``specHead``, walk the ring for the first entry that is
        not throttled (``on_fly``) and whose endpoint is allowed to receive
        speculative pushes.  On a selection, ``specHead`` advances past the
        chosen entry (the Stage-3 writeback), so entries are used in turn,
        and *entry* becomes the chosen entry's burst head.  With
        ``burst_k > 1`` an ``on_fly`` entry on the way may instead take
        *entry* as a follower (:meth:`_follower_target`).
        """
        if row.spec_head is None:
            return None
        start = self.specbuf.entry(row.spec_head)
        cursor = start
        while True:
            if not cursor.on_fly:
                if self.security.speculation_allowed(cursor.endpoint):
                    tick = self.algorithm.send_tick(cursor, now)
                    if tick is not None:
                        cursor.on_fly = True
                        cursor.head = entry
                        row.spec_head = cursor.next_index
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
                        return SpecTarget(
                            cursor.target_line, cursor.index, max(tick, now)
                        )
            elif self.burst_k > 1:
                target = self._follower_target(cursor, entry, now)
                if target is not None:
                    return target
            cursor = self.specbuf.entry(cursor.next_index)
            if cursor is start:
                return None

    def _follower_target(
        self, cursor: "SpecEntry", entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        """Claim the next consecutive offset of *cursor*'s burst for *entry*.

        The first follower turns the lone head push into a burst: only then
        are the :class:`BurstState` and the head's claim built.
        """
        burst = cursor.burst
        if burst is None:
            claimed = 1
        elif burst.draining or not burst.claims:
            return None
        else:
            claimed = len(burst.claims)
        if claimed >= min(self.burst_k, cursor.length):
            return None
        if self.estimator(cursor.sqi).value < self.p_min:
            return None
        if burst is None:
            burst = cursor.burst = BurstState(cursor.sqi)
            burst.claim(cursor.head, cursor.target_line)
        line = cursor.endpoint.lines[(cursor.offset + claimed) % cursor.length]
        burst.claim(entry, line)
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
        """Feed the hit/miss response into the entry's latches (Figure 6).

        The oldest push of an entry — the head, or the oldest claim of a
        burst — teaches the delay algorithm and confirms on a hit.  Younger
        burst claims go to :meth:`_follower_response`, which returns the
        ``"rollback"`` verdict when the burst overshot the consumer.
        """
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        burst = spec_entry.burst
        if burst is not None:
            claim = burst.by_entry[id(entry)]
            if not burst.claims or burst.claims[0] is not claim:
                return self._follower_response(burst, claim, spec_entry, hit, now)
        self.algorithm.on_response(spec_entry, hit, now)
        if SpecBufHook in self.hooks.wanted:
            self.hooks.publish(
                SpecBufHook(
                    tick=now, sqi=entry.sqi, entry_index=spec_entry.index, hit=hit
                )
            )
        if not hit:
            # On a miss the packet keeps its claim: ``on_fly`` stays set and
            # the offset does not rotate, so the subsequent :meth:`retry`
            # re-targets the same slot and no younger packet can be
            # selected past it.
            return None
        if burst is not None:
            self._confirm_front(burst, spec_entry)
            return None
        spec_entry.on_fly = False
        spec_entry.advance_offset()
        entry.spec_entry_index = None
        if self.burst_k > 1:
            # A head confirmed without followers is a burst of one.
            self.estimator(spec_entry.sqi).record(True)
            self.stats.counts["burst_confirms"] += 1
        return None

    def _follower_response(
        self,
        burst: BurstState,
        claim: BurstClaim,
        spec_entry: "SpecEntry",
        hit: bool,
        now: int,
    ) -> Optional[str]:
        """A response for a burst claim that is not the oldest."""
        if SpecBufHook in self.hooks.wanted:
            self.hooks.publish(
                SpecBufHook(tick=now, sqi=burst.sqi,
                            entry_index=spec_entry.index, hit=hit)
            )
        if claim.doomed:
            # A cancelled claim's response came back; the device stamps
            # ROLLED_BACK and hands the entry to complete_rollback().
            burst.outstanding -= 1
        elif hit:
            # Landed ahead of schedule; stays unconfirmed until every older
            # claim confirms (the consumer cannot pop it meanwhile).
            claim.landed = True
            return None
        else:
            # A follower missed while an older claim is still unresolved:
            # the burst overshot the consumer.  Cancel it and every younger
            # claim.
            self._begin_rollback(burst, claim)
        self.estimator(burst.sqi).record(False)
        return "rollback"

    def retry(self, entry: ProdEntry, now: int) -> Optional[SpecTarget]:
        """Sticky-slot retry for a missed speculative push (Section 3.5).

        Offsets rotate only on hits, so every packet occupies ring slots in
        strict arrival order; retrying the *same* target line (rather than
        re-walking the ring from ``specHead``) preserves per-producer FIFO
        delivery across mis-speculations.  The delay algorithm — which just
        learned the miss in :meth:`on_response` — decides the backoff.
        """
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        burst = spec_entry.burst
        if burst is not None:
            # The oldest claim of a burst is the next expected delivery:
            # redispatch it confirmed so the fill is immediately poppable.
            entry.spec_unconfirmed = False
        tick = self.algorithm.send_tick(spec_entry, now)
        if SpecDecisionHook in self.hooks.wanted:
            self.hooks.publish(
                SpecDecisionHook(
                    tick=now,
                    sqi=entry.sqi,
                    entry_index=spec_entry.index,
                    algorithm=self.algorithm.name,
                    delay=-1 if tick is None else max(tick, now) - now,
                    retry=True,
                )
            )
        if tick is not None:
            return SpecTarget(spec_entry.target_line, spec_entry.index, max(tick, now))
        if burst is not None:
            if len(burst.claims) > 1 or burst.draining or burst.outstanding:
                # Younger claims depend on this slot staying claimed
                # (abandoning it would orphan their unconfirmed fills).
                # Hold the claim and retry immediately; the response
                # round-trip paces the loop.
                return SpecTarget(spec_entry.target_line, spec_entry.index, now)
            spec_entry.burst = None
        # The algorithm refuses to retry: release the claim and let the
        # device park the packet on the buffering queue instead.
        spec_entry.on_fly = False
        return None

    # ----------------------------------------------------------------- confirm
    def _confirm_front(self, burst: BurstState, spec_entry: "SpecEntry") -> None:
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
        spec_entry.burst = None
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
        burst = spec_entry.burst
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
