"""The SPAMeR speculation policy: the pluggable Stage-2 of the pipeline.

:class:`SpecBufSpeculation` packages everything Section 3.2 adds to the
mapping pipeline — the specBuf ring walk behind ``linkTab.specHead``, the
``on_fly`` throttle, the security gate, and the delay-prediction algorithm —
as a :class:`~repro.vlink.pipeline.SpeculationPolicy` the SPAMeR device
plugs into the shared :class:`~repro.vlink.pipeline.MappingPipeline`.  The
hit/miss feedback loop of Figure 6 lives here too, publishing a
:class:`~repro.sim.hooks.SpecBufHook` per response so instrumentation can
watch speculation accuracy without touching the device.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import RegistrationError
from repro.sim.hooks import HookBus, SpecBufHook, SpecDecisionHook
from repro.vlink.linktab import LinkRow, LinkTab
from repro.vlink.packets import ProdEntry
from repro.vlink.pipeline import SpecTarget, SpeculationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.stats import Counter
    from repro.spamer.delay import DelayAlgorithm
    from repro.spamer.security import SecurityPolicy
    from repro.spamer.specbuf import SpecBuf
    from repro.vlink.endpoint import ConsumerEndpoint


class SpecBufSpeculation(SpeculationPolicy):
    """specBuf + delay algorithm + security gate as one pipeline stage."""

    def __init__(
        self,
        specbuf: "SpecBuf",
        algorithm: "DelayAlgorithm",
        security: "SecurityPolicy",
        linktab: LinkTab,
        stats: "Counter",
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.specbuf = specbuf
        self.algorithm = algorithm
        self.security = security
        self.linktab = linktab
        self.stats = stats
        self.hooks = hooks if hooks is not None else HookBus()

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

    # --------------------------------------------------------- speculation path
    def select(
        self, row: LinkRow, entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        """Stage-2 specBuf lookup: pick an entry from the SQI's ring.

        Starting at ``specHead``, walk the ring for the first entry that is
        not throttled (``on_fly``) and whose endpoint is allowed to receive
        speculative pushes.  On a selection, ``specHead`` advances past the
        chosen entry (the Stage-3 writeback), so entries are used in turn.
        """
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
            cursor = self.specbuf.entry(cursor.next_index)
            if cursor is start:
                return None

    def on_response(self, entry: ProdEntry, hit: bool, now: int) -> None:
        """Feed the hit/miss response into the entry's latches (Figure 6)."""
        assert entry.spec_entry_index is not None
        spec_entry = self.specbuf.entry(entry.spec_entry_index)
        self.algorithm.on_response(spec_entry, hit, now)
        if SpecBufHook in self.hooks.wanted:
            self.hooks.publish(
                SpecBufHook(
                    tick=now, sqi=entry.sqi, entry_index=spec_entry.index, hit=hit
                )
            )
        if hit:
            spec_entry.on_fly = False
            spec_entry.advance_offset()
            entry.spec_entry_index = None
        # On a miss the packet keeps its claim: ``on_fly`` stays set and the
        # offset does not rotate, so the subsequent :meth:`retry` re-targets
        # the same slot and no younger packet can be selected past it.

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
        if tick is None:
            # The algorithm refuses to retry: release the claim and let the
            # device park the packet on the buffering queue instead.
            spec_entry.on_fly = False
            return None
        return SpecTarget(spec_entry.target_line, spec_entry.index, max(tick, now))
