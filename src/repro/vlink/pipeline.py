"""The three-stage address-mapping pipeline (Section 3.1, Figures 4–5).

:class:`MappingPipeline` is the heart of every routing device: it pairs
producer packets with consumer targets on the same SQI.  Stage 1 reads the
SQI's linkTab row, Stage 2 looks for a target — a pending consumer request
first, else a speculation candidate from the pluggable
:class:`SpeculationPolicy` — and Stage 3 either hands the packet to the
device's dispatch path (the stash send) or parks it on the SQI's buffering
queue.

The speculation path is a *policy stage*, not a subclass override: the
baseline device runs :class:`NullSpeculation` (never speculates, rejects
``spamer_register``), while the SPAMeR device plugs in
:class:`repro.spamer.policy.SpecBufSpeculation`.  New devices compose a
pipeline with their own policy instead of monkeying with the device class.

The pipeline stamps each packet's :class:`~repro.sim.transaction.
TransactionRecord` when it has one (MAPPED / BUFFERED / MATCHED /
COALESCED): a packet carries a record only when a
:class:`~repro.sim.hooks.TransactionHook` subscriber was on the bus at
its birth, and the record publishes its own stamps.  The pipeline also
publishes trace moments onto the hook bus; it schedules
only the stage-latency delays the monolithic device used to (as
event-free :meth:`~repro.sim.kernel.Environment.call_later` entries under
the same queue keys), so refactored runs are bit-identical to the
pre-pipeline ones.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import RegistrationError
from repro.mem.cacheline import ConsumerLine
from repro.sim.hooks import EventKind, HookBus, TraceHook
from repro.sim.transaction import TxnState
from repro.vlink.linktab import LinkRow, LinkTab
from repro.vlink.packets import ConsRequest, ProdEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.kernel import Environment
    from repro.sim.stats import Counter
    from repro.vlink.endpoint import ConsumerEndpoint


class SpecTarget:
    """A speculation decision: where and when to push.

    ``unconfirmed`` marks a non-head member of a speculative burst
    (multi-push): its stash lands invisible to the consumer until the
    burst head confirms, or is rolled back on a misprediction.
    """

    __slots__ = ("line", "entry_index", "send_tick", "unconfirmed")

    def __init__(
        self,
        line: ConsumerLine,
        entry_index: int,
        send_tick: int,
        unconfirmed: bool = False,
    ) -> None:
        self.line = line
        self.entry_index = entry_index
        self.send_tick = send_tick
        self.unconfirmed = unconfirmed


class SpeculationPolicy:
    """Pluggable Stage-2 speculation stage of the mapping pipeline.

    Implementations decide *whether/where/when* to push without a consumer
    request (:meth:`select`), learn from the hit/miss responses of their
    decisions (:meth:`on_response`), and manage target registration
    (:meth:`register`).
    """

    def select(
        self, row: LinkRow, entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        """Pick a speculative target for *entry*, or None to buffer it."""
        raise NotImplementedError

    def on_response(self, entry: ProdEntry, hit: bool, now: int) -> Optional[str]:
        """Feed a speculative push's hit/miss response back into the policy.

        Returns None for the standard hit/miss handling, or the verdict
        ``"rollback"`` when the policy cancels the push (burst
        misprediction): the device then stamps the packet ROLLED_BACK,
        charges it as a failure, and hands it to :meth:`complete_rollback`
        instead of releasing/retrying it.
        """
        raise NotImplementedError

    def complete_rollback(self, entry: ProdEntry, hit: bool, now: int) -> None:
        """Finish a push cancelled by a ``"rollback"`` verdict.

        Only called after :meth:`on_response` returned ``"rollback"``; the
        policy owns the packet's continuation (invalidation, re-injection).
        """
        raise NotImplementedError

    def retry(self, entry: ProdEntry, now: int) -> Optional[SpecTarget]:
        """Sticky-slot retry target for a missed speculative push.

        Returning a target keeps the packet on its already-assigned slot
        (FIFO preservation); returning None releases the claim and the
        device falls back to the generic Figure-5 requeue.
        """
        return None

    def register(self, endpoint: "ConsumerEndpoint") -> None:
        """Handle a ``spamer_register`` store for *endpoint*."""
        raise NotImplementedError


class NullSpeculation(SpeculationPolicy):
    """The baseline policy: never speculate, reject registrations."""

    def select(
        self, row: LinkRow, entry: ProdEntry, now: int
    ) -> Optional[SpecTarget]:
        return None

    def on_response(self, entry: ProdEntry, hit: bool, now: int) -> None:
        raise RegistrationError("VLRD received a speculative push response")

    def register(self, endpoint: "ConsumerEndpoint") -> None:
        raise RegistrationError(
            "spamer_register executed against a baseline VLRD; build the "
            "system with SpamerRoutingDevice to use speculative pushes"
        )


class MappingPipeline:
    """The shared 3-stage mapping machinery, policy-parameterized."""

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        linktab: LinkTab,
        stats: "Counter",
        speculation: SpeculationPolicy,
        dispatch: Callable[[ProdEntry, ConsumerLine, bool], None],
        hooks: Optional[HookBus] = None,
        stage_latency: Optional[int] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.linktab = linktab
        self.stats = stats
        self.speculation = speculation
        #: Stage-3 exit: the owning device's stash-send path.
        self._dispatch = dispatch
        self.hooks = hooks if hooks is not None else HookBus()
        self.stage_latency = (
            config.srd_pipeline_latency if stage_latency is None else stage_latency
        )
        self._consbuf_occupancy = 0

    # ------------------------------------------------------------------ helpers
    def trace(
        self, kind: EventKind, time: int, transaction_id: int, sqi: int,
        detail: str = "",
    ) -> None:
        """Publish one Figure-7 trace moment (possibly back-timestamped).

        Hot callers test ``TraceHook in hooks.wanted`` first.
        """
        if TraceHook in self.hooks.wanted:
            self.hooks.publish(
                TraceHook(
                    tick=int(time),
                    kind=kind,
                    transaction_id=transaction_id,
                    sqi=sqi,
                    detail=detail,
                )
            )

    def close(self) -> None:
        """Drop the bound dispatch method (it points back at the device)."""
        self._dispatch = None

    @property
    def consbuf_occupancy(self) -> int:
        return self._consbuf_occupancy

    def occupancy_snapshot(self) -> dict:
        """Per-SQI buffering/request occupancy for stall diagnostics.

        Returns ``{sqi: (buffered_data, pending_requests)}`` for every SQI
        with anything outstanding — what the watchdog dumps when a run
        stalls, so the report names *where* packets are parked.
        """
        out = {}
        for sqi, row in self.linktab.rows.items():
            buffered = len(row.buffered_data)
            pending = len(row.pending_requests)
            if buffered or pending:
                out[sqi] = (buffered, pending)
        return out

    # ------------------------------------------------------------ producer side
    def ingress(self, entry: ProdEntry) -> None:
        """A push packet enters the pipeline (one stage-latency traversal)."""
        self.env.call_later(self.stage_latency, self._map, entry)

    def requeue(self, entry: ProdEntry) -> None:
        """Figure 5: a missed packet re-enters the mapping pipeline."""
        self.env.call_later(self.stage_latency, self._map, entry)

    def redispatch(self, entry: ProdEntry, spec: SpecTarget) -> None:
        """Figure 5 path B with a *sticky* target: retry the assigned slot.

        A missed speculative packet re-traverses the pipeline and re-sends
        to the same cacheline it was already assigned.  Because the packet
        never gives up its specBuf slot, younger packets of the same SQI
        cannot be stashed into an earlier ring position — this is what
        keeps delivery per-producer FIFO across mis-speculations.
        """
        self.stats.counts["spec_retries"] += 1
        entry.spec_unconfirmed = spec.unconfirmed
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(TxnState.MAPPED, self.env._now, "retry")
        ahead = spec.send_tick - self.env._now
        delay = self.stage_latency + (ahead if ahead > 0 else 0)
        self.env.call_later(
            delay, lambda _arg: self._dispatch(entry, spec.line, True))

    def _map(self, entry: ProdEntry) -> None:
        """Address-mapping pipeline outcome for one prodBuf entry."""
        row = self.linktab.row(entry.sqi)
        if row.buffered_data:
            # Keep per-SQI FIFO: fresh arrivals queue behind parked packets.
            row.buffered_data.append(entry)
            txn = entry.message.txn
            if txn is not None:
                txn.stamp(TxnState.BUFFERED, self.env._now, "backlog")
            self.kick(row)
            return
        self._map_front(row, entry)

    def _map_front(self, row: LinkRow, entry: ProdEntry) -> None:
        """Map *entry* (known to be the oldest packet of its SQI)."""
        request = self.pop_request(row)
        if request is not None:
            self._matched(request, entry)
            self._dispatch(entry, request.line, False)
            return
        spec = self.speculation.select(row, entry, self.env._now)
        if spec is not None:
            self._speculated(entry, spec)
            return
        row.buffered_data.append(entry)
        self.stats.counts["buffered"] += 1
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(TxnState.BUFFERED, self.env._now)

    def _matched(self, request: ConsRequest, entry: ProdEntry) -> None:
        """Bookkeeping for an on-demand pairing (Stage-3 consTgt mux)."""
        if TraceHook in self.hooks.wanted:
            self.trace(
                EventKind.REQUEST_ARRIVE,
                request.arrived_at,
                entry.message.transaction_id,
                entry.sqi,
            )
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(TxnState.MAPPED, self.env._now, "on-demand")
        txn = request.txn
        if txn is not None:
            txn.stamp(TxnState.MATCHED, self.env._now)

    def _speculated(self, entry: ProdEntry, spec: SpecTarget) -> None:
        """Stage-3 specTgt path: schedule the delayed speculative dispatch."""
        entry.spec_entry_index = spec.entry_index
        entry.spec_unconfirmed = spec.unconfirmed
        delay = spec.send_tick - self.env._now
        if delay < 0:
            delay = 0
        self.stats.counts["spec_selected"] += 1
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(TxnState.MAPPED, self.env._now, "speculative")
        self.env.call_later(
            delay, lambda _arg: self._dispatch(entry, spec.line, True))

    # ------------------------------------------------------------ consumer side
    def admit_request(self, request: ConsRequest) -> bool:
        """consBuf admission; False = NACK (the consumer re-issues later)."""
        if self._consbuf_occupancy >= self.config.consbuf_entries:
            return False
        self._consbuf_occupancy += 1
        self.env.call_later(self.stage_latency, self._on_request, request)
        return True

    def _on_request(self, request: ConsRequest) -> None:
        row = self.linktab.row(request.sqi)
        if not row.buffered_data and any(
            pending.line is request.line for pending in row.pending_requests
        ):
            # Coalesce: a request for this cacheline is already registered
            # (an MSHR-style CAM match).  Re-issued fetches from the polling
            # loop would otherwise accumulate and exhaust consBuf.
            self._consbuf_occupancy -= 1
            self.stats.counts["requests_coalesced"] += 1
            if request.txn is not None:
                request.txn.stamp(TxnState.COALESCED, self.env._now)
            return
        if row.buffered_data:
            entry = row.buffered_data.popleft()
            self._consbuf_occupancy -= 1
            self._matched(request, entry)
            self._dispatch(entry, request.line, False)
        else:
            row.pending_requests.append(request)

    def pop_request(self, row: LinkRow) -> Optional[ConsRequest]:
        if row.pending_requests:
            self._consbuf_occupancy -= 1
            return row.pending_requests.popleft()
        return None

    # ------------------------------------------------------------------- drain
    def kick(self, row: LinkRow) -> None:
        """Drain the SQI's buffering queue while targets are available."""
        while row.buffered_data:
            if row.pending_requests:
                entry = row.buffered_data.popleft()
                request = self.pop_request(row)
                assert request is not None
                self._matched(request, entry)
                self._dispatch(entry, request.line, False)
                continue
            spec = self.speculation.select(row, row.buffered_data[0], self.env._now)
            if spec is not None:
                entry = row.buffered_data.popleft()
                self._speculated(entry, spec)
                continue
            break
