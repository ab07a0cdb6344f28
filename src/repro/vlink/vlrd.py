"""The Virtual-Link Routing Device (VLRD) — the baseline hardware queue.

The VLRD (Section 2, Figures 2–5) is attached to the coherence network and
moves cachelines from producer endpoints to consumer endpoints:

1. ``vl_push`` copies producer data into a **prodBuf** entry (ownership
   transfers to the device; the producer's line stays writable).
2. ``vl_fetch`` registers a consumer cacheline address in a **consBuf**
   entry.
3. The three-stage *address mapping* pipeline — a first-class
   :class:`~repro.vlink.pipeline.MappingPipeline` — pairs the two on the
   same SQI: a matched packet enters the sending queue and is stashed into
   the consumer cacheline; an unmatched packet is parked on the SQI's
   buffering queue in **linkTab**.
4. The target cache controller answers each stash with a hit/miss response:
   a hit frees the prodBuf entry; a miss re-enters the packet into the
   mapping pipeline (Figure 5, path B/C).

The device composes rather than hard-codes its behaviour: the speculation
stage is a pluggable :class:`~repro.vlink.pipeline.SpeculationPolicy`
(:class:`~repro.vlink.pipeline.NullSpeculation` here; the SPAMeR device
plugs in its specBuf policy), instrumentation attaches through the
:class:`~repro.sim.hooks.HookBus`, and each packet of an observed run
carries a :class:`~repro.sim.transaction.TransactionRecord` stamped at
every lifecycle transition.  New device flavors register with
``repro.registry.DEVICES`` and need no edits to the core.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.config import SystemConfig
from repro.mem.bus import CoherenceNetwork, PacketKind
from repro.mem.cacheline import ConsumerLine
from repro.registry import DEVICES
from repro.sim.hooks import EventKind, HookBus, TraceHook
from repro.sim.resources import Resource
from repro.sim.stats import Counter
from repro.sim.transaction import TxnState
from repro.vlink.linktab import LinkTab
from repro.vlink.packets import ConsRequest, Message, ProdEntry
from repro.vlink.pipeline import (
    MappingPipeline,
    NullSpeculation,
    SpecTarget,
    SpeculationPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment

__all__ = ["SpecTarget", "VirtualLinkRoutingDevice"]


class _Stash:
    """One stash packet in flight: device → consumer line, and the
    hit/miss response back (``src``/``dst`` are the stash's nodes)."""

    __slots__ = ("entry", "line", "speculative", "src", "dst", "hit")

    def __init__(self, entry: ProdEntry, line: ConsumerLine, speculative: bool,
                 src: int, dst: int) -> None:
        self.entry = entry
        self.line = line
        self.speculative = speculative
        self.src = src
        self.dst = dst
        self.hit = False


@DEVICES.register("vl")
class VirtualLinkRoutingDevice:
    """Baseline on-demand routing device."""

    kind = "VLRD"
    #: Whether consumer endpoints may register for speculative pushes.
    supports_speculation = False
    #: Which SRD shard this device instance is (set by ``System`` when it
    #: builds several; determines the device's network node on NoC
    #: topologies).  Class default keeps standalone construction working.
    srd_index = 0

    def __init__(
        self,
        env: "Environment",
        config: SystemConfig,
        network: CoherenceNetwork,
        hooks: Optional[HookBus] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.network = network
        self.hooks = hooks if hooks is not None else HookBus()
        self.linktab = LinkTab(config.linktab_entries)
        self.stats = Counter()
        self.pipeline = MappingPipeline(
            env,
            config,
            self.linktab,
            self.stats,
            speculation=self._make_speculation(),
            dispatch=self._dispatch,
            hooks=self.hooks,
            stage_latency=self._stage_latency(),
        )
        #: prodBuf admission is two-tier: a small per-SQI *reserve*
        #: guarantees every queue forward progress (no head-of-line
        #: deadlock when one producer hoards entries — also the Section 3.6
        #: DoS mitigation, MPAM-style per-partition limits), while the
        #: remaining entries form a *shared* pool that lets a bursty queue
        #: build a real backlog, matching the dynamically-shared entries of
        #: the physical design.
        self._reserved_credits: dict = {}
        self._shared_credits: Optional[Resource] = None
        self._reserve_per_sqi: Optional[int] = None

    # --------------------------------------------------------------- composition
    def _make_speculation(self) -> SpeculationPolicy:
        """The Stage-2 policy this device flavor plugs into its pipeline."""
        return NullSpeculation()

    def _stage_latency(self) -> int:
        """Mapping-pipeline traversal latency (overridable per flavor)."""
        return self.config.srd_pipeline_latency

    # ----------------------------------------------------- admission control
    def finalize_capacity(self, num_sqis: Optional[int] = None) -> None:
        """Fix the prodBuf admission tiers once all queues exist.

        Called lazily at the first push: every SQI gets a reserve of 2
        entries (1 when more than half the entries would be reserved), and
        the remainder is shared first-come-first-served.
        """
        if self._reserve_per_sqi is not None:
            return
        n = num_sqis if num_sqis is not None else max(1, len(self.linktab))
        reserve = 2 if 2 * n <= self.config.prodbuf_entries else 1
        self._reserve_per_sqi = reserve
        shared = max(0, self.config.prodbuf_entries - reserve * n)
        self._shared_credits = Resource(
            self.env, max(1, shared), name="prodBuf[shared]"
        )

    def _reserved(self, sqi: int) -> Resource:
        if self._reserve_per_sqi is None:
            self.finalize_capacity()
        if sqi not in self._reserved_credits:
            self._reserved_credits[sqi] = Resource(
                self.env, self._reserve_per_sqi, name=f"prodBuf[sqi={sqi}]"
            )
        return self._reserved_credits[sqi]

    def acquire_entry(self, sqi: int) -> Generator:
        """Claim a prodBuf entry for a push (``yield from`` inside the
        pushing process); returns the pool it came from.

        Takes a shared entry when one is free; otherwise falls back to the
        SQI's reserve (waiting on it if occupied — the reserve is the
        forward-progress guarantee, so waiters queue there rather than on
        the shared pool).  Either way the process resumes from the kernel
        queue, a free entry after a zero-cycle sleep.
        """
        if self._reserve_per_sqi is None:
            self.finalize_capacity()
        assert self._shared_credits is not None
        if self._shared_credits.try_acquire():
            yield 0
            return "shared"
        yield from self._reserved(sqi).acquire()
        return "reserved"

    def release_entry(self, sqi: int, pool: Optional[str]) -> None:
        """Return a prodBuf entry to the pool it was claimed from.

        ``pool=None`` (a message injected without admission) is a no-op.
        """
        if pool is None:
            return
        if pool == "shared":
            assert self._shared_credits is not None
            self._shared_credits.release()
        else:
            self._reserved(sqi).release()

    @property
    def entries_in_use(self) -> int:
        """prodBuf occupancy across both admission tiers."""
        shared = self._shared_credits.in_use if self._shared_credits else 0
        return shared + sum(r.in_use for r in self._reserved_credits.values())

    @property
    def _consbuf_occupancy(self) -> int:
        """consBuf occupancy (owned by the mapping pipeline)."""
        return self.pipeline.consbuf_occupancy

    # ----------------------------------------------------------- producer side
    def accept_push(self, message: Message) -> None:
        """A vl_push packet arrived over the network (credit already held).

        The hot path guards each stamp and trace moment at the call site
        (a record to stamp, or a subscriber on the bus), so a silent run
        enters neither.
        """
        self.stats.counts["data_arrivals"] += 1
        now = self.env._now
        if message.txn is not None:
            message.txn.stamp(TxnState.PUSHED, now)
        if TraceHook in self.hooks.wanted:
            self.pipeline.trace(
                EventKind.DATA_ARRIVE, now, message.transaction_id, message.sqi
            )
        self.pipeline.ingress(ProdEntry(message, message.sqi, arrived_at=now))

    # ----------------------------------------------------------- consumer side
    def accept_request(self, request: ConsRequest) -> None:
        """A vl_fetch packet arrived over the network."""
        request.arrived_at = now = self.env._now
        self.stats.counts["request_arrivals"] += 1
        txn = request.txn
        if txn is not None:
            txn.stamp(TxnState.ARRIVED, now)
        if not self.pipeline.admit_request(request):
            # consBuf exhausted: the store is NACKed; the consumer's poll
            # loop re-issues the fetch later.
            self.stats.counts["requests_dropped"] += 1
            if txn is not None:
                txn.stamp(TxnState.DROPPED, now, "NACK")

    # ------------------------------------------------------------ push path
    def _dispatch(self, entry: ProdEntry, line: ConsumerLine, speculative: bool) -> None:
        """Send one stash packet to *line* and handle the response."""
        entry.attempts += 1
        counts = self.stats.counts
        counts["push_attempts"] += 1
        counts["spec_pushes" if speculative else "ondemand_pushes"] += 1
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(
                TxnState.STASHED,
                self.env._now,
                "speculative" if speculative else "on-demand",
            )
        # On NoC topologies the stash crosses the device→consumer distance
        # (and the response signal rides the same distance back).
        network = self.network
        stash = _Stash(entry, line, speculative,
                       network.srd_nodes[self.srd_index],
                       network.core_nodes[line.core_id])
        network.transit_then(
            PacketKind.STASH, self._delivered, stash, src=stash.src, dst=stash.dst,
        )

    def _delivered(self, stash: "_Stash") -> None:
        """The stash reached the consumer line: fill it or miss."""
        entry, line = stash.entry, stash.line
        vacate_time = line.last_vacate_time
        hit = line.try_fill(
            entry.message,
            entry.message.transaction_id,
            unconfirmed=entry.spec_unconfirmed,
        )
        if hit and TraceHook in self.hooks.wanted:
            txn = entry.message.transaction_id
            self.pipeline.trace(EventKind.LINE_VACATE, vacate_time, txn, entry.sqi)
            self.pipeline.trace(
                EventKind.LINE_FILL, self.env._now, txn, entry.sqi,
                detail="speculative" if stash.speculative else "on-demand",
            )
        stash.hit = hit
        # The hit/miss response signal rides back to the device.
        self.network.response_then(stash.dst, stash.src, self._responded, stash)

    def _responded(self, stash: "_Stash") -> None:
        self._on_response(stash.entry, stash.line, stash.hit, stash.speculative)

    def _on_response(
        self, entry: ProdEntry, line: ConsumerLine, hit: bool, speculative: bool
    ) -> None:
        row = self.linktab.row(entry.sqi)
        verdict = None
        if speculative:
            verdict = self.pipeline.speculation.on_response(entry, hit, self.env._now)
        txn = entry.message.txn
        if txn is not None:
            txn.stamp(TxnState.RESPONDED, self.env._now, "hit" if hit else "miss")
        counts = self.stats.counts
        if verdict == "rollback":
            # A burst misprediction cancelled this push: it is charged as a
            # wasted speculative push, the packet is stamped ROLLED_BACK,
            # and the policy owns its continuation (invalidating a landed
            # line over the network, re-injecting the message FIFO-front).
            counts["push_failures"] += 1
            counts["spec_failures"] += 1
            if txn is not None:
                txn.stamp(TxnState.ROLLED_BACK, self.env._now, "burst")
            self.pipeline.speculation.complete_rollback(entry, hit, self.env._now)
            self.pipeline.kick(row)
            return
        if hit:
            counts["push_hits"] += 1
            counts["spec_hits" if speculative else "ondemand_hits"] += 1
            self.release_entry(entry.sqi, entry.message.credit_pool)
        else:
            counts["push_failures"] += 1
            counts["spec_failures" if speculative else "ondemand_failures"] += 1
            target = (
                self.pipeline.speculation.retry(entry, self.env._now)
                if speculative and entry.spec_entry_index is not None
                else None
            )
            if target is not None:
                # Sticky retry: the packet keeps its assigned slot so
                # younger packets cannot be delivered ahead of it.
                self.pipeline.redispatch(entry, target)
            else:
                entry.spec_entry_index = None
                # Figure 5: the prodBuf entry re-enters the mapping pipeline.
                self.pipeline.requeue(entry)
        self.pipeline.kick(row)

    # -------------------------------------------------------- speculation API
    def register_spec_target(self, endpoint) -> None:
        """Handle ``spamer_register`` stores (delegates to the policy)."""
        return self.pipeline.speculation.register(endpoint)

    # ------------------------------------------------------------------ metrics
    @property
    def push_attempts(self) -> int:
        return self.stats.get("push_attempts")

    @property
    def push_failures(self) -> int:
        return self.stats.get("push_failures")

    def failure_rate(self) -> float:
        """Failed pushes out of all pushes (Figure 10a)."""
        attempts = self.push_attempts
        return self.push_failures / attempts if attempts else 0.0
