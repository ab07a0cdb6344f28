"""The user-space queue library (Sections 3.4 and 4.2).

This is the software layer the benchmarks link against — the reproduction of
the revised VL library:

* ``create_queue`` allocates an SQI (a linkTab row).
* ``open_producer`` / ``open_consumer`` allocate endpoint buffers at unique
  addresses and subscribe them to the SQI; speculative consumer endpoints
  are registered in specBuf with ``spamer_register`` before being returned
  to the application (Section 3.4), and their dequeue path *skips* the
  ``vl_select``/``vl_fetch`` issue entirely.
* ``push`` — write the staging line, ``vl_select`` + ``vl_push``; blocks
  only on prodBuf backpressure (ownership transfers to the device).
* ``pop`` — fast path when the round-robin line already holds data (an L1
  hit); otherwise the slow path issues a fetch (legacy endpoints), polls,
  and periodically re-issues the fetch — the re-issues are the paper's
  "prerequest" behaviour whose accidental-prefetch effects Section 4.2
  observes on VL.  A stalled pop parks its process on a re-arming poll
  callback (:class:`_StalledPop`) that resumes the generator only when
  the poll acts.

Library-call overhead models Section 3.4's macro-inlining: with
``config.inline_library=False`` every push/pop pays ``call_overhead`` extra
cycles (the paper measured inlining worth ~1.02× on average).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import RegistrationError, WorkloadError
from repro.mem.cacheline import LineState
from repro.net.topology import PacketKind
from repro.sim.hooks import DeliveryHook, EventKind, PushHook, TraceHook
from repro.sim.process import PARK, Process
from repro.sim.transaction import TxnState
from repro.vlink.endpoint import ConsumerEndpoint, ProducerEndpoint
from repro.vlink.packets import ConsRequest, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class QueueLibrary:
    """Software API over the routing device; bound to one :class:`System`."""

    #: SQI 0 is reserved — a zero consHead means "no consumer request" in
    #: the Stage-3 multiplexer (Section 3.1), so valid SQIs start at 1.
    FIRST_SQI = 1

    def __init__(self, system: "System") -> None:
        self.system = system
        self.env = system.env
        self.config = system.config
        self._next_sqi = self.FIRST_SQI
        self._next_endpoint_id = 0
        self.producers: list = []
        self.consumers: list = []

    # ------------------------------------------------------------ queue setup
    def create_queue(self) -> int:
        """Allocate a fresh SQI (one linkTab row)."""
        sqi = self._next_sqi
        self._next_sqi += 1
        # Reserve the row eagerly on the owning shard (SQIs shard across
        # devices when config.num_srds > 1).
        self.system.device_for(sqi).linktab.row(sqi)
        return sqi

    def open_producer(self, sqi: int, core_id: int) -> ProducerEndpoint:
        """Subscribe a producer endpoint on *core_id* to *sqi*."""
        self._check_core(core_id)
        segment = self.system.addr_space.alloc_endpoint_buffer(
            self.config.lines_per_endpoint
        )
        endpoint = ProducerEndpoint(self._take_endpoint_id(), sqi, segment, core_id)
        self.producers.append(endpoint)
        return endpoint

    def open_consumer(
        self,
        sqi: int,
        core_id: int,
        num_lines: Optional[int] = None,
        speculative: Optional[bool] = None,
    ) -> ConsumerEndpoint:
        """Subscribe a consumer endpoint on *core_id* to *sqi*.

        ``speculative=None`` follows the system default (on for SPAMeR
        builds); ``False`` requests a legacy endpoint whose registrations
        are skipped (Section 3.4's legacy option).

        ``num_lines=None`` picks the natural default: legacy (on-demand)
        endpoints get a single cacheline — the pop loop spins on one line
        and requests it on demand — while speculative endpoints get
        ``config.lines_per_endpoint`` lines registered in specBuf so pushes
        can land ahead of the consumer (incast's master registers 32,
        Section 4.3).
        """
        self._check_core(core_id)
        spec = self.system.spec_default if speculative is None else speculative
        if num_lines is not None:
            lines = num_lines
        else:
            lines = self.config.lines_per_endpoint if spec else 1
        segment = self.system.addr_space.alloc_endpoint_buffer(lines)
        if spec and not self.system.supports_speculation:
            raise RegistrationError(
                "speculative endpoint requested on a baseline Virtual-Link "
                "system; build System(device='spamer') or pass speculative=False"
            )
        endpoint = ConsumerEndpoint(
            self.env,
            self._take_endpoint_id(),
            sqi,
            segment,
            core_id,
            lines,
            spec_enabled=spec,
            hooks=self.system.hooks,
        )
        if spec:
            # spamer_register for each endpoint before handing it to the app.
            self.system.device_for(sqi).register_spec_target(endpoint)
        self.consumers.append(endpoint)
        return endpoint

    def _take_endpoint_id(self) -> int:
        eid = self._next_endpoint_id
        self._next_endpoint_id += 1
        return eid

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.config.num_cores:
            raise WorkloadError(
                f"core {core_id} out of range (system has {self.config.num_cores})"
            )

    # ------------------------------------------------------------------- push
    def push(self, producer: ProducerEndpoint, payload: Any) -> Generator:
        """Enqueue one message (``yield from`` inside a thread program)."""
        cfg = self.config
        cost = cfg.line_write_cost + cfg.push_instruction_cost
        if not cfg.inline_library:
            cost += cfg.call_overhead
        yield cost
        # prodBuf backpressure: claim an entry from the shared pool, or
        # wait on this SQI's reserve (the forward-progress guarantee).
        device = self.system.device_for(producer.sqi)
        pool = yield from device.acquire_entry(producer.sqi)
        tid, txn = self.system.transactions.take(producer.sqi)
        if txn is not None:
            txn.stamp(TxnState.CREATED, self.env._now)
        message = Message(
            payload=payload,
            sqi=producer.sqi,
            producer_id=producer.endpoint_id,
            seq=producer.take_seq(),
            transaction_id=tid,
            produced_at=self.env._now,
            credit_pool=pool,
            txn=txn,
        )
        producer.pushes += 1
        hooks = self.system.hooks
        if PushHook in hooks.wanted:
            hooks.publish(
                PushHook(
                    tick=self.env._now,
                    sqi=message.sqi,
                    producer_id=message.producer_id,
                    seq=message.seq,
                    transaction_id=tid,
                )
            )
        # vl_push is posted (writeback-like): the producer continues while
        # the packet traverses the network; ownership is with the device.
        network = self.system.network
        network.transit_then(
            PacketKind.PUSH_DATA,
            device.accept_push,
            message,
            src=network.core_nodes[producer.core_id],
            dst=network.srd_nodes[device.srd_index],
        )
        return message

    # -------------------------------------------------------------------- pop
    def pop(self, consumer: ConsumerEndpoint) -> Generator:
        """Dequeue one message (``yield from`` inside a thread program)."""
        message = yield from self._pop_impl(consumer, stop_check=None)
        assert message is not None
        return message

    def pop_until(self, consumer: ConsumerEndpoint, stop_check) -> Generator:
        """Dequeue one message, or return None once *stop_check()* is true.

        The cancellable pop that M:N consumer workers use for termination:
        with many consumers sharing an SQI, per-worker message counts are
        decided dynamically by the routing device, so workers loop "pop
        until the shared work counter says everything is processed".
        """
        return self._pop_impl(consumer, stop_check=stop_check)

    def _pop_impl(self, consumer: ConsumerEndpoint, stop_check) -> Generator:
        """The body of :meth:`pop` and :meth:`pop_until`.

        Fast path when the consumer's round-robin line is poppable.
        Otherwise the process parks (``yield PARK``) on a
        :class:`_StalledPop` poll that re-queues itself every
        ``poll_interval`` cycles (``yield_penalty`` past the
        spin-then-yield window), re-issues the fetch on its back-off and
        runs the stale scan: the modelled poll loop, at the queue keys its
        ``yield quantum`` wakes had.  The generator resumes once, when the
        line turns poppable, the stale scan retargets, or *stop_check()*
        turns true (the pop then returns ``None``); an exception raised
        by the poll is raised here, inside the popping thread.
        """
        cfg = self.config
        if not cfg.inline_library:
            yield cfg.call_overhead

        if not consumer.spec_enabled:
            # Legacy dequeue: vl_select + vl_fetch are issued unconditionally
            # at the top of the pop — when data already sits in the line
            # (fast path) the fetch is *stale* by the time it reaches the
            # device: the paper's "prerequest" (Section 4.2), which acts as
            # an unguided prefetch for the next message (and fails when that
            # message lands while the line is still full).
            yield cfg.fetch_instruction_cost
            self._send_request(
                consumer,
                prerequest=consumer.current_line.state is LineState.VALID,
            )

        line = consumer.current_line
        if not line.poppable:
            # ---- slow path: poll the line until the stash lands (a VALID
            # line whose burst fill is still unconfirmed is not poppable —
            # delivering it would jump the predicted order).  The process
            # parks; each poll is one _poll_tick callback, queued under
            # the key a ``yield quantum`` wake would have had, and the
            # generator resumes here only once the poll acts.
            poll = _StalledPop(self, consumer, stop_check)
            self.env.call_later(poll.quantum, _poll_tick, poll)
            yield PARK
            if poll.error is not None:
                raise poll.error
            if poll.stopped:
                return None
            # Spin-loop exit: branch recovery / pipeline refill.
            yield cfg.slow_path_penalty
            line = consumer.current_line

        # ---- fast path / delivery: read, trace first use, vacate.
        hooks = self.system.hooks
        if TraceHook in hooks.wanted:
            hooks.publish(
                TraceHook(
                    tick=self.env._now,
                    kind=EventKind.FIRST_USE,
                    transaction_id=line.fill_txn or 0,
                    sqi=consumer.sqi,
                )
            )
        yield cfg.pop_fast_path_cost
        message = line.consume()
        if message.txn is not None:
            message.txn.stamp(TxnState.RETIRED, self.env._now)
        if DeliveryHook in hooks.wanted:
            hooks.publish(
                DeliveryHook(
                    tick=self.env._now,
                    sqi=message.sqi,
                    endpoint_id=consumer.endpoint_id,
                    producer_id=message.producer_id,
                    seq=message.seq,
                    transaction_id=message.transaction_id,
                )
            )
        self.system.latency_stats.add(self.env._now - message.produced_at)
        consumer.advance()
        consumer.pops += 1
        return message

    def _send_request(self, consumer: ConsumerEndpoint, prerequest: bool) -> None:
        """Fire a vl_fetch packet at the device (posted, non-blocking)."""
        _, txn = self.system.transactions.take(consumer.sqi, "request")
        if txn is not None:
            txn.stamp(
                TxnState.CREATED, self.env._now, "prerequest" if prerequest else ""
            )
        request = ConsRequest(
            sqi=consumer.sqi,
            line=consumer.current_line,
            issued_at=self.env._now,
            prerequest=prerequest,
            txn=txn,
        )
        network = self.system.network
        device = self.system.device_for(consumer.sqi)
        network.transit_then(
            PacketKind.REQUEST,
            device.accept_request,
            request,
            src=network.core_nodes[consumer.core_id],
            dst=network.srd_nodes[device.srd_index],
        )


class _StalledPop:
    """The poll state of one stalled pop, parked on :func:`_poll_tick`.

    The consumer polls its line every ``quantum`` cycles.  Most polls only
    look at the line.  The rest of the loop's work — re-issuing the fetch
    on its exponential back-off, the stale scan, and the switch to the
    spin-then-yield quantum — falls due at ticks that are pure functions
    of ``stall_start`` and the last fetch, so :meth:`_plan` folds them
    into one ``due`` tick and :meth:`act` runs only on a poll at or past
    it.
    """

    __slots__ = ("library", "env", "consumer", "line", "stop_check", "process",
                 "stall_start", "refetch_at", "refetch_after", "quantum", "due",
                 "stopped", "error")

    def __init__(self, library: QueueLibrary, consumer: ConsumerEndpoint,
                 stop_check) -> None:
        env = library.env
        now = env._now
        self.library = library
        self.env = env
        self.consumer = consumer
        #: One popping thread per endpoint, so only the stale scan below
        #: moves the consumer's round-robin line during a stall.
        self.line = consumer.current_line
        self.stop_check = stop_check
        self.process = env._active_process
        self.stall_start = now
        self.refetch_after = library.config.refetch_interval
        # Speculative endpoints never re-issue a fetch.
        self.refetch_at = _NEVER if consumer.spec_enabled else now + self.refetch_after
        self.stopped = False
        self.error: Optional[BaseException] = None
        self._plan(now)

    def _plan(self, now: int) -> None:
        """Set the quantum of the next poll and the next ``due`` tick."""
        cfg = self.library.config
        due = min(self.refetch_at, self.stall_start + cfg.stale_scan_threshold)
        self.quantum = cfg.poll_interval
        if cfg.spin_then_yield:
            # Optional spin-then-yield discipline (ablation knob):
            # deschedule after the spin window; the wake quantum
            # coarsens delivery detection.
            spin_end = self.stall_start + cfg.spin_threshold
            if now >= spin_end:
                self.quantum = cfg.yield_penalty
            else:
                due = min(due, spin_end)
        self.due = due

    def act(self, now: int) -> bool:
        """The poll's due work; True when the stale scan retargeted."""
        consumer = self.consumer
        if now >= self.refetch_at:
            # Re-issue the fetch.  The first re-issue races the expected
            # stash (refetch_interval ≈ the load-to-use round trip) — the
            # "prerequest" of Section 4.2; the interval then backs off
            # exponentially so long waits (wavefront stalls) do not spam
            # the network, and a request NACKed by a full consBuf is still
            # recovered.
            self.library._send_request(consumer, prerequest=True)
            self.refetch_after = min(self.refetch_after * 2, 1 << 16)
            self.refetch_at = now + self.refetch_after
        if now - self.stall_start >= self.library.config.stale_scan_threshold:
            recovered = consumer.oldest_valid_line()
            if recovered is not None:
                consumer.retarget(recovered)
                return True
            self.stall_start = now
        self._plan(now)
        return False


def _poll_tick(poll: _StalledPop) -> Optional[int]:
    """One poll of a parked pop (a kernel callback).

    In the order the generator loop checked them: the stop condition, the
    due work, then the line itself.  A poll that finds nothing to act on
    returns its quantum, and the dispatch loop re-arms it, so the next
    poll draws its sequence number exactly where the loop's ``yield
    quantum`` did.  Any other poll resumes the parked generator,
    synchronously, inside this dispatch, and queues the sleep that
    resume returns, as the loop would have.
    """
    try:
        if poll.stop_check is not None and poll.stop_check():
            poll.stopped = True
        else:
            now = poll.env._now
            if now < poll.due or not poll.act(now):
                line = poll.line
                if line._state is not _VALID or line.unconfirmed:
                    return poll.quantum
    except Exception as exc:  # raised inside the popping thread, as before
        poll.error = exc
    process = poll.process
    delay = Process._resume(process)
    if delay is not None:
        poll.env.call_later(delay, Process._resume, process)
    return None


_VALID = LineState.VALID
#: Refetch deadline of an endpoint that never refetches: past any cycle.
_NEVER = 1 << 62
