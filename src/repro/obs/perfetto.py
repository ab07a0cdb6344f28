"""Chrome/Perfetto ``trace_event`` export from the instrumentation bus.

:class:`PerfettoTraceSink` subscribes to the :class:`~repro.sim.hooks.HookBus`
and streams every instrumentation event into the Trace Event JSON format
(the ``{"traceEvents": [...]}`` document ``ui.perfetto.dev`` and
``chrome://tracing`` load directly).  Track model:

* **pid 1 — transactions**: one thread per SQI.  Every lifecycle edge of a
  :class:`~repro.sim.transaction.TransactionRecord` becomes a complete
  (``ph: "X"``) slice named after the edge (``pushed->mapped``, …) whose
  duration is the stage latency.  Flow events (``s``/``t``/``f``) with
  ``id = transaction id`` tie the semantic send (PushHook), every stash
  attempt (STASHED stamp) and the delivery (DeliveryHook) of one message
  into a single arrow chain — the request→push→delivery journey.
* **pid 2 — network**: a counter track of cumulative busy cycles plus an
  instant per accepted packet, one thread per packet class.
* **pid 3 — specBuf**: one thread per entry index; instants for hit/miss
  responses and per-algorithm delay decisions.
* **pid 4 — cachelines**: one thread per endpoint; instants for
  fill/vacate/failed-fill transitions.
* **pid 5 — interconnect**: one thread per directed NoC link
  (:mod:`repro.net`); a busy-cycles counter plus an instant per link
  traversal.  Hop-routed topologies only — single-bus runs publish no
  :class:`~repro.sim.hooks.LinkHook`, so their documents are unchanged.
* **pid 6 — requests**: one thread per open-system session; an instant
  per lifecycle state plus a flow chain (``s`` at arrival, ``t`` at
  first-pop, ``f`` at completion) with ``id = 1_000_000 + request id`` —
  offset past any realistic transaction id so the per-request arrows
  never collide with the per-message arrows.  Open-system runs only:
  closed-batch runs publish no :class:`~repro.sim.hooks.RequestHook`.

Timestamps are **simulation ticks** (exported as microseconds, the
format's native unit) — never wall-clock — so two identical runs export
byte-identical documents regardless of ``--jobs``, machine, or load.

:class:`JsonlTraceSink` is the compact fallback: one JSON object per bus
event, newline-delimited, for ad-hoc ``jq``/pandas processing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.sim.hooks import (
    BusHook,
    DeliveryHook,
    HookBus,
    LineHook,
    LinkHook,
    PushHook,
    RequestHook,
    SpecBufHook,
    SpecDecisionHook,
    TraceHook,
    TransactionHook,
)
from repro.sim.transaction import TxnState

#: Process ids of the fixed tracks (metadata names emitted on first use).
PID_TRANSACTIONS = 1
PID_NETWORK = 2
PID_SPECBUF = 3
PID_LINES = 4
PID_NET = 5
PID_REQUESTS = 6

#: Flow-id offset for request arrows, keeping them disjoint from the
#: per-message arrows keyed by transaction id.
REQUEST_FLOW_BASE = 1_000_000

_PROCESS_NAMES = {
    PID_TRANSACTIONS: "transactions",
    PID_NETWORK: "network",
    PID_SPECBUF: "specbuf",
    PID_LINES: "cachelines",
    PID_NET: "interconnect",
    PID_REQUESTS: "requests",
}


class PerfettoTraceSink:
    """Stream HookBus events into Chrome trace_event JSON."""

    def __init__(
        self, bus: HookBus, pid_base: int = 0, label: str = ""
    ) -> None:
        #: ``pid_base`` offsets every pid, letting a multi-run document
        #: give each simulation its own process group (see obs.runner);
        #: ``label`` suffixes the process names so the cells stay tellable
        #: apart in the Perfetto UI.
        self.pid_base = pid_base
        self.label = label
        self.events: List[dict] = []
        self._named_processes: set = set()
        self._named_threads: Dict[Tuple[int, int], str] = {}
        self._subs = [
            bus.subscribe(TransactionHook, self._on_transaction),
            bus.subscribe(PushHook, self._on_push),
            bus.subscribe(DeliveryHook, self._on_delivery),
            bus.subscribe(SpecBufHook, self._on_specbuf),
            bus.subscribe(SpecDecisionHook, self._on_decision),
            bus.subscribe(BusHook, self._on_bus),
            bus.subscribe(LineHook, self._on_line),
            bus.subscribe(LinkHook, self._on_link),
            bus.subscribe(RequestHook, self._on_request),
        ]
        self._bus = bus
        #: Dense per-link thread ids, assigned in first-traversal order
        #: (the event stream is deterministic, so the mapping is too).
        self._link_tids: Dict[str, int] = {}
        #: Dense per-session thread ids, assigned in first-event order.
        self._session_tids: Dict[str, int] = {}

    def detach(self) -> None:
        for sub in self._subs:
            self._bus.unsubscribe(sub)
        self._subs = []

    # ----------------------------------------------------------- track naming
    def _track(self, pid: int, tid: int, thread_name: str) -> Tuple[int, int]:
        """Emit process/thread metadata the first time a track appears."""
        pid += self.pid_base
        if pid not in self._named_processes:
            self._named_processes.add(pid)
            name = _PROCESS_NAMES[pid - self.pid_base]
            if self.label:
                name = f"{name} [{self.label}]"
            self.events.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": name},
                }
            )
        if thread_name and (pid, tid) not in self._named_threads:
            self._named_threads[(pid, tid)] = thread_name
            self.events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        return pid, tid

    # --------------------------------------------------------------- handlers
    def _on_transaction(self, event: TransactionHook) -> None:
        record = event.record
        if len(record.stamps) < 2:
            return
        prev, last = record.stamps[-2], record.stamps[-1]
        pid, tid = self._track(
            PID_TRANSACTIONS, record.sqi, f"sqi {record.sqi}"
        )
        self.events.append(
            {
                "ph": "X",
                "name": f"{prev.state.value}->{last.state.value}",
                "cat": record.kind,
                "ts": prev.tick,
                "dur": last.tick - prev.tick,
                "pid": pid,
                "tid": tid,
                "args": {"tid": record.tid, "detail": last.detail},
            }
        )
        if last.state is TxnState.STASHED and record.kind == "message":
            # Flow step: this stash attempt is one hop of the message's
            # send→delivery arrow chain.
            self.events.append(
                {
                    "ph": "t", "name": "message", "cat": "flow",
                    "id": record.tid, "ts": last.tick, "pid": pid, "tid": tid,
                }
            )

    def _on_push(self, event: PushHook) -> None:
        pid, tid = self._track(PID_TRANSACTIONS, event.sqi, f"sqi {event.sqi}")
        self.events.append(
            {
                "ph": "s", "name": "message", "cat": "flow",
                "id": event.transaction_id, "ts": event.tick,
                "pid": pid, "tid": tid,
                "args": {"producer": event.producer_id, "seq": event.seq},
            }
        )

    def _on_delivery(self, event: DeliveryHook) -> None:
        pid, tid = self._track(PID_TRANSACTIONS, event.sqi, f"sqi {event.sqi}")
        self.events.append(
            {
                "ph": "f", "bp": "e", "name": "message", "cat": "flow",
                "id": event.transaction_id, "ts": event.tick,
                "pid": pid, "tid": tid,
                "args": {
                    "endpoint": event.endpoint_id,
                    "producer": event.producer_id,
                    "seq": event.seq,
                },
            }
        )

    def _on_specbuf(self, event: SpecBufHook) -> None:
        pid, tid = self._track(
            PID_SPECBUF, event.entry_index, f"entry {event.entry_index}"
        )
        self.events.append(
            {
                "ph": "i", "s": "t",
                "name": "hit" if event.hit else "miss",
                "cat": "specbuf", "ts": event.tick, "pid": pid, "tid": tid,
                "args": {"sqi": event.sqi},
            }
        )

    def _on_decision(self, event: SpecDecisionHook) -> None:
        pid, tid = self._track(
            PID_SPECBUF, event.entry_index, f"entry {event.entry_index}"
        )
        self.events.append(
            {
                "ph": "i", "s": "t",
                "name": f"decision:{event.algorithm}",
                "cat": "specbuf", "ts": event.tick, "pid": pid, "tid": tid,
                "args": {
                    "delay": event.delay,
                    "retry": event.retry,
                    "sqi": event.sqi,
                },
            }
        )

    def _on_bus(self, event: BusHook) -> None:
        pid, _ = self._track(PID_NETWORK, 0, "")
        self.events.append(
            {
                "ph": "C", "name": "busy_cycles", "ts": event.tick,
                "pid": pid, "tid": 0, "args": {"busy": event.busy_cycles},
            }
        )
        self.events.append(
            {
                "ph": "i", "s": "p", "name": event.kind, "cat": "network",
                "ts": event.tick, "pid": pid, "tid": 0,
            }
        )

    def _on_link(self, event: LinkHook) -> None:
        tid = self._link_tids.setdefault(event.link, len(self._link_tids))
        pid, tid = self._track(PID_NET, tid, event.link)
        self.events.append(
            {
                "ph": "C", "name": f"{event.link}.busy", "ts": event.tick,
                "pid": pid, "tid": tid, "args": {"busy": event.busy_cycles},
            }
        )
        self.events.append(
            {
                "ph": "i", "s": "t", "name": event.kind, "cat": "net",
                "ts": event.tick, "pid": pid, "tid": tid,
                "args": {"src": event.src, "dst": event.dst,
                         "wait": event.wait_cycles},
            }
        )

    def _on_line(self, event: LineHook) -> None:
        pid, tid = self._track(
            PID_LINES, event.endpoint_id, f"endpoint {event.endpoint_id}"
        )
        entry = {
            "ph": "i", "s": "t", "name": event.transition, "cat": "cacheline",
            "ts": event.tick, "pid": pid, "tid": tid,
            "args": {"index": event.index},
        }
        if event.transaction_id is not None:
            entry["args"]["tid"] = event.transaction_id
        self.events.append(entry)

    def _on_request(self, event: RequestHook) -> None:
        tid = self._session_tids.setdefault(
            event.session, len(self._session_tids)
        )
        pid, tid = self._track(PID_REQUESTS, tid, event.session)
        args = {"rid": event.rid, "seq": event.seq}
        if event.sojourn is not None:
            args["sojourn"] = event.sojourn
        self.events.append(
            {
                "ph": "i", "s": "t", "name": event.state, "cat": "request",
                "ts": event.tick, "pid": pid, "tid": tid, "args": args,
            }
        )
        # Per-request flow arrows: arrival starts the chain, first-pop is
        # the mid-hop, completion terminates it.
        flow_ph = {"arrived": "s", "first-pop": "t", "completed": "f"}.get(
            event.state
        )
        if flow_ph is None:
            return
        flow = {
            "ph": flow_ph, "name": "request", "cat": "reqflow",
            "id": REQUEST_FLOW_BASE + event.rid, "ts": event.tick,
            "pid": pid, "tid": tid,
        }
        if flow_ph == "f":
            flow["bp"] = "e"
        self.events.append(flow)

    # ----------------------------------------------------------------- export
    def document(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic serialization: event order is stream order (itself
        deterministic), keys inside each event are sorted."""
        return json.dumps(
            self.document(), sort_keys=True, indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )


class JsonlTraceSink:
    """Compact newline-delimited JSON fallback: one object per bus event."""

    def __init__(self, bus: HookBus) -> None:
        self.lines: List[str] = []
        self._subs = [
            bus.subscribe(TransactionHook, self._on_transaction),
            bus.subscribe(TraceHook, self._on_trace),
            bus.subscribe(PushHook, self._on_simple("push")),
            bus.subscribe(DeliveryHook, self._on_simple("delivery")),
            bus.subscribe(SpecBufHook, self._on_specbuf),
            bus.subscribe(SpecDecisionHook, self._on_decision),
            bus.subscribe(BusHook, self._on_bus),
            bus.subscribe(LineHook, self._on_line),
            bus.subscribe(LinkHook, self._on_link),
            bus.subscribe(RequestHook, self._on_request),
        ]
        self._bus = bus

    def detach(self) -> None:
        for sub in self._subs:
            self._bus.unsubscribe(sub)
        self._subs = []

    def _emit(self, obj: dict) -> None:
        self.lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))

    def _on_transaction(self, event: TransactionHook) -> None:
        record = event.record
        self._emit(
            {
                "ev": "txn", "t": event.tick, "state": event.state.value,
                "sqi": record.sqi, "tid": record.tid, "kind": record.kind,
                "detail": event.detail,
            }
        )

    def _on_trace(self, event: TraceHook) -> None:
        self._emit(
            {
                "ev": "trace", "t": event.tick, "kind": event.kind.value,
                "tid": event.transaction_id, "sqi": event.sqi,
                "detail": event.detail,
            }
        )

    def _on_simple(self, label: str):
        def handler(event) -> None:
            self._emit(
                {
                    "ev": label, "t": event.tick, "sqi": event.sqi,
                    "producer": event.producer_id, "seq": event.seq,
                    "tid": event.transaction_id,
                }
            )

        return handler

    def _on_specbuf(self, event: SpecBufHook) -> None:
        self._emit(
            {
                "ev": "specbuf", "t": event.tick, "sqi": event.sqi,
                "entry": event.entry_index, "hit": event.hit,
            }
        )

    def _on_decision(self, event: SpecDecisionHook) -> None:
        self._emit(
            {
                "ev": "decision", "t": event.tick, "sqi": event.sqi,
                "entry": event.entry_index, "algo": event.algorithm,
                "delay": event.delay, "retry": event.retry,
            }
        )

    def _on_bus(self, event: BusHook) -> None:
        self._emit(
            {
                "ev": "bus", "t": event.tick, "kind": event.kind,
                "busy": event.busy_cycles,
            }
        )

    def _on_line(self, event: LineHook) -> None:
        self._emit(
            {
                "ev": "line", "t": event.tick, "endpoint": event.endpoint_id,
                "index": event.index, "transition": event.transition,
                "tid": event.transaction_id,
            }
        )

    def _on_link(self, event: LinkHook) -> None:
        self._emit(
            {
                "ev": "link", "t": event.tick, "link": event.link,
                "kind": event.kind, "src": event.src, "dst": event.dst,
                "busy": event.busy_cycles, "wait": event.wait_cycles,
            }
        )

    def _on_request(self, event: RequestHook) -> None:
        self._emit(
            {
                "ev": "request", "t": event.tick, "rid": event.rid,
                "session": event.session, "seq": event.seq,
                "state": event.state, "sojourn": event.sojourn,
            }
        )

    def to_jsonl(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")
