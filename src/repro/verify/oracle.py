"""The differential oracle: device flavors must agree on *semantics*.

Timing differs wildly across the evaluated devices — a speculative push
lands cycles before an on-demand one — so full delivery interleavings are
not comparable.  What *is* device-invariant is the **canonical stream**:
the per-``(sqi, producer)`` sequence of delivered message seq numbers.
On a single-consumer SQI that projection must be exactly the push order
(FIFO); on a multi-consumer SQI the device shards a producer's stream
across endpoints dynamically, so only the delivered *multiset* is
invariant.  The oracle

1. replays one workload under every requested device flavor with a
   :class:`StreamRecorder` riding the hook bus,
2. computes the prediction of :class:`FunctionalQueueModel` — a pure
   Python, zero-timing queue semantics model — from the observed pushes,
3. diffs every flavor's canonical stream against the model and against
   the other flavors, and
4. for 1:1 single-link workload shapes, additionally replays the stream
   through the Michael–Scott-style software queue
   (:mod:`repro.swqueue.msqueue`) as an independent reference
   implementation.

All mismatches land in an :class:`OracleReport`; ``report.ok`` is the
assertion surface for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.hooks import DeliveryHook, PushHook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.eval.runner import Setting
    from repro.system import System


class StreamRecorder:
    """Hook-bus subscriber capturing push and delivery streams of one run."""

    def __init__(self) -> None:
        #: (sqi, producer_id) -> seqs in push order.
        self.pushes: Dict[Tuple[int, int], List[int]] = {}
        #: (sqi, producer_id) -> seqs in delivery order.
        self.deliveries: Dict[Tuple[int, int], List[int]] = {}
        #: sqi -> consumer endpoint ids that received at least one message.
        self.consumers_seen: Dict[int, set] = {}
        self._system: Optional["System"] = None

    def attach(self, system: "System") -> "StreamRecorder":
        self._system = system
        system.hooks.subscribe(PushHook, self._on_push)
        system.hooks.subscribe(DeliveryHook, self._on_delivery)
        return self

    def _on_push(self, event: PushHook) -> None:
        self.pushes.setdefault((event.sqi, event.producer_id), []).append(
            event.seq
        )

    def _on_delivery(self, event: DeliveryHook) -> None:
        self.deliveries.setdefault((event.sqi, event.producer_id), []).append(
            event.seq
        )
        self.consumers_seen.setdefault(event.sqi, set()).add(event.endpoint_id)

    # ------------------------------------------------------------- extraction
    def _consumer_count(self, sqi: int) -> int:
        if self._system is not None:
            count = sum(
                1 for ep in self._system.library.consumers if ep.sqi == sqi
            )
            if count:
                return count
        return len(self.consumers_seen.get(sqi, ())) or 1

    def canonical(self) -> "CanonicalStream":
        """The device-invariant projection of this run's deliveries."""
        links = {}
        for key, seqs in self.deliveries.items():
            sqi = key[0]
            if self._consumer_count(sqi) == 1:
                links[key] = tuple(seqs)
            else:
                # Multi-consumer SQIs shard the stream: order is not
                # comparable across devices, the multiset is.
                links[key] = tuple(sorted(seqs))
        return CanonicalStream(
            links=links,
            pushed={key: tuple(seqs) for key, seqs in self.pushes.items()},
        )


@dataclass(frozen=True)
class CanonicalStream:
    """Delivered seqs per (sqi, producer), order-normalized per link."""

    links: Dict[Tuple[int, int], Tuple[int, ...]]
    pushed: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)

    def diff(self, other: "CanonicalStream", label: str, other_label: str
             ) -> List[str]:
        """Human-readable mismatches between two canonical streams."""
        out: List[str] = []
        for key in sorted(set(self.links) | set(other.links)):
            mine = self.links.get(key)
            theirs = other.links.get(key)
            if mine == theirs:
                continue
            sqi, pid = key
            out.append(
                f"sqi={sqi} producer={pid}: {label} delivered "
                f"{_preview(mine)} but {other_label} delivered "
                f"{_preview(theirs)}"
            )
        return out

    def total_delivered(self) -> int:
        return sum(len(seqs) for seqs in self.links.values())


def _preview(seqs: Optional[Tuple[int, ...]], limit: int = 6) -> str:
    if seqs is None:
        return "(nothing)"
    if len(seqs) <= limit:
        return f"{len(seqs)} msgs {list(seqs)}"
    return f"{len(seqs)} msgs {list(seqs[:limit])}..."


class FunctionalQueueModel:
    """Pure-Python queue semantics: what *must* be delivered, timing-free.

    The model is deliberately trivial — that is the point of an oracle: a
    queue delivers exactly what was pushed, in push order per producer on
    single-consumer links, as a multiset on multi-consumer links.  Any
    device whose canonical stream differs has a semantic bug, whatever its
    timing behaviour.
    """

    def predict(self, recorder: StreamRecorder) -> CanonicalStream:
        links = {}
        for key, seqs in recorder.pushes.items():
            sqi = key[0]
            if recorder._consumer_count(sqi) == 1:
                links[key] = tuple(seqs)
            else:
                links[key] = tuple(sorted(seqs))
        return CanonicalStream(
            links=links,
            pushed={key: tuple(seqs) for key, seqs in recorder.pushes.items()},
        )


# ------------------------------------------------------- software reference
def software_reference_stream(num_messages: int, capacity: int = 8,
                              config: Optional["SystemConfig"] = None
                              ) -> Tuple[int, ...]:
    """Replay a 1:1 stream through the software queue on the MOESI substrate.

    An independent queue implementation (Vyukov-style ring over coherent
    memory, :mod:`repro.swqueue.msqueue`) delivering the same abstract
    workload: one producer enqueues ``0..n-1``, one consumer dequeues
    them.  Returns the dequeued values in delivery order — the reference a
    1:1 hardware link's canonical stream must equal.
    """
    from repro.config import DEFAULT_CONFIG
    from repro.mem.coherence import CoherentMemorySystem
    from repro.sim.kernel import Environment
    from repro.swqueue.msqueue import SoftwareQueue

    env = Environment()
    memory = CoherentMemorySystem(env, config or DEFAULT_CONFIG)
    queue = SoftwareQueue(memory, base_addr=0x10000, capacity=capacity)
    delivered: List[int] = []

    def producer():
        for i in range(num_messages):
            yield from queue.enqueue(0, i)

    def consumer():
        for _ in range(num_messages):
            value = yield from queue.dequeue(1)
            delivered.append(value)

    env.process(producer(), name="oracle-sw-producer")
    env.process(consumer(), name="oracle-sw-consumer")
    env.run_until_complete()
    return tuple(delivered)


# ------------------------------------------------------------- orchestration
@dataclass
class OracleReport:
    """Outcome of one differential run across device flavors."""

    workload: str
    scale: float
    streams: Dict[str, CanonicalStream]
    mismatches: List[str]
    reference_label: str = "functional-model"

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        flavors = ", ".join(sorted(self.streams))
        verdict = (
            "all streams bit-identical"
            if self.ok
            else f"{len(self.mismatches)} mismatch(es)"
        )
        return (
            f"oracle[{self.workload} @ scale {self.scale}]: "
            f"{{{flavors}}} vs {self.reference_label} — {verdict}"
        )


def run_differential(
    workload_name: str,
    scale: float = 0.05,
    settings: Optional[Sequence["Setting"]] = None,
    config: Optional["SystemConfig"] = None,
    seed: int = 0xC0FFEE,
    include_software_reference: bool = True,
) -> OracleReport:
    """Run *workload_name* under every flavor and diff the delivered streams.

    ``settings=None`` uses the four evaluated configurations
    (:func:`repro.eval.runner.standard_settings`).  The functional model's
    prediction (from the first flavor's observed pushes) is the reference;
    every flavor is diffed against it and the first flavor, and 1:1
    single-link shapes are additionally diffed against the software-queue
    reference implementation.
    """
    from repro.eval.runner import run_workload, standard_settings

    chosen = list(settings) if settings is not None else standard_settings()
    if not chosen:
        raise ValueError("run_differential needs at least one setting")

    streams: Dict[str, CanonicalStream] = {}
    recorders: Dict[str, StreamRecorder] = {}
    for setting in chosen:
        recorder = StreamRecorder()
        run_workload(
            workload_name,
            setting,
            scale=scale,
            config=config,
            seed=seed,
            on_system=recorder.attach,
        )
        recorders[setting.label] = recorder
        streams[setting.label] = recorder.canonical()

    first_label = chosen[0].label
    model = FunctionalQueueModel().predict(recorders[first_label])
    mismatches: List[str] = []
    for label, stream in streams.items():
        mismatches.extend(model.diff(stream, "functional model", label))
    for label, stream in streams.items():
        if label != first_label:
            mismatches.extend(streams[first_label].diff(stream, first_label, label))

    if include_software_reference and len(model.links) == 1:
        ((key, expected),) = model.links.items()
        sw = software_reference_stream(len(expected), config=config)
        if sw != expected:
            mismatches.append(
                f"software-queue reference delivered {_preview(sw)} but the "
                f"functional model expects {_preview(expected)} for "
                f"sqi={key[0]} producer={key[1]}"
            )

    return OracleReport(
        workload=workload_name,
        scale=scale,
        streams=streams,
        mismatches=mismatches,
    )
