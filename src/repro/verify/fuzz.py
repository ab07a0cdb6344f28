"""Property-based workload fuzzing.

Randomized producer/consumer thread programs — arbitrary link topologies,
message counts and compute delays — executed under the live invariant
checker *and* the differential oracle.  A specification is plain data
(:class:`ProgramSpec`), so failing cases shrink to minimal topologies and
replay deterministically.

Hypothesis is optional at runtime: the strategies are gated behind an
import guard so the simulator itself never depends on it.  The fuzz tests
(``tests/test_fuzz_semantics.py``) skip cleanly when it is absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.verify.oracle import CanonicalStream, FunctionalQueueModel, StreamRecorder
from repro.workloads.base import QueueSpec, WorkCounter, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.eval.runner import Setting
    from repro.system import System

try:  # pragma: no cover - presence depends on the environment
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    st = None  # type: ignore[assignment]
    HAVE_HYPOTHESIS = False

#: Core budget for fuzz systems: every thread gets its own core.
FUZZ_CORES = 8
#: Generous stall window — fuzz programs make progress every few hundred
#: cycles, so a silent 200k-cycle gap is a real deadlock.
FUZZ_WATCHDOG = 200_000


@dataclass(frozen=True)
class LinkSpec:
    """One fuzzed queue: M producers, N consumers, messages per producer."""

    producers: int = 1
    consumers: int = 1
    messages: int = 4

    def __post_init__(self) -> None:
        if self.producers < 1 or self.consumers < 1 or self.messages < 1:
            raise WorkloadError(f"invalid fuzz link {self!r}")

    @property
    def threads(self) -> int:
        return self.producers + self.consumers

    @property
    def total_messages(self) -> int:
        return self.producers * self.messages


@dataclass(frozen=True)
class ProgramSpec:
    """A complete fuzz case: links plus per-side compute delays."""

    links: Tuple[LinkSpec, ...] = (LinkSpec(),)
    producer_compute: int = 50
    consumer_compute: int = 50

    def __post_init__(self) -> None:
        if not self.links:
            raise WorkloadError("a fuzz program needs at least one link")
        if self.producer_compute < 0 or self.consumer_compute < 0:
            raise WorkloadError("fuzz compute delays must be >= 0")
        if self.total_threads > FUZZ_CORES:
            raise WorkloadError(
                f"fuzz program needs {self.total_threads} threads; "
                f"budget is {FUZZ_CORES}"
            )

    @property
    def total_threads(self) -> int:
        return sum(link.threads for link in self.links)

    def label(self) -> str:
        topo = "+".join(
            f"({l.producers}:{l.consumers})x{l.messages}" for l in self.links
        )
        return f"fuzz[{topo} p{self.producer_compute} c{self.consumer_compute}]"


class FuzzWorkload(Workload):
    """A workload materializing one :class:`ProgramSpec`."""

    name = "fuzz"
    description = "randomized producer/consumer program"

    def __init__(self, spec: ProgramSpec) -> None:
        super().__init__(scale=1.0)
        self.spec = spec

    def topology(self) -> List[QueueSpec]:
        return [
            QueueSpec(link.producers, link.consumers)
            for link in self.spec.links
        ]

    def num_threads(self) -> int:
        return self.spec.total_threads

    def build(self, system: "System") -> None:
        lib = system.library
        spec = self.spec
        next_core = 0

        def take_core() -> int:
            nonlocal next_core
            core, next_core = next_core, next_core + 1
            return core

        for link_idx, link in enumerate(spec.links):
            sqi = lib.create_queue()
            counter = WorkCounter(link.total_messages)

            for p in range(link.producers):
                core = take_core()
                producer = lib.open_producer(sqi, core_id=core)

                def producer_thread(ctx, producer=producer, p=p,
                                    link_idx=link_idx, link=link):
                    for seq in range(link.messages):
                        key = (link_idx, p, seq)
                        self.note_produced(key)
                        yield from ctx.push(producer, key)
                        if spec.producer_compute:
                            yield ctx.compute(spec.producer_compute)

                system.spawn(core, producer_thread,
                             f"fuzz-p{link_idx}.{p}")

            if link.consumers == 1:
                core = take_core()
                consumer = lib.open_consumer(sqi, core_id=core)

                def consumer_thread(ctx, consumer=consumer, link=link):
                    for _ in range(link.total_messages):
                        msg = yield from ctx.pop(consumer)
                        self.note_consumed(msg.payload)
                        if spec.consumer_compute:
                            yield ctx.compute(spec.consumer_compute)

                system.spawn(core, consumer_thread, f"fuzz-c{link_idx}.0")
            else:
                # M:N termination: the device shards messages dynamically,
                # so workers loop against the shared work counter.
                for c in range(link.consumers):
                    core = take_core()
                    consumer = lib.open_consumer(sqi, core_id=core)

                    def worker(ctx, consumer=consumer, counter=counter,
                               link_idx=link_idx, c=c):
                        while not counter.all_done():
                            msg = yield from ctx.pop_until(
                                consumer, counter.all_done
                            )
                            if msg is None:
                                break
                            self.note_consumed(msg.payload)
                            counter.mark_done()
                            if spec.consumer_compute:
                                yield ctx.compute(spec.consumer_compute)

                    system.spawn(core, worker, f"fuzz-c{link_idx}.{c}")


@dataclass
class FuzzCaseResult:
    """Everything one fuzz execution produced, for asserting and diffing."""

    spec: ProgramSpec
    setting_label: str
    stream: CanonicalStream
    predicted: CanonicalStream
    violations: Tuple = ()
    #: The quiesced system, for post-run structural assertions (e.g. the
    #: multi-push claim/release balance checks) — never part of the diff.
    system: Optional["System"] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches()

    def mismatches(self) -> List[str]:
        return self.predicted.diff(
            self.stream, "functional model", self.setting_label
        )


def run_fuzz_case(
    spec: ProgramSpec,
    setting: "Setting",
    config: Optional["SystemConfig"] = None,
    seed: int = 0xC0FFEE,
    limit: int = 50_000_000,
) -> FuzzCaseResult:
    """Execute one fuzz case under the checker + oracle; returns the result.

    Raises :class:`~repro.errors.VerificationError` (checker),
    :class:`~repro.errors.SimDeadlockError` (watchdog) or
    :class:`~repro.errors.WorkloadError` (conservation) on a violated
    property; an :class:`FuzzCaseResult` with ``ok=True`` otherwise.
    """
    from repro.config import SystemConfig
    from repro.verify.invariants import StallWatchdog

    cfg = config or SystemConfig(num_cores=FUZZ_CORES)
    cfg = cfg.with_overrides(verify=True, watchdog_cycles=FUZZ_WATCHDOG)
    system = setting.build_system(config=cfg, seed=seed)
    recorder = StreamRecorder().attach(system)
    workload = FuzzWorkload(spec)
    workload.build(system)
    StallWatchdog(system).install()
    system.run_to_completion(limit=limit)
    workload.validate()
    assert system.verifier is not None
    system.verifier.quiesce()
    return FuzzCaseResult(
        spec=spec,
        setting_label=setting.label,
        stream=recorder.canonical(),
        predicted=FunctionalQueueModel().predict(recorder),
        violations=tuple(system.verifier.violations),
        system=system,
    )


def run_fuzz_differential(
    spec: ProgramSpec,
    settings: Sequence["Setting"],
    config: Optional["SystemConfig"] = None,
    seed: int = 0xC0FFEE,
) -> List[str]:
    """Run *spec* under every setting; return cross-flavor mismatches."""
    results = [
        run_fuzz_case(spec, setting, config=config, seed=seed)
        for setting in settings
    ]
    mismatches: List[str] = []
    for result in results:
        mismatches.extend(result.mismatches())
    base = results[0]
    for other in results[1:]:
        mismatches.extend(
            base.stream.diff(other.stream, base.setting_label,
                             other.setting_label)
        )
    return mismatches


# ----------------------------------------------------------------- strategies
if HAVE_HYPOTHESIS:

    def link_specs() -> "st.SearchStrategy[LinkSpec]":
        """Links small enough to keep fuzz cases inside the time budget."""
        return st.builds(
            LinkSpec,
            producers=st.integers(min_value=1, max_value=2),
            consumers=st.integers(min_value=1, max_value=2),
            messages=st.integers(min_value=1, max_value=10),
        )

    def program_specs() -> "st.SearchStrategy[ProgramSpec]":
        """Whole programs: 1–2 links, bounded compute, <= 8 threads."""
        return (
            st.builds(
                ProgramSpec,
                links=st.lists(link_specs(), min_size=1, max_size=2).map(tuple),
                producer_compute=st.integers(min_value=0, max_value=400),
                consumer_compute=st.integers(min_value=0, max_value=400),
            )
            .filter(lambda spec: spec.total_threads <= FUZZ_CORES)
        )
