"""The top-level System facade: wire a full machine together.

A :class:`System` bundles the simulation environment, the coherence
network, the cores, the routing device (baseline VLRD or SPAMeR SRD) and
the queue library, and provides thread spawning and run control.  This is
the main entry point of the public API::

    from repro import System

    sys_ = System(device="spamer", algorithm="tuned")
    q = sys_.library.create_queue()
    prod = sys_.library.open_producer(q, core_id=0)
    cons = sys_.library.open_consumer(q, core_id=1)

    def producer(ctx):
        for i in range(100):
            yield from ctx.push(prod, i)
            yield ctx.compute(200)

    def consumer(ctx):
        for _ in range(100):
            msg = yield from ctx.pop(cons)
            yield ctx.compute(150)

    sys_.spawn(0, producer, "producer")
    sys_.spawn(1, consumer, "consumer")
    sys_.run_to_completion()
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING, Union

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.cpu.core import Core
from repro.cpu.thread import ThreadContext
from repro.mem.address import AddressSpace
from repro.net.topology import Topology
from repro.registry import ALGORITHMS, DEVICES, TOPOLOGIES
from repro.sim.hooks import HookBus
from repro.sim.kernel import Environment
from repro.sim.process import Process
from repro.sim.request import RequestLog
from repro.sim.rng import RngPool
from repro.sim.transaction import TransactionLog
from repro.spamer.delay import DelayAlgorithm
from repro.spamer.security import SecurityPolicy
from repro.vlink.library import QueueLibrary
from repro.vlink.vlrd import VirtualLinkRoutingDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class System:
    """A simulated multi-core machine with a hardware message queue."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        device: str = "vl",
        algorithm: Union[str, DelayAlgorithm, None] = None,
        seed: int = 0xC0FFEE,
        security: Optional[SecurityPolicy] = None,
        hooks: Optional[HookBus] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config or DEFAULT_CONFIG
        self.env = Environment()
        self.rng = RngPool(seed)
        #: One instrumentation bus shared by every component of the system.
        self.hooks = hooks if hooks is not None else HookBus()
        #: Transaction id allocator; records are built only when a
        #: TransactionHook subscriber is on the bus as the packet is born.
        self.transactions = TransactionLog(self.hooks)
        #: Open-system request lifecycle log (inactive until an
        #: open-capable workload plans sessions under an open arrival
        #: process; closed-batch runs never touch it).
        self.requests = RequestLog(hooks=self.hooks)
        #: The coherence network: the registered fabric itself.
        self.network: Topology = TOPOLOGIES.resolve(self.config.topology)(
            self.env, self.config, hooks=self.hooks
        )
        self.addr_space = AddressSpace(self.config.dram_bytes)

        spec = DEVICES.resolve(device)
        if spec.accepts_algorithm and algorithm is None:
            algorithm = spec.default_algorithm
        if isinstance(algorithm, str):
            algorithm = ALGORITHMS.resolve(algorithm).factory()
        self.devices: List[VirtualLinkRoutingDevice] = [
            spec.build(
                self.env,
                self.config,
                self.network,
                algorithm=algorithm,
                hooks=self.hooks,
                security=security,
            )
            for _ in range(self.config.num_srds)
        ]
        # Each shard learns its index so it knows its network node on NoC
        # topologies (cross-shard traffic pays real distance).
        for index, shard in enumerate(self.devices):
            shard.srd_index = index
        self.device_name = device
        self.cores: List[Core] = [
            Core(self.env, i, self.config) for i in range(self.config.num_cores)
        ]
        self.library = QueueLibrary(self)
        #: Live invariant checker (attached when ``config.verify`` is set).
        self.verifier = None
        if self.config.verify:
            from repro.verify.invariants import InvariantChecker

            self.verifier = InvariantChecker(self)
        self._threads: List[Process] = []
        #: End-to-end message latency (push call -> consumer's pop return),
        #: one sample per delivered message.
        from repro.sim.stats import RunningStats

        self.latency_stats = RunningStats(keep_samples=True)
        #: Optional observability registry (None = fully disabled; the hook
        #: publishers' ``hooks.wanted`` guards then skip all instrumentation).
        #: When set, a MetricsCollector subscribes before any event fires
        #: and run_to_completion() records the run-boundary gauges.
        self.metrics = metrics
        if metrics is not None:
            from repro.obs.collector import MetricsCollector

            MetricsCollector(self.hooks, metrics)

    # ------------------------------------------------------------------ wiring
    @property
    def device(self) -> VirtualLinkRoutingDevice:
        """The first routing device (the only one on default configs)."""
        return self.devices[0]

    def device_for(self, sqi: int) -> VirtualLinkRoutingDevice:
        """The routing device owning *sqi* (SQIs shard across routers)."""
        return self.devices[sqi % len(self.devices)]

    @property
    def supports_speculation(self) -> bool:
        """Whether consumer endpoints may register for speculative pushes
        (a class attribute of the registered device flavor)."""
        return bool(self.device.supports_speculation)

    @property
    def spec_default(self) -> bool:
        """New consumer endpoints default to speculative on SPAMeR builds."""
        return self.supports_speculation

    def spawn(
        self,
        core_id: int,
        program: Callable[[ThreadContext], object],
        name: Optional[str] = None,
    ) -> Process:
        """Pin a thread program to a core and start it."""
        core = self.cores[core_id]
        label = name or f"{program.__name__}@core{core_id}"
        ctx = ThreadContext(self, core, label)
        process = core.pin(program(ctx), label)
        self._threads.append(process)
        return process

    @property
    def threads(self) -> List[Process]:
        return list(self._threads)

    # ------------------------------------------------------------------ running
    def run_to_completion(self, limit: Optional[int] = None) -> int:
        """Run until every spawned thread finishes; returns the end time.

        Raises :class:`~repro.errors.SimDeadlockError` naming the
        unfinished threads when the queue drains first, and
        :class:`~repro.errors.SimulationError` when *limit* cycles pass
        first.
        """
        self.env.run_until_complete(limit=limit)
        if self.metrics is not None:
            from repro.obs.collector import finalize_system

            finalize_system(self, self.metrics)
        return self.env.now

    def run(self, until: Optional[int] = None) -> int:
        """Run the raw event loop (mainly for tests and examples)."""
        return self.env.run(until=until)

    def close(self) -> None:
        """Break the reference cycles of a finished run.

        Drops the kernel's leftover queue entries and watchdog, the
        library's and the invariant checker's back-references to this
        system, and each mapping pipeline's bound dispatch method, so the
        system is freed by reference counting once its last outside
        reference goes instead of waiting for a full collection.  Results
        stay readable (metrics, counters, latency samples, the kernel's
        clock and event counts); the system can no longer run, and the
        suspended generators of its unfinished threads are closed.  A
        thread that failed drops its exception: the run raised that
        error, and its traceback reaches back into this system.
        """
        for thread in self._threads:
            if not thread._ok:
                thread._value = None
        self.env.close()
        self.library.system = None
        for device in self.devices:
            device.pipeline.close()
        if self.verifier is not None:
            self.verifier.detach()
            self.verifier.system = None

    # ------------------------------------------------------------------ metrics
    def aggregate_device_stats(self):
        """Sum the stat counters of every routing device (multi-router)."""
        from repro.sim.stats import Counter

        if len(self.devices) == 1:
            return self.devices[0].stats
        total = Counter()
        for device in self.devices:
            for key, value in device.stats.as_dict().items():
                total.counts[key] += value
        return total

    def consumer_line_cycles(self) -> tuple:
        """(average empty cycles, average valid cycles) across all consumer
        cachelines — the Figure 9 breakdown."""
        lines = [line for ep in self.library.consumers for line in ep.lines]
        if not lines:
            return 0.0, 0.0
        empty = sum(line.empty_cycles() for line in lines) / len(lines)
        valid = sum(line.valid_cycles() for line in lines) / len(lines)
        return empty, valid

    def messages_delivered(self) -> int:
        return sum(ep.pops for ep in self.library.consumers)

    def messages_produced(self) -> int:
        return sum(ep.pushes for ep in self.library.producers)
