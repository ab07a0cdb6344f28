"""Figure 1 motivation experiment: software queue vs Virtual-Link vs SPAMeR.

Runs the same ping-pong exchange over (a) the coherence-based software
queue (Figure 1a), (b) the Virtual-Link hardware queue (Figure 1b) and
(c) SPAMeR (Figure 1c), and reports the cross-core message latency each
mechanism achieves — the ``Lc > Lv > Ls`` ordering the paper's Figure 1
illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.mem.coherence import CoherentMemorySystem
from repro.sim.kernel import Environment
from repro.swqueue.msqueue import SoftwareQueue
from repro.system import System


@dataclass(frozen=True)
class LatencyResult:
    """Round-trip derived per-message latency for one mechanism."""

    mechanism: str
    messages: int
    total_cycles: int
    coherence_packets: int

    @property
    def cycles_per_message(self) -> float:
        return self.total_cycles / self.messages if self.messages else 0.0


def run_software_pingpong(
    messages: int = 500,
    config: Optional[SystemConfig] = None,
    capacity: int = 8,
) -> LatencyResult:
    """Ping-pong over two software queues on the MOESI substrate."""
    cfg = config or DEFAULT_CONFIG
    env = Environment()
    memory = CoherentMemorySystem(env, cfg)
    q_ab = SoftwareQueue(memory, base_addr=0x10000, capacity=capacity)
    q_ba = SoftwareQueue(memory, base_addr=0x20000, capacity=capacity)

    def side_a():
        for i in range(messages):
            yield from q_ab.enqueue(0, i)
            value = yield from q_ba.dequeue(0)
            assert value == i, f"software queue corrupted: {value} != {i}"

    def side_b():
        for _ in range(messages):
            value = yield from q_ab.dequeue(1)
            yield from q_ba.enqueue(1, value)

    env.process(side_a(), name="sw-a")
    env.process(side_b(), name="sw-b")
    env.run_until_complete()
    memory.check_coherence_invariant()
    return LatencyResult(
        mechanism="software (MOESI)",
        messages=2 * messages,
        total_cycles=env.now,
        coherence_packets=memory.network.total_packets,
    )


def run_hardware_pingpong(
    messages: int = 500,
    device: str = "vl",
    config: Optional[SystemConfig] = None,
) -> LatencyResult:
    """The same ping-pong over the hardware queue (VL or SPAMeR)."""
    system = System(config=config, device=device,
                    algorithm="0delay" if device == "spamer" else None)
    lib = system.library
    q_ab, q_ba = lib.create_queue(), lib.create_queue()
    prod_a = lib.open_producer(q_ab, 0)
    cons_b = lib.open_consumer(q_ab, 1)
    prod_b = lib.open_producer(q_ba, 1)
    cons_a = lib.open_consumer(q_ba, 0)

    def side_a(ctx):
        for i in range(messages):
            yield from ctx.push(prod_a, i)
            msg = yield from ctx.pop(cons_a)
            assert msg.payload == i

    def side_b(ctx):
        for _ in range(messages):
            msg = yield from ctx.pop(cons_b)
            yield from ctx.push(prod_b, msg.payload)

    system.spawn(0, side_a, "hw-a")
    system.spawn(1, side_b, "hw-b")
    system.run_to_completion()
    return LatencyResult(
        mechanism="Virtual-Link" if device == "vl" else "SPAMeR",
        messages=2 * messages,
        total_cycles=system.env.now,
        coherence_packets=system.network.total_packets,
    )


def motivation_experiment(
    messages: int = 500, config: Optional[SystemConfig] = None
) -> Dict[str, LatencyResult]:
    """Figure 1: per-message latency of the three mechanisms."""
    return {
        "software": run_software_pingpong(messages, config=config),
        "virtual-link": run_hardware_pingpong(messages, device="vl", config=config),
        "spamer": run_hardware_pingpong(messages, device="spamer", config=config),
    }
