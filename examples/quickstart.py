#!/usr/bin/env python
"""Quickstart: one hardware queue, one producer, one consumer.

Builds a SPAMeR system, pushes 1000 messages through a 1:1 queue while the
consumer does per-message work, and prints what speculation bought relative
to the Virtual-Link baseline.

Run:  python examples/quickstart.py
"""

from repro import System
from repro.units import cycles_to_us

MESSAGES = 1000
PRODUCER_WORK = 120   # cycles between pushes
CONSUMER_WORK = 260   # cycles of processing per message


def build_and_run(device: str, algorithm=None) -> System:
    system = System(device=device, algorithm=algorithm)
    queue = system.library.create_queue()
    producer_ep = system.library.open_producer(queue, core_id=0)
    consumer_ep = system.library.open_consumer(queue, core_id=1)

    def producer(ctx):
        for i in range(MESSAGES):
            yield from ctx.push(producer_ep, i)
            yield ctx.compute(PRODUCER_WORK)

    def consumer(ctx):
        total = 0
        for _ in range(MESSAGES):
            msg = yield from ctx.pop(consumer_ep)
            total += msg.payload
            yield ctx.compute(CONSUMER_WORK)
        assert total == MESSAGES * (MESSAGES - 1) // 2

    system.spawn(0, producer, "producer")
    system.spawn(1, consumer, "consumer")
    system.run_to_completion()
    return system


def main() -> None:
    baseline = build_and_run("vl")
    spamer = build_and_run("spamer", algorithm="tuned")

    for name, system in (("Virtual-Link", baseline), ("SPAMeR(tuned)", spamer)):
        stats = system.device.stats
        empty, _valid = system.consumer_line_cycles()
        print(
            f"{name:14s} {cycles_to_us(system.env.now):8.1f} us  "
            f"pushes={stats.get('push_attempts'):5d} "
            f"failed={stats.get('push_failures'):4d} "
            f"speculative={stats.get('spec_pushes'):5d} "
            f"bus={system.network.utilization():6.2%} "
            f"avg-line-empty={empty:9.0f} cyc"
        )
    speedup = baseline.env.now / spamer.env.now
    print(f"\nspeculative push speedup: {speedup:.2f}x")


if __name__ == "__main__":
    main()
