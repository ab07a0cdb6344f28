"""Shared fixtures: small systems and configurations for fast tests."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.hooks import TransactionHook
from repro.sim.kernel import Environment
from repro.sim.transaction import TxnState
from repro.system import System


#: Ids of the ``env`` fixture.  Kernel unit tests ran under four
#: pending-queue strategies until the kernel settled on one heap, and
#: they keep those four ids; every id builds the same Environment.
QUEUE_IDS = ("batch", "calendar", "heap", "ladder")


def noop(_arg=None) -> None:
    """A ``call_later`` callback that does nothing: an entry that only
    moves the clock when it dispatches."""


@pytest.fixture(params=QUEUE_IDS)
def env(request) -> Environment:
    """A bare Environment."""
    return Environment()


@pytest.fixture
def small_config() -> SystemConfig:
    """A reduced configuration that keeps unit tests fast."""
    return SystemConfig(num_cores=4)


def build_pingpong(system: System, rounds: int = 50, compute: int = 100):
    """Wire a 1:1 producer/consumer pair; returns the collected payloads."""
    lib = system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, core_id=0)
    cons = lib.open_consumer(q, core_id=1)
    received = []

    def producer(ctx):
        for i in range(rounds):
            yield from ctx.push(prod, i)
            yield ctx.compute(compute)

    def consumer(ctx):
        for _ in range(rounds):
            msg = yield from ctx.pop(cons)
            received.append(msg.payload)
            yield ctx.compute(compute)

    system.spawn(0, producer, "producer")
    system.spawn(1, consumer, "consumer")
    return received


def collect_records(system: System):
    """Keep the :class:`~repro.sim.transaction.TransactionRecord` of every
    packet born on *system* from now on.

    Subscribes a :class:`~repro.sim.hooks.TransactionHook` listener that
    keeps ``event.record`` on ``CREATED``, so the log builds the records,
    and returns ``records(kind="message")``: the kept records of *kind*,
    in creation order.
    """
    kept = []

    def keep(event):
        if event.state is TxnState.CREATED:
            kept.append(event.record)

    system.hooks.subscribe(TransactionHook, keep)
    return lambda kind="message": [r for r in kept if r.kind == kind]


@pytest.fixture
def vl_system(small_config) -> System:
    return System(config=small_config, device="vl")


@pytest.fixture
def spamer_system(small_config) -> System:
    return System(config=small_config, device="spamer", algorithm="0delay")
