"""Deterministic discrete-event simulation kernel.

This subpackage replaces the paper's gem5 substrate with a transaction-level
simulator: an event calendar (:class:`Environment`), generator-based
processes, contention primitives (:class:`FifoServer`, :class:`Resource`),
statistics, the instrumentation hook bus and seeded randomness.
"""

from repro.sim.event import Event
from repro.sim.kernel import Environment, NORMAL, URGENT
from repro.sim.process import Process
from repro.sim.resources import FifoServer, Resource
from repro.sim.rng import RngPool, bithash
from repro.sim.stats import Counter, RunningStats, StateTimer, geometric_mean

__all__ = [
    "Counter",
    "Environment",
    "Event",
    "FifoServer",
    "NORMAL",
    "Process",
    "Resource",
    "RngPool",
    "RunningStats",
    "StateTimer",
    "URGENT",
    "bithash",
    "geometric_mean",
]
