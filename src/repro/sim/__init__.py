"""Deterministic discrete-event simulation kernel.

This subpackage replaces the paper's gem5 substrate with a transaction-level
simulator: an event calendar (:class:`Environment`), generator-based
processes, contention primitives (:class:`Resource`, :class:`Store`,
:class:`FifoServer`), statistics, the instrumentation hook bus and seeded
randomness.
"""

from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Environment, NORMAL, URGENT
from repro.sim.process import Process
from repro.sim.resources import FifoServer, Resource, Store
from repro.sim.rng import RngPool, bithash
from repro.sim.stats import Counter, RunningStats, StateTimer, geometric_mean

__all__ = [
    "AllOf",
    "AnyOf",
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
    "Store",
    "Timeout",
    "URGENT",
    "bithash",
    "geometric_mean",
]
