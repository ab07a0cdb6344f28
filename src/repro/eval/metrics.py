"""Run metrics: everything the paper's figures report, from one simulation.

:class:`RunMetrics` is collected by :mod:`repro.eval.runner` after a
workload completes and feeds every figure:

* ``exec_cycles``                → Figure 8 (speedups) and Figure 11 x-axis;
* ``avg_line_empty/valid``       → Figure 9 (execution-time breakdown);
* ``push_attempts/failures``     → Figure 10a (failure rates);
* ``bus_utilization``            → Figure 10b;
* ``push_energy``                → Figure 11 y-axis (dynamic SRD push energy,
  proportional to push attempts — each attempt drives the buffers, the
  mapping pipeline and a network packet whether or not it hits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.units import cycles_to_ms


#: Relative energy cost of one SRD push attempt (arbitrary unit; every
#: figure normalizes to the VL baseline so only ratios matter).
ENERGY_PER_PUSH = 1.0


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one workload × setting simulation."""

    workload: str
    setting: str
    exec_cycles: int
    messages_delivered: int
    messages_produced: int

    push_attempts: int
    push_failures: int
    ondemand_pushes: int
    ondemand_failures: int
    spec_pushes: int
    spec_failures: int

    bus_busy_cycles: int
    bus_packets: int
    request_packets: int

    avg_line_empty: float
    avg_line_valid: float

    #: End-to-end message latency samples (push call -> pop return).
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0

    extra: Dict[str, int] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------------
    @property
    def exec_ms(self) -> float:
        return cycles_to_ms(self.exec_cycles)

    @property
    def failure_rate(self) -> float:
        """Failed pushes out of all pushes (Figure 10a)."""
        return self.push_failures / self.push_attempts if self.push_attempts else 0.0

    @property
    def spec_failure_rate(self) -> float:
        return self.spec_failures / self.spec_pushes if self.spec_pushes else 0.0

    @property
    def bus_utilization(self) -> float:
        """Fraction of cycles with a packet on the network (Figure 10b)."""
        if self.exec_cycles <= 0:
            return 0.0
        return min(1.0, self.bus_busy_cycles / self.exec_cycles)

    @property
    def push_energy(self) -> float:
        """Dynamic energy of SRD pushes (Figure 11 y-axis, arbitrary unit)."""
        return ENERGY_PER_PUSH * self.push_attempts

    @property
    def spec_hits(self) -> int:
        """Speculative pushes that landed on an EMPTY line."""
        return self.spec_pushes - self.spec_failures

    @property
    def push_precision(self) -> float:
        """Of the speculative pushes sent, the fraction that landed."""
        return self.spec_hits / self.spec_pushes if self.spec_pushes else 0.0

    @property
    def push_recall(self) -> float:
        """Of the messages delivered, the fraction that arrived
        speculatively (the rest waited on an on-demand request)."""
        if not self.messages_delivered:
            return 0.0
        return min(1.0, self.spec_hits / self.messages_delivered)

    @property
    def wasted_push_bytes(self) -> int:
        """Bus bytes burned by failed speculative pushes (one thrown-away
        cacheline per miss)."""
        from repro.units import CACHELINE_BYTES

        return self.spec_failures * CACHELINE_BYTES

    @property
    def push_frequency(self) -> float:
        """Push attempts per cycle — the Section 4.5 power multiplier."""
        return self.push_attempts / self.exec_cycles if self.exec_cycles else 0.0

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """Execution-time speedup of *self* relative to *baseline*."""
        if self.exec_cycles <= 0:
            raise ValueError("cannot compute speedup of a zero-length run")
        return baseline.exec_cycles / self.exec_cycles

    def normalized_delay(self, baseline: "RunMetrics") -> float:
        """Figure 11 x-axis: execution time normalized to the baseline."""
        return self.exec_cycles / baseline.exec_cycles

    def normalized_energy(self, baseline: "RunMetrics") -> float:
        """Figure 11 y-axis: push energy normalized to the baseline."""
        if baseline.push_energy <= 0:
            raise ValueError("baseline consumed no push energy")
        return self.push_energy / baseline.push_energy
