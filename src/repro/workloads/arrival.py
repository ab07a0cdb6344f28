"""Arrival processes: the open-system traffic layer.

Every workload historically ran as a *closed batch* — all work injected at
t=0, the run ending when the batch drains — which can only report batch
runtime.  An :class:`ArrivalProcess` turns each request-generating thread
(an incast producer, a pipeline generator, the FIR source) into a
*session* whose requests arrive over simulated time, so sustained offered
load, per-request sojourn times and saturation behaviour become
measurable (docs/MODEL.md, "Open-system traffic").

Design constraints, mirroring the rest of the substrate:

* **Registry-driven** like devices and topologies: a new process is one
  class decorated with ``ARRIVALS.register`` (:mod:`repro.registry`), and
  :class:`ArrivalSpec` builds it by name from the CLI or a batch spec.
* **Deterministic** — every draw comes from a named
  :class:`~repro.sim.rng.RngPool` stream keyed by the *session* name, so
  the same master seed produces byte-identical schedules in any worker
  process (``--jobs N`` invariance) and adding a session never perturbs
  another's sequence.
* **Closed batch is the zero-cost special case** —
  :class:`ClosedBatch.plan` returns all-zero ticks without touching the
  RNG pool, so default runs draw no extra randomness, schedule no extra
  events, and keep every golden metric and trace fixture byte-identical.

Schedules are *planned at build time*: :meth:`ArrivalProcess.plan` returns
the absolute arrival ticks for one session up front (including the effect
of churn — a departing session simply has a shorter schedule), which lets
workloads size their consumer loops and :class:`~repro.workloads.base.
WorkCounter` targets before any thread runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple, TYPE_CHECKING

from repro.errors import ConfigError, WorkloadError
from repro.registry import ARRIVALS

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.rng import RngPool


class ArrivalProcess(ABC):
    """When a session's requests arrive, as absolute simulation ticks."""

    #: Registry name (set by ``ARRIVALS.register``).
    name = "abstract"
    #: True only for :class:`ClosedBatch`: all requests at t=0, no RNG.
    is_closed = False

    def __init__(self, churn: float = 0.0) -> None:
        if not 0.0 <= churn <= 1.0:
            raise ConfigError(f"churn must be in [0, 1], got {churn}")
        #: Probability that a session departs before issuing its full
        #: quota (client churn).  A churned session's schedule is simply
        #: truncated — it issued fewer requests, it did not fail.
        self.churn = churn

    # ------------------------------------------------------------------- plan
    def plan(self, rng_pool: "RngPool", session: str, count: int) -> List[int]:
        """Absolute arrival ticks for *session*, one per issued request.

        The returned list is ``count`` long unless churn truncates it
        (never below one request).  All randomness derives from streams
        named after *session*, so plans are independent across sessions
        and bit-identical across processes for one master seed.
        """
        if count < 1:
            raise WorkloadError(f"session {session!r} needs >= 1 requests")
        quota = self._quota(rng_pool, session, count)
        gaps = self.interarrivals(rng_pool.stream(f"arrival:{session}"), quota)
        ticks: List[int] = []
        now = 0
        for gap in gaps:
            now += max(0, int(gap))
            ticks.append(now)
        return ticks

    def _quota(self, rng_pool: "RngPool", session: str, count: int) -> int:
        """Requests the session issues before (maybe) departing.

        Drawn from a dedicated ``:churn`` stream so enabling churn never
        perturbs the interarrival sequence itself.
        """
        if self.churn <= 0.0:
            return count
        rng = rng_pool.stream(f"arrival:{session}:churn")
        if rng.uniform() >= self.churn:
            return count
        return max(1, int(round(rng.uniform() * count)))

    @abstractmethod
    def interarrivals(self, rng: "np.random.Generator", count: int) -> List[int]:
        """Gaps (cycles) between consecutive requests; first gap is the
        session's join offset, letting sessions start mid-run."""

    def label(self) -> str:
        churn = f",churn={self.churn:g}" if self.churn else ""
        return f"{self.name}({self._param_label()}{churn})"

    def _param_label(self) -> str:
        return ""


@dataclass(frozen=True)
class ArrivalSpec:
    """A picklable arrival process, by registry name plus parameters.

    The open-system analogue of :class:`~repro.eval.runner.TunedFactory`:
    a :class:`~repro.eval.parallel.RunRequest` carries this across the
    process boundary and the worker rebuilds the process via
    :meth:`build`, so load sweeps fan out exactly like figure grids.
    """

    name: str = "closed"
    params: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def make(cls, name: str, **params) -> "ArrivalSpec":
        return cls(name, tuple(sorted(params.items())))

    def build(self) -> ArrivalProcess:
        return ARRIVALS.resolve(self.name)(**dict(self.params))


# ------------------------------------------------------------------- processes
@ARRIVALS.register("closed")
class ClosedBatch(ArrivalProcess):
    """The historical model: every request available at t=0.

    ``plan`` never touches the RNG pool and ignores churn (a closed batch
    has no notion of a session leaving), so default runs stay
    byte-identical to the pre-arrival-process code.
    """

    is_closed = True

    def __init__(self, churn: float = 0.0) -> None:
        super().__init__(churn=0.0)

    def plan(self, rng_pool: "RngPool", session: str, count: int) -> List[int]:
        if count < 1:
            raise WorkloadError(f"session {session!r} needs >= 1 requests")
        return [0] * count

    def interarrivals(self, rng, count: int) -> List[int]:
        return [0] * count


#: The default arrival process every workload runs under.
CLOSED_BATCH = ClosedBatch()


@ARRIVALS.register("poisson")
class Poisson(ArrivalProcess):
    """Exponential interarrivals at ``rate`` requests per cycle.

    The canonical open-system source (M/·/· queueing): memoryless gaps
    with mean ``1/rate`` cycles.  Offered load is swept by scaling the
    rate relative to the closed-batch service rate (see
    :mod:`repro.eval.load`).
    """

    def __init__(self, rate: float = 0.001, churn: float = 0.0) -> None:
        super().__init__(churn=churn)
        if rate <= 0:
            raise ConfigError(f"rate must be > 0 requests/cycle, got {rate}")
        self.rate = float(rate)

    def interarrivals(self, rng, count: int) -> List[int]:
        gaps = rng.exponential(1.0 / self.rate, size=count)
        return [max(1, int(round(g))) for g in gaps]

    def _param_label(self) -> str:
        return f"rate={self.rate:g}"


@ARRIVALS.register("bursty")
class Bursty(ArrivalProcess):
    """A two-state Markov-modulated Poisson process.

    The session alternates between a *burst* state (fast arrivals at
    ``rate * boost``) and a *lull* state (slow arrivals at
    ``rate / boost``); after each arrival it switches state with
    probability ``switch``.  The mean rate stays near ``rate`` while the
    interarrival distribution becomes bimodal — the same hard-to-predict
    pattern the FIR source bakes into its compute gaps (Section 4.3),
    now available to every open-capable workload.
    """

    def __init__(
        self,
        rate: float = 0.001,
        boost: float = 4.0,
        switch: float = 0.1,
        churn: float = 0.0,
    ) -> None:
        super().__init__(churn=churn)
        if rate <= 0:
            raise ConfigError(f"rate must be > 0 requests/cycle, got {rate}")
        if boost < 1.0:
            raise ConfigError(f"boost must be >= 1, got {boost}")
        if not 0.0 < switch <= 1.0:
            raise ConfigError(f"switch must be in (0, 1], got {switch}")
        self.rate = float(rate)
        self.boost = float(boost)
        self.switch = float(switch)

    def interarrivals(self, rng, count: int) -> List[int]:
        gaps: List[int] = []
        burst = True
        for _ in range(count):
            rate = self.rate * self.boost if burst else self.rate / self.boost
            gaps.append(max(1, int(round(rng.exponential(1.0 / rate)))))
            if rng.uniform() < self.switch:
                burst = not burst
        return gaps

    def _param_label(self) -> str:
        return f"rate={self.rate:g},boost={self.boost:g},switch={self.switch:g}"


@ARRIVALS.register("ramp")
class DiurnalRamp(ArrivalProcess):
    """A non-stationary source whose rate ramps from ``rate_lo`` to
    ``rate_hi`` over ``period`` cycles, then holds.

    The discrete-event analogue of a diurnal traffic curve compressed to
    one rising edge: early requests arrive sparsely, late ones densely,
    so a single run walks the system from light load into (past)
    saturation.  Gaps are drawn from the instantaneous rate at the
    previous arrival's tick (a piecewise-exponential approximation).
    """

    def __init__(
        self,
        rate_lo: float = 0.0005,
        rate_hi: float = 0.002,
        period: int = 200_000,
        churn: float = 0.0,
    ) -> None:
        super().__init__(churn=churn)
        if rate_lo <= 0 or rate_hi <= 0:
            raise ConfigError("rates must be > 0 requests/cycle")
        if rate_hi < rate_lo:
            raise ConfigError(
                f"rate_hi={rate_hi} must be >= rate_lo={rate_lo} (a ramp climbs)"
            )
        if period < 1:
            raise ConfigError(f"period must be >= 1 cycle, got {period}")
        self.rate_lo = float(rate_lo)
        self.rate_hi = float(rate_hi)
        self.period = int(period)

    def rate_at(self, tick: int) -> float:
        """Instantaneous rate: linear ramp, clamped past the period."""
        frac = min(1.0, max(0.0, tick / self.period))
        return self.rate_lo + (self.rate_hi - self.rate_lo) * frac

    def interarrivals(self, rng, count: int) -> List[int]:
        gaps: List[int] = []
        now = 0
        for _ in range(count):
            gap = max(1, int(round(rng.exponential(1.0 / self.rate_at(now)))))
            gaps.append(gap)
            now += gap
        return gaps

    def _param_label(self) -> str:
        return (
            f"lo={self.rate_lo:g},hi={self.rate_hi:g},period={self.period}"
        )


def resolve_arrival(arrival) -> ArrivalProcess:
    """Normalize None / a spec / an instance to an :class:`ArrivalProcess`."""
    if arrival is None:
        return CLOSED_BATCH
    if isinstance(arrival, ArrivalSpec):
        return arrival.build()
    if isinstance(arrival, ArrivalProcess):
        return arrival
    raise ConfigError(
        f"expected an ArrivalProcess, ArrivalSpec or None, got {arrival!r}"
    )
