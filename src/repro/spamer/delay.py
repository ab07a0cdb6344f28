"""Delay-prediction algorithms (Section 3.5, Listing 1, Figure 6).

Speculation in SPAMeR answers two questions; *which* cacheline to push to is
handled by specBuf rotation, and *when* to push is delegated to one of the
pluggable algorithms here:

* :class:`ZeroDelay` — push as soon as producer data is available; never
  misses an opportunity but wastes bus bandwidth and energy on failures.
* :class:`AdaptiveDelay` — halve the per-endpoint delay on a successful
  push, double it on a failure; cheap but "too simple to fully model the
  consumer behavior" (it learns FIR's slow-path period).
* :class:`TunedDelay` — the paper's Listing 1: uses the interval between
  the two most recent successful pushes as a reference and scans a window
  ``[ref - τ, ref + ζ]`` around it in additive steps of δ, escalating
  multiplicatively (left shift by α) past the deadline; β controls the
  initialization phase.
* :class:`FixedDelay` / :class:`NeverPush` — ablation controls beyond the
  paper's minimum.

All state lives in the :class:`~repro.spamer.specbuf.SpecEntry` latches
(per-endpoint isolation, Section 3.6); algorithm instances are stateless
policy objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.registry import ALGORITHMS
from repro.sim.rng import bithash
from repro.spamer.specbuf import SpecEntry

#: Liveness cap: spec-enabled endpoints have no request fallback (their
#: dequeue path skips vl_fetch entirely — Section 3.4), so a delay allowed
#: to grow without bound would stall the consumer forever.
MAX_DELAY = 1 << 15


class DelayAlgorithm:
    """Interface: decide the send tick and learn from push responses."""

    #: Registry name (set by ``ALGORITHMS.register``).
    name = "abstract"

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        """Absolute cycle to send the speculative push (None = never)."""
        raise NotImplementedError

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        """Update the entry's latches with the hit/miss response signal."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


@ALGORITHMS.register("0delay")
class ZeroDelay(DelayAlgorithm):
    """Push immediately whenever producer data is available (Section 3.5)."""

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        return now

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        entry.failed = not hit
        if hit:
            entry.nfills += 1
            entry.last = now


@ALGORITHMS.register("adapt")
class AdaptiveDelay(DelayAlgorithm):
    """Halve the delay on success, double it on failure (Section 3.5)."""

    def __init__(self, initial_delay: int = 64, max_delay: int = MAX_DELAY) -> None:
        if initial_delay < 0 or max_delay < 1:
            raise ConfigError("AdaptiveDelay: invalid delay bounds")
        self.initial_delay = initial_delay
        self.max_delay = max_delay

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        if entry.nfills == 0 and entry.delay == 0 and not entry.failed:
            entry.delay = self.initial_delay
        return now + entry.delay

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        if hit:
            entry.delay >>= 1
            entry.nfills += 1
            entry.last = now
        else:
            entry.delay = min(self.max_delay, max(1, entry.delay << 1))
        entry.failed = not hit


@dataclass(frozen=True)
class TunedParams:
    """The five tuned-algorithm parameters (orange Greek letters, Fig 6).

    Defaults are the paper's chosen set, tuned on FIR and cross-validated on
    the other benchmarks: ζ=256, τ=96, δ=64, α=1, β=2.
    """

    zeta: int = 256   # ζ: deadline margin past the reference interval
    tau: int = 96     # τ: how far below the reference the scan starts
    delta: int = 64   # δ: additive step within the scanning range
    alpha: int = 1    # α: left-shift applied past the deadline
    beta: int = 2     # β: length of the initialization phase (in fills)

    def __post_init__(self) -> None:
        if self.zeta < 0 or self.tau < 0 or self.delta < 1:
            raise ConfigError(f"invalid tuned parameters: {self}")
        if self.alpha < 0 or self.beta < 1:
            raise ConfigError(f"invalid tuned parameters: {self}")

    def label(self) -> str:
        return (
            f"z{self.zeta}-t{self.tau}-d{self.delta}-a{self.alpha}-b{self.beta}"
        )


@ALGORITHMS.register("tuned")
class TunedDelay(DelayAlgorithm):
    """The paper's tuned delay prediction (Listing 1)."""

    def __init__(self, params: TunedParams = TunedParams(), max_delay: int = MAX_DELAY) -> None:
        self.params = params
        self.max_delay = max_delay

    # -- Listing 1, lookupSpecTab ------------------------------------------------
    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        p = self.params
        tsc = now
        halved = entry.delay >> bithash(entry.delay, tsc)
        elapse = tsc - entry.last
        if entry.nfills < p.beta:
            # Initializing phase: no reference interval yet.
            return tsc + (p.delta if entry.failed else 0)
        if elapse < halved:
            # Early enough to try the (hash-)halved delay.
            return entry.last + halved
        if elapse < entry.delay:
            # Early enough for the planned delay.
            return entry.last + entry.delay
        if not entry.failed:
            # Data became available later than planned; try right away.
            return tsc
        if elapse < entry.ddl:
            # Planned delay fell behind but the deadline has not passed:
            # scan forward in additive steps.
            return tsc + p.delta
        return tsc + min(entry.delay, self.max_delay)

    # -- Listing 1, updateResponse -----------------------------------------------
    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        p = self.params
        tsc = now
        if hit:
            # The interval between the two most recent hits is the reference;
            # [ref - tau, ref + zeta] becomes the next scanning range.
            entry.delay = max(0, tsc - p.tau - entry.last)
            entry.ddl = tsc + p.zeta - entry.last
            entry.nfills += 1
            entry.last = tsc
        else:
            stepped = entry.delay + p.delta
            doubled = entry.delay << p.alpha
            if entry.delay < entry.ddl:
                # Before the deadline: retry after an additive step.
                entry.delay = min(self.max_delay, stepped)
            else:
                # Past the deadline: escalate multiplicatively.
                entry.delay = min(self.max_delay, max(stepped, doubled))
        entry.failed = not hit


@ALGORITHMS.register("fixed", requires_params=True)
class FixedDelay(DelayAlgorithm):
    """Ablation control: always wait a constant number of cycles."""

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ConfigError(f"FixedDelay: negative delay {delay}")
        self.delay = delay

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        return now + self.delay

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        entry.failed = not hit
        if hit:
            entry.nfills += 1
            entry.last = now


@ALGORITHMS.register("never")
class NeverPush(DelayAlgorithm):
    """Ablation control: speculation disabled (degenerates to VL behaviour
    for endpoints that still issue requests).

    Spec-enabled endpoints never issue fetches, so running this setting on
    a workload whose consumers are speculative stalls by construction: the
    stall watchdog detects it and raises
    :class:`~repro.errors.SimDeadlockError` naming the blocked consumers —
    the diagnostic that makes the ablation safe to offer as a setting.
    """

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        return None

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:  # pragma: no cover
        raise AssertionError("NeverPush cannot receive responses")

