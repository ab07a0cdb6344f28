"""Statistics collection: counters, time-weighted state tracking, summaries.

The evaluation needs three kinds of measurement:

* plain event counters (push attempts, failures, packets) — :class:`Counter`;
* time-in-state accounting for consumer cachelines (empty vs non-empty
  cycles, Figure 9) — :class:`StateTimer`;
* distribution summaries for latencies (Figure 7 analysis) —
  :class:`RunningStats`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class Counter:
    """A named bundle of integer event counters.

    :attr:`counts` is a plain ``defaultdict(int)``: a call site counts
    with ``counter.counts[key] += 1`` and enters no Python frame.  A key
    appears once it has been counted.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)

    def get(self, key: str) -> int:
        return self.counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({dict(self.counts)!r})"


class StateTimer:
    """Tracks how long an entity spends in each state.

    Drives the Figure 9 breakdown: each consumer cacheline owns a StateTimer
    toggling between ``"empty"`` and ``"valid"``; at the end of the run the
    accumulated cycles are averaged across lines.
    """

    __slots__ = ("env", "_state", "_since", "_accum")

    def __init__(self, env: "Environment", initial_state: Hashable) -> None:
        self.env = env
        self._state = initial_state
        self._since = env.now
        self._accum: Dict[Hashable, int] = defaultdict(int)

    @property
    def state(self) -> Hashable:
        return self._state

    def transition(self, new_state: Hashable) -> None:
        """Switch to *new_state*, charging elapsed time to the old state."""
        now = self.env._now
        self._accum[self._state] += now - self._since
        self._state = new_state
        self._since = now

    def time_in(self, state: Hashable, up_to_now: bool = True) -> int:
        """Total cycles spent in *state* (including the open interval)."""
        total = self._accum.get(state, 0)
        if up_to_now and self._state == state:
            total += self.env.now - self._since
        return total

    def close(self) -> None:
        """Charge the open interval (call at end of measurement)."""
        self.transition(self._state)


class RunningStats:
    """Streaming mean/variance/min/max plus an optional sample reservoir."""

    __slots__ = ("n", "_mean", "_m2", "minimum", "maximum", "_samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        # Conditional expressions instead of min()/max(): the same result
        # (the old extreme wins a tie) without a builtin call per sample.
        low, high = self.minimum, self.maximum
        self.minimum = x if low is None or x < low else low
        self.maximum = x if high is None or x > high else high
        if self._samples is not None:
            self._samples.append(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self._mean * self.n

    @property
    def samples(self) -> List[float]:
        if self._samples is None:
            raise ValueError("RunningStats was created with keep_samples=False")
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the *q*-th percentile (0..100) from the kept samples."""
        data = sorted(self.samples)
        if not data:
            raise ValueError("no samples collected")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        idx = (len(data) - 1) * q / 100.0
        lo, hi = int(math.floor(idx)), int(math.ceil(idx))
        if lo == hi:
            return data[lo]
        frac = idx - lo
        return data[lo] * (1 - frac) + data[hi] * frac


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, the aggregation the paper uses for Figure 8."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean needs strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
