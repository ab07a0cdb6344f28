"""The process-wide metrics registry: counters, gauges, histograms.

Every instrument lives in one :class:`MetricsRegistry` keyed by a dotted
metric name (``bus.packets.stash``, ``txn.stage.pushed->mapped``, …; the
full catalogue is docs/OBSERVABILITY.md).  Model code never holds a
registry: a :class:`~repro.obs.collector.MetricsCollector` subscribed on
the hook bus feeds it.  With observability off (``System(metrics=None)``)
nothing subscribes, every publisher's ``hooks.wanted`` guard stays False
and no code of this package runs (``tests/test_obs_silent.py`` counts the
calls).

Design constraints (shared with :mod:`repro.sim.hooks`):

* **Sim-time only** — windowed histograms are stamped with
  simulation ticks, never wall-clock, so every exported document is
  byte-stable across ``--jobs`` and across machines.
* **No timing impact** — recording schedules no simulation events and draws
  no randomness; attaching a registry never changes a run's tick sequence.
* **Deterministic export** — :meth:`MetricsRegistry.as_dict` sorts every
  key, and :meth:`MetricsRegistry.to_json` fixes separators, so equal runs
  serialize to equal bytes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional


class WindowedHistogram:
    """A fixed-bucket histogram over a sliding sample window.

    Buckets are ``value // bucket_width``; only the most recent *window*
    samples contribute (older samples age out in arrival order), so a
    long run's histogram reflects recent behaviour instead of averaging
    over a whole warm-up.  ``window=0`` keeps everything (cumulative).
    """

    __slots__ = ("bucket_width", "window", "_samples", "_buckets", "count",
                 "total", "_head")

    def __init__(self, bucket_width: int = 16, window: int = 0) -> None:
        if bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.bucket_width = bucket_width
        self.window = window
        #: Ring buffer of windowed samples (None = cumulative mode).
        self._samples: Optional[List[int]] = [] if window else None
        self._head = 0
        self._buckets: Dict[int, int] = {}
        #: Lifetime sample count / sum (never age out; for means and rates).
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        bucket = max(0, value) // self.bucket_width
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        if self._samples is None:
            return
        if len(self._samples) < self.window:
            self._samples.append(value)
            return
        # Window full: age out the oldest sample's bucket contribution.
        old = self._samples[self._head]
        old_bucket = max(0, old) // self.bucket_width
        remaining = self._buckets[old_bucket] - 1
        if remaining:
            self._buckets[old_bucket] = remaining
        else:
            del self._buckets[old_bucket]
        self._samples[self._head] = value
        self._head = (self._head + 1) % self.window

    # ------------------------------------------------------------------ queries
    @property
    def windowed_count(self) -> int:
        """Samples currently inside the window."""
        if self._samples is None:
            return self.count
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Lifetime mean (windowing never distorts rate reporting)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0..100) from the windowed buckets.

        Resolution is one bucket: the returned value is the upper edge of
        the bucket holding the q-th windowed sample — exact enough for the
        stage-latency reports and computable without keeping raw samples.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        n = self.windowed_count
        if n == 0:
            return 0.0
        rank = min(n, max(1, int(math.ceil(q / 100.0 * n))))
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                return float((bucket + 1) * self.bucket_width - 1)
        return float((max(self._buckets) + 1) * self.bucket_width - 1)

    def buckets(self) -> Dict[int, int]:
        """Windowed bucket counts keyed by bucket lower edge."""
        return {b * self.bucket_width: n for b, n in sorted(self._buckets.items())}


class MetricsRegistry:
    """One namespace of counters, gauges and windowed histograms.

    The registry is plain bookkeeping: incrementing a counter allocates at
    most one dict slot, and export walks sorted keys so two identical runs
    produce identical documents.  Observability is off when no registry is
    attached at all (``metrics=None``): nothing then records or subscribes.
    """

    def __init__(
        self, histogram_bucket_width: int = 16, histogram_window: int = 4096
    ) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, WindowedHistogram] = {}
        self._bucket_width = histogram_bucket_width
        self._window = histogram_window

    # ---------------------------------------------------------------- counters
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------ gauges
    def gauge_set(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str) -> float:
        return self._gauges.get(name, 0.0)

    # -------------------------------------------------------------- histograms
    def histogram(
        self, name: str, bucket_width: Optional[int] = None
    ) -> WindowedHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = WindowedHistogram(
                bucket_width or self._bucket_width, self._window
            )
            self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: int) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------ export
    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    def as_dict(self) -> Dict:
        """Deterministic snapshot: sorted keys, integers and floats only."""
        histograms = {}
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            histograms[name] = {
                "count": hist.count,
                "mean": round(hist.mean, 6),
                "p50": hist.percentile(50),
                "p90": hist.percentile(90),
                "p99": hist.percentile(99),
                "buckets": {str(k): v for k, v in hist.buckets().items()},
            }
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            self.as_dict(), sort_keys=True, indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )
