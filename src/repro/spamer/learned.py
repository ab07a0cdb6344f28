"""Extended delay-prediction algorithms (Section 3.5's design space).

The paper notes speculative pushing "could be history-based, profiling-
guided, heuristic-oriented, or perceptron-style" like prefetching, and
evaluates three points in that space.  This module implements two more
families as extensions, using the same per-entry latch interface so they
drop into the SRD unchanged:

* :class:`HistoryDelay` — an EWMA interval predictor with additive safety
  margin: the classic history-based approach (global-history-buffer style
  smoothing instead of the tuned algorithm's last-interval reference).
* :class:`PerceptronDelay` — a perceptron-style predictor in the spirit of
  perceptron prefetch filtering [8]: a small online-trained linear model
  over binary features of the entry's recent behaviour gates *how
  aggressively* to push (now vs the smoothed interval).

Both keep their state in side tables keyed by specBuf entry index — the
hardware analogy is an extra SRAM column next to specBuf, like the tuned
algorithm's latches (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.registry import ALGORITHMS
from repro.spamer.delay import DelayAlgorithm, MAX_DELAY
from repro.spamer.specbuf import SpecEntry


@dataclass
class _HistoryState:
    """Per-entry EWMA latches."""

    ewma_interval: float = 0.0
    samples: int = 0
    last_success: int = 0
    consecutive_failures: int = 0


@ALGORITHMS.register("history")
class HistoryDelay(DelayAlgorithm):
    """History-based prediction: EWMA of success intervals minus a margin.

    ``delay = max(0, ewma * (1 - margin))`` measured from the last success;
    consecutive failures back the push off additively (the EWMA itself is
    only trained on successes, so failure noise cannot corrupt the
    interval estimate — the weakness of the adaptive algorithm).
    """

    def __init__(
        self,
        smoothing: float = 0.25,
        margin: float = 0.25,
        backoff_step: int = 48,
        max_delay: int = MAX_DELAY,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ConfigError(f"smoothing must be in (0, 1], got {smoothing}")
        if not 0.0 <= margin < 1.0:
            raise ConfigError(f"margin must be in [0, 1), got {margin}")
        if backoff_step < 1:
            raise ConfigError(f"backoff_step must be >= 1, got {backoff_step}")
        self.smoothing = smoothing
        self.margin = margin
        self.backoff_step = backoff_step
        self.max_delay = max_delay
        self._state: Dict[int, _HistoryState] = {}

    def _entry_state(self, entry: SpecEntry) -> _HistoryState:
        return self._state.setdefault(entry.index, _HistoryState())

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        s = self._entry_state(entry)
        if s.samples == 0:
            # No history yet: push immediately to start learning.
            return now + s.consecutive_failures * self.backoff_step
        planned = int(s.ewma_interval * (1.0 - self.margin))
        planned += s.consecutive_failures * self.backoff_step
        planned = min(planned, self.max_delay)
        return max(now, s.last_success + planned)

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        s = self._entry_state(entry)
        if hit:
            if s.samples > 0:
                interval = now - s.last_success
                s.ewma_interval += self.smoothing * (interval - s.ewma_interval)
            s.samples += 1
            s.last_success = now
            s.consecutive_failures = 0
            entry.nfills += 1
            entry.last = now
        else:
            s.consecutive_failures += 1
        entry.failed = not hit


@dataclass
class _PerceptronState:
    """Per-entry perceptron weights and feature history."""

    weights: List[float] = field(default_factory=lambda: [0.0] * 4)
    bias: float = 0.0
    last_success: int = 0
    ewma_interval: float = 0.0
    samples: int = 0
    last_features: List[int] = field(default_factory=lambda: [0] * 4)
    last_aggressive: bool = True
    consecutive_failures: int = 0


@ALGORITHMS.register("perceptron")
class PerceptronDelay(DelayAlgorithm):
    """Perceptron-style prediction: gate aggressive pushes with a linear
    model over recent-behaviour features.

    Features (binary, per decision): last push hit; two hits in a row
    observed recently; the elapsed time already exceeds half the smoothed
    interval; the entry has enough training samples.  Positive activation →
    push *now* (aggressive); negative → wait out the smoothed interval
    (conservative).  Training is the standard perceptron rule: on a wrong
    outcome (aggressive push missed, or conservative wait that would have
    hit immediately anyway) the weights move toward the correct decision.
    """

    def __init__(
        self,
        learning_rate: float = 0.25,
        threshold: float = 0.0,
        max_delay: int = MAX_DELAY,
    ) -> None:
        if learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.threshold = threshold
        self.max_delay = max_delay
        self._state: Dict[int, _PerceptronState] = {}

    def _entry_state(self, entry: SpecEntry) -> _PerceptronState:
        return self._state.setdefault(entry.index, _PerceptronState())

    def _features(self, entry: SpecEntry, s: _PerceptronState, now: int) -> List[int]:
        elapsed = now - s.last_success
        return [
            0 if entry.failed else 1,
            1 if s.consecutive_failures == 0 and s.samples >= 2 else 0,
            1 if s.samples and elapsed * 2 >= s.ewma_interval else 0,
            1 if s.samples >= 4 else 0,
        ]

    def _activate(self, s: _PerceptronState, features: List[int]) -> float:
        return s.bias + sum(w * f for w, f in zip(s.weights, features))

    def send_tick(self, entry: SpecEntry, now: int) -> Optional[int]:
        s = self._entry_state(entry)
        features = self._features(entry, s, now)
        aggressive = self._activate(s, features) >= self.threshold
        s.last_features = features
        s.last_aggressive = aggressive
        if aggressive or s.samples == 0:
            return now
        planned = min(int(s.ewma_interval), self.max_delay)
        return max(now, s.last_success + planned)

    def on_response(self, entry: SpecEntry, hit: bool, now: int) -> None:
        s = self._entry_state(entry)
        # Perceptron update: an aggressive push that missed was a wrong
        # "push now"; a push that hit says "push now" was right.
        target = 1.0 if hit else -1.0
        if s.last_aggressive != hit:
            for i, f in enumerate(s.last_features):
                s.weights[i] += self.learning_rate * target * f
            s.bias += self.learning_rate * target
        if hit:
            if s.samples > 0:
                interval = now - s.last_success
                s.ewma_interval += 0.25 * (interval - s.ewma_interval)
            s.samples += 1
            s.last_success = now
            s.consecutive_failures = 0
            entry.nfills += 1
            entry.last = now
        else:
            s.consecutive_failures += 1
        entry.failed = not hit
