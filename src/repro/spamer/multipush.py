"""Confidence-gated multi-push speculation with misprediction rollback.

The paper's three delay algorithms decide *when* to push a single
anticipated message per specBuf entry (the ``on_fly`` throttle, Section
3.5).  This module borrows the acceptance-threshold idiom from speculative
decoding (``n_draft``/``n_min``/``p_min`` in llama.cpp's
``common_speculative_params``, and the draft/verify/rollback loop of
SPORK): when a per-queue acceptance estimator — an EWMA over confirmed
pops, seeded from the device's push precision counters — predicts the
consumer will keep up, the policy claims up to ``k`` *consecutive* specBuf
offsets of one entry and pushes a burst of ``k`` messages ahead.  ``k`` and
the gate ``p_min`` are ``SystemConfig.burst_k``/``p_min``, whatever the
delay algorithm.

Single push is the burst policy at ``k = 1``: one class,
:class:`~repro.spamer.policy.SpecBufSpeculation`, and one specBuf ring walk
serve every ``burst_k``.  Its ``select`` lets an ``on_fly`` entry take a
follower only when ``burst_k > 1``, and the bookkeeping here — a
:class:`BurstState` hung off the :class:`~repro.spamer.specbuf.SpecEntry`,
one :class:`BurstClaim` per claimed offset — is built when the first
follower is claimed.  A head confirmed without followers is a burst of one
(it feeds the estimator and counts as a ``burst_confirms``), so a
single-push run builds none of it.

Burst protocol:

* The burst **head** behaves exactly like single-push SPAMeR: its fill is
  consumer-visible immediately, it sticky-retries its slot on a miss, and
  the inner delay algorithm learns only from head responses (so the
  cadence latches match single-push behaviour).
* **Followers** land *unconfirmed*: their cachelines hold data but are
  invisible to the consumer (``ConsumerLine.poppable`` is False) until
  every older claim of the burst has confirmed — this is what makes a
  consumer pop out of the predicted order structurally impossible.
* A follower **miss** while it is not yet the oldest claim means the burst
  overshot the consumer: that claim and every younger claim roll back.
  Landed lines are invalidated by a rollback packet charged real traversal
  cycles on the network (:class:`~repro.net.topology.PacketKind.COHERENCE`),
  the cancelled messages collect in a *pen*, and once the last doomed
  response and invalidation resolve the pen re-enters the front of the
  SQI's buffering queue in arrival order (FIFO preserved).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, TYPE_CHECKING

from repro.registry import ALGORITHMS
from repro.spamer.delay import TunedDelay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.cacheline import ConsumerLine
    from repro.vlink.packets import ProdEntry


@ALGORITHMS.register("multipush")
class MultiPushDelay(TunedDelay):
    """The paper's ``tuned`` algorithm under the ``multipush`` label.

    Burst speculation is not a property of the algorithm: any SPAMeR
    setting bursts when ``SystemConfig.burst_k > 1`` (``p_min`` gates the
    follower claims).  This label names the burst runs of the sweeps and
    reports.
    """


#: EWMA weight of one confirm/rollback outcome in :class:`AcceptanceEstimator`.
ACCEPTANCE_ALPHA = 0.2


class AcceptanceEstimator:
    """Per-queue EWMA of burst-slot acceptance (confirm=1, rollback=0).

    Lazily seeded from the device's global push-precision counters
    (``spec_hits / spec_pushes``) so a warm queue starts from measured
    accuracy instead of blind optimism.
    """

    __slots__ = ("value", "seeded")

    def __init__(self) -> None:
        self.value = 1.0
        self.seeded = False

    def seed(self, pushes: int, hits: int) -> None:
        if self.seeded:
            return
        self.seeded = True
        if pushes > 0:
            self.value = hits / pushes

    def record(self, accepted: bool) -> None:
        self.seeded = True
        self.value += ACCEPTANCE_ALPHA * ((1.0 if accepted else 0.0) - self.value)


class BurstClaim:
    """One claimed specBuf offset within an in-progress burst."""

    __slots__ = ("entry", "line", "landed", "doomed")

    def __init__(self, entry: "ProdEntry", line: "ConsumerLine") -> None:
        self.entry = entry
        self.line = line
        self.landed = False   # hit response processed while not yet oldest
        self.doomed = False   # cancelled by a rollback; resolves on response


class BurstState:
    """Per-specBuf-entry burst bookkeeping (claims, rollback pen).

    Built when an in-flight head takes its first follower, and dropped
    from the :class:`~repro.spamer.specbuf.SpecEntry` once every claim
    has confirmed or rolled back.
    """

    __slots__ = ("sqi", "claims", "by_entry", "pen", "draining",
                 "outstanding", "invalidations")

    def __init__(self, sqi: int) -> None:
        self.sqi = sqi
        #: Claims in predicted (arrival) order; claims[0] is the oldest.
        self.claims: Deque[BurstClaim] = deque()
        self.by_entry: Dict[int, BurstClaim] = {}
        #: Rolled-back messages awaiting re-injection, in arrival order.
        self.pen: List["ProdEntry"] = []
        self.draining = False
        #: Doomed claims whose responses have not come back yet.
        self.outstanding = 0
        #: Rollback-invalidation packets still traversing the network.
        self.invalidations = 0

    def claim(self, entry: "ProdEntry", line: "ConsumerLine") -> None:
        """Append *entry*'s claim on *line* as the youngest of the burst."""
        claim = BurstClaim(entry, line)
        self.claims.append(claim)
        self.by_entry[id(entry)] = claim
