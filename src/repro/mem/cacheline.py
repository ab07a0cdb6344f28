"""Consumer-endpoint cacheline model.

Queue data is delivered by *stashing* into consumer cachelines.  What the
routing device observes is only the target cache controller's hit/miss
response (Section 3.1): a push to a line that is ready succeeds; a push to a
line still holding unconsumed data fails and re-enters the mapping pipeline.

:class:`ConsumerLine` is that state machine plus the bookkeeping every
figure needs: per-line EMPTY/VALID residency (Figure 9) and fill/vacate
trace events (Figure 7).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import DeviceError
from repro.sim.hooks import HookBus, LineHook
from repro.sim.stats import StateTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class LineState(Enum):
    """Consumer cacheline occupancy as seen by the routing device."""

    EMPTY = "empty"  # ready to accept a push (vacated or never filled)
    VALID = "valid"  # holds a delivered, not-yet-consumed message

    #: Identity hash: a state keys each line's residency timer, and the
    #: inherited ``Enum.__hash__`` is a Python frame per lookup.  No set
    #: of states is ever iterated, so no order depends on it.
    __hash__ = object.__hash__


class ConsumerLine:
    """One cacheline of a consumer endpoint's receive buffer."""

    __slots__ = ("env", "addr", "endpoint_id", "index", "core_id", "_state",
                 "timer", "data", "fills", "vacates", "failed_fills",
                 "fill_txn", "last_vacate_time", "hooks", "unconfirmed")

    def __init__(
        self,
        env: "Environment",
        addr: int,
        endpoint_id: int,
        index: int,
        hooks: Optional["HookBus"] = None,
        core_id: int = 0,
    ) -> None:
        self.env = env
        self.addr = addr
        self.endpoint_id = endpoint_id
        self.index = index
        #: Owning consumer's core — the stash destination on NoC topologies.
        self.core_id = core_id
        #: Instrumentation bus; occupancy transitions publish a
        #: :class:`~repro.sim.hooks.LineHook` when somebody listens.
        self.hooks = hooks
        self._state = LineState.EMPTY
        self.timer = StateTimer(env, LineState.EMPTY)
        self.data: Any = None
        #: Transaction id of the message currently (or last) filled here.
        self.fill_txn: Optional[int] = None
        self.fills = 0
        self.vacates = 0
        self.failed_fills = 0
        #: When the line last became ready to receive (registration counts).
        self.last_vacate_time: int = env.now
        #: A burst-speculated fill whose predecessor has not yet confirmed.
        #: Unconfirmed lines hold data but are invisible to the consumer
        #: (not poppable) until the policy confirms or rolls them back.
        self.unconfirmed = False

    @property
    def state(self) -> LineState:
        return self._state

    @property
    def is_empty(self) -> bool:
        return self._state is LineState.EMPTY

    @property
    def poppable(self) -> bool:
        """VALID and confirmed — the consumer may pop this line."""
        return self._state is LineState.VALID and not self.unconfirmed

    def try_fill(
        self,
        data: Any,
        transaction_id: Optional[int] = None,
        unconfirmed: bool = False,
    ) -> bool:
        """Attempt a stash; returns the hit/miss response signal.

        A miss (line still VALID) leaves the line untouched — the routing
        device will retry the push through the address-mapping pipeline.
        """
        hooks = self.hooks
        if self._state is LineState.VALID:
            self.failed_fills += 1
            if hooks is not None and LineHook in hooks.wanted:
                self._publish("failed-fill", transaction_id)
            return False
        self._state = LineState.VALID
        self.timer.transition(LineState.VALID)
        self.data = data
        self.fill_txn = transaction_id
        self.fills += 1
        self.unconfirmed = unconfirmed
        if hooks is not None and LineHook in hooks.wanted:
            self._publish("fill", transaction_id)
        return True

    def confirm(self) -> None:
        """Promote an unconfirmed burst fill to consumer-visible VALID."""
        self.unconfirmed = False

    def rollback(self) -> Any:
        """Invalidate an unconfirmed burst fill (misprediction recovery).

        The line returns to EMPTY without a delivery having happened; the
        invalidation packet's traversal is charged by the caller on the
        network model.  Returns the evicted payload so the policy can
        re-inject the message into the mapping pipeline.
        """
        if self._state is not LineState.VALID or not self.unconfirmed:
            raise DeviceError(
                f"rollback() on {self!r} while {self._state.value} "
                f"(unconfirmed={self.unconfirmed}); only unconfirmed burst "
                "fills may be rolled back"
            )
        data, self.data = self.data, None
        self._state = LineState.EMPTY
        self.timer.transition(LineState.EMPTY)
        self.unconfirmed = False
        self.last_vacate_time = self.env._now
        if self.hooks is not None and LineHook in self.hooks.wanted:
            self._publish("rollback", self.fill_txn)
        self.fill_txn = None
        return data

    def consume(self) -> Any:
        """Read the message and vacate the line (consumer-side pop)."""
        if self._state is not LineState.VALID:
            raise DeviceError(
                f"consume() on {self!r} while {self._state.value}; the library "
                "must check line state before consuming"
            )
        data, self.data = self.data, None
        self._state = LineState.EMPTY
        self.timer.transition(LineState.EMPTY)
        self.vacates += 1
        self.last_vacate_time = self.env._now
        if self.hooks is not None and LineHook in self.hooks.wanted:
            self._publish("vacate", self.fill_txn)
        return data

    def _publish(self, transition: str, transaction_id: Optional[int]) -> None:
        """Publish one occupancy transition; callers test ``LineHook in
        hooks.wanted`` first, so a silent bus costs no call."""
        self.hooks.publish(
            LineHook(
                tick=self.env._now,
                addr=self.addr,
                endpoint_id=self.endpoint_id,
                index=self.index,
                transition=transition,
                transaction_id=transaction_id,
            )
        )

    # -- metrics ---------------------------------------------------------------
    def empty_cycles(self) -> int:
        """Cycles spent EMPTY so far (open interval included)."""
        return self.timer.time_in(LineState.EMPTY)

    def valid_cycles(self) -> int:
        """Cycles spent VALID so far (open interval included)."""
        return self.timer.time_in(LineState.VALID)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConsumerLine ep={self.endpoint_id}[{self.index}] "
            f"addr={self.addr:#x} {self._state.value}>"
        )
