"""Packet and buffer-entry types flowing through the routing device.

* :class:`Message` — one cacheline of application payload, tagged with a
  trace transaction id.
* :class:`ProdEntry` — a prodBuf entry: a message parked in the routing
  device awaiting a target (the producer's copy is released as soon as the
  device accepts the push — Section 3.1).
* :class:`ConsRequest` — a consBuf entry: one ``vl_fetch`` registering a
  consumer cacheline address for an SQI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.cacheline import ConsumerLine
    from repro.sim.transaction import TransactionRecord


@dataclass
class Message:
    """One queue message (a cacheline of payload)."""

    payload: Any
    sqi: int
    producer_id: int
    seq: int                 # per-producer sequence number (FIFO checking)
    transaction_id: int      # trace transaction id
    produced_at: int         # cycle the producer created the message
    #: Which prodBuf admission tier the message's entry came from
    #: ("shared" or "reserved"); None when the message was injected at
    #: device level without admission (unit tests, diagnostics).
    credit_pool: Optional[str] = None
    #: Lifecycle record stamped at every transition (None when nobody
    #: observes the run, or when the message was injected below the
    #: library layer).
    txn: Optional["TransactionRecord"] = None


@dataclass
class ProdEntry:
    """A prodBuf entry holding producer data inside the routing device."""

    message: Message
    #: The message's SQI, copied at construction: a plain field, since
    #: every pipeline stage reads it.
    sqi: int
    arrived_at: int          # cycle the push packet reached the device
    attempts: int = 0        # push attempts so far (retries after misses)
    #: specBuf entry index of the in-flight speculative attempt (if any);
    #: used to clear the entry's on_fly throttle bit on the response.
    spec_entry_index: Optional[int] = None
    #: True when this attempt is a non-head member of a speculative burst:
    #: the stash lands unconfirmed (invisible to the consumer) until the
    #: burst head confirms, or is rolled back on a misprediction.
    spec_unconfirmed: bool = False


@dataclass
class ConsRequest:
    """A consBuf entry: a consumer request for one cacheline."""

    sqi: int
    line: "ConsumerLine"
    issued_at: int           # cycle the consumer executed vl_fetch
    arrived_at: int = 0      # cycle the request reached the device
    prerequest: bool = False  # re-issued while polling (Section 4.2)
    #: Lifecycle record (kind="request") stamped at every transition
    #: (None when nobody observes the run).
    txn: Optional["TransactionRecord"] = None
