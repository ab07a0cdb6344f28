"""Memory substrate: addresses, cachelines, caches, MOESI coherence and
DRAM.

Two layers coexist here:

* the *transaction-level* layer used by the Virtual-Link / SPAMeR queue path
  (:class:`ConsumerLine`; the network it crosses is :mod:`repro.net`) —
  queue data bypasses coherence by design;
* the *coherent* layer (:class:`SetAssocCache`, :class:`CoherentMemorySystem`,
  :class:`Dram`) used by the software-queue motivation baseline.
"""

from repro.mem.address import PAGE_BYTES, AddressSpace, Segment
from repro.mem.cache import CacheLineEntry, MoesiState, SetAssocCache
from repro.mem.cacheline import ConsumerLine, LineState
from repro.mem.coherence import CoherentMemorySystem
from repro.mem.dram import Dram

__all__ = [
    "AddressSpace",
    "CacheLineEntry",
    "CoherentMemorySystem",
    "ConsumerLine",
    "Dram",
    "LineState",
    "MoesiState",
    "PAGE_BYTES",
    "Segment",
    "SetAssocCache",
]
