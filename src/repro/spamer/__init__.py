"""SPAMeR — the paper's primary contribution.

Speculative push for hardware message queues: the :class:`SpamerRoutingDevice`
extends the Virtual-Link routing device with a specBuf-driven speculation
path, governed by pluggable delay-prediction algorithms and per-endpoint
security controls.
"""

from repro.spamer.delay import (
    AdaptiveDelay,
    DelayAlgorithm,
    FixedDelay,
    MAX_DELAY,
    NeverPush,
    TunedDelay,
    TunedParams,
    ZeroDelay,
)
from repro.spamer.learned import HistoryDelay, PerceptronDelay
from repro.spamer.security import SecurityPolicy
from repro.spamer.specbuf import SpecBuf, SpecEntry
from repro.spamer.srd import SpamerRoutingDevice

__all__ = [
    "AdaptiveDelay",
    "DelayAlgorithm",
    "FixedDelay",
    "HistoryDelay",
    "MAX_DELAY",
    "NeverPush",
    "PerceptronDelay",
    "SecurityPolicy",
    "SpamerRoutingDevice",
    "SpecBuf",
    "SpecEntry",
    "TunedDelay",
    "TunedParams",
    "ZeroDelay",
]
