"""repro — a reproduction of SPAMeR (ICPP 2022).

SPAMeR extends the Virtual-Link hardware message queue with *speculative
pushes*: the routing device anticipates consumer pop requests and pushes
producer data into registered consumer cachelines ahead of time, hiding the
request leg of load-to-use latency.

Public API highlights:

* :class:`repro.System` — build a simulated multi-core machine with either
  the Virtual-Link baseline (``device="vl"``) or SPAMeR (``device="spamer"``
  with a delay algorithm: ``"0delay"``, ``"adapt"``, ``"tuned"``).
* :mod:`repro.workloads` — the paper's 8 task-parallel benchmarks.
* :mod:`repro.eval` — runners regenerating every table and figure.
* :mod:`repro.registry` — one :class:`~repro.registry.Registry` per
  component kind (``DEVICES``, ``ALGORITHMS``, ``TOPOLOGIES``,
  ``ARRIVALS``); ``@DEVICES.register(name)`` plugs a new routing device
  into ``System``, the runners and the CLI with zero core edits.
"""

from repro.config import CacheConfig, DEFAULT_CONFIG, SystemConfig
from repro.errors import (
    BufferFullError,
    ConfigError,
    DeviceError,
    ProtocolError,
    RegistrationError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from repro.registry import ALGORITHMS, ARRIVALS, DEVICES, TOPOLOGIES, Registry
from repro.spamer import (
    AdaptiveDelay,
    DelayAlgorithm,
    FixedDelay,
    NeverPush,
    SecurityPolicy,
    SpamerRoutingDevice,
    TunedDelay,
    TunedParams,
    ZeroDelay,
)
from repro.system import System
from repro.vlink import QueueLibrary, VirtualLinkRoutingDevice

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "ARRIVALS",
    "AdaptiveDelay",
    "BufferFullError",
    "CacheConfig",
    "ConfigError",
    "DEFAULT_CONFIG",
    "DEVICES",
    "DelayAlgorithm",
    "DeviceError",
    "FixedDelay",
    "NeverPush",
    "ProtocolError",
    "QueueLibrary",
    "RegistrationError",
    "Registry",
    "ReproError",
    "SchedulingError",
    "SecurityPolicy",
    "SimulationError",
    "SpamerRoutingDevice",
    "System",
    "SystemConfig",
    "TOPOLOGIES",
    "TunedDelay",
    "TunedParams",
    "VirtualLinkRoutingDevice",
    "WorkloadError",
    "ZeroDelay",
    "__version__",
]
