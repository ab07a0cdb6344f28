"""Component registry: one name → component map per kind.

Every component the evaluation picks by name resolves through one
:class:`Registry` instance per kind:

* :data:`DEVICES` — routing devices (``vl``, ``spamer``); entries are
  :class:`DeviceSpec`;
* :data:`ALGORITHMS` — delay algorithms (``0delay``, ``adapt``, ``tuned``,
  …); entries are :class:`AlgorithmSpec`;
* :data:`TOPOLOGIES` — interconnect fabrics (``single-bus``, ``mesh``, …);
  entries are the :class:`~repro.net.topology.Topology` subclasses;
* :data:`ARRIVALS` — arrival processes (``closed``, ``poisson``, …);
  entries are the :class:`~repro.workloads.arrival.ArrivalProcess`
  subclasses.

A new backend plugs in with a single decorated class and **zero core
edits**::

    from repro.registry import DEVICES
    from repro.vlink.vlrd import VirtualLinkRoutingDevice

    @DEVICES.register("ideal")
    class IdealRoutingDevice(VirtualLinkRoutingDevice):
        kind = "IDEAL"
        def _stage_latency(self) -> int:
            return 0

    System(device="ideal")                  # just works
    python -m repro run FIR --setting ...   # CLI picks it up too

Each registry imports its shipped modules on first lookup, so importing
this module stays cheap and cycle free.  Every (un)registration of any
kind bumps one generation counter (:func:`registry_generation`); derived
caches and :meth:`~repro.eval.parallel.RunRequest.cache_key` key on it,
because a re-registered name may resolve to different code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError

#: Registration-change counter over every kind.
_generation = 0
_REGISTRIES: List["Registry"] = []


def registry_generation() -> int:
    """The registration-change counter (cache-invalidation key).

    Every kind's shipped components are loaded first, so the value does not
    depend on which lookups happened to run before.
    """
    for registry in _REGISTRIES:
        registry._load()
    return _generation


def _bump_generation() -> None:
    global _generation
    _generation += 1


class Registry:
    """Name → component for one kind of component.

    ``entry(name, cls, **fields)`` builds what :meth:`resolve` returns for a
    registered class; by default that is the class itself.
    """

    def __init__(
        self,
        kind: str,
        modules: Tuple[str, ...],
        entry: Callable[..., Any] = lambda name, factory: factory,
    ) -> None:
        self.kind = kind
        self._modules = modules
        self._entry = entry
        self._entries: Dict[str, Any] = {}
        self._loaded = False
        _REGISTRIES.append(self)

    def register(self, name: str, **fields) -> Callable:
        """Class decorator: make the class resolvable by *name*.

        The class's ``name`` attribute is set to *name*; *fields* are the
        kind's registration options (see :class:`DeviceSpec`,
        :class:`AlgorithmSpec`).
        """

        def decorator(cls):
            if cls.__module__ not in self._modules:
                self._load()  # a duplicate of a shipped name is caught here
            if name in self._entries:
                raise ConfigError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = self._entry(name, cls, **fields)
            cls.name = name
            _bump_generation()
            return cls

        return decorator

    def resolve(self, name: str) -> Any:
        """The entry registered as *name*; unknown names list the others."""
        self._load()
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return entry

    def names(self) -> List[str]:
        """Registered names, sorted."""
        self._load()
        return sorted(self._entries)

    def unregister(self, name: str) -> None:
        """Remove a registration (test isolation helper)."""
        if self._entries.pop(name, None) is not None:
            _bump_generation()

    def _load(self) -> None:
        """Import the shipped components so their decorators have run."""
        if self._loaded:
            return
        self._loaded = True
        for module in self._modules:
            importlib.import_module(module)


@dataclass(frozen=True)
class DeviceSpec:
    """How to construct one registered routing-device flavor."""

    name: str
    factory: Callable[..., Any]
    #: Device takes a delay-prediction algorithm (positional, after the
    #: network) — the SPAMeR shape.  Devices without it reject one.
    accepts_algorithm: bool = False
    #: Algorithm name used when the caller names the device but no algorithm.
    default_algorithm: Optional[str] = None
    #: Device takes a ``security=`` policy keyword (Section 3.6 controls).
    accepts_security: bool = False

    def build(
        self,
        env,
        config,
        network,
        *,
        algorithm=None,
        hooks=None,
        security=None,
    ):
        """Instantiate the device with the protocol it was registered for."""
        if self.accepts_algorithm:
            if algorithm is None:
                raise ConfigError(
                    f"device {self.name!r} needs a delay algorithm"
                )
            kwargs: Dict[str, Any] = {"hooks": hooks}
            if self.accepts_security:
                kwargs["security"] = security
            return self.factory(env, config, network, algorithm, **kwargs)
        if algorithm is not None:
            raise ConfigError(
                f"a delay algorithm only applies to devices that speculate; "
                f"device {self.name!r} does not take one"
            )
        return self.factory(env, config, network, hooks=hooks)


@dataclass(frozen=True)
class AlgorithmSpec:
    """How to construct one registered delay-prediction algorithm."""

    name: str
    factory: Callable[..., Any]
    #: Needs constructor arguments (e.g. ``fixed`` needs its delay), so it
    #: cannot be offered as a zero-configuration CLI/batch setting.
    requires_params: bool = False
    #: Offer this algorithm in the zero-configuration setting lists.  Off
    #: for ablation controls that only make sense embedded in a
    #: purpose-built experiment.
    offer_as_setting: bool = True


#: Routing devices; a device class takes ``(env, config, network, hooks=)``
#: — plus a positional algorithm after the network when registered with
#: ``accepts_algorithm=True``, and ``security=`` with ``accepts_security=True``.
DEVICES = Registry(
    "device", ("repro.vlink.vlrd", "repro.spamer.srd"), DeviceSpec
)
#: Delay-prediction algorithms; ``resolve(name).factory(**kwargs)`` builds one.
ALGORITHMS = Registry(
    "delay algorithm",
    (
        "repro.spamer.delay",
        "repro.spamer.learned",
        "repro.spamer.multipush",
    ),
    AlgorithmSpec,
)
#: Interconnect fabrics; a topology class takes ``(env, config, hooks=)``.
TOPOLOGIES = Registry(
    "topology",
    (
        "repro.net.singlebus",
        "repro.net.mesh",
        "repro.net.ring",
        "repro.net.crossbar",
        "repro.net.torus",
    ),
)
#: Open-system arrival processes; the class takes its parameters as keywords.
ARRIVALS = Registry("arrival process", ("repro.workloads.arrival",))
