"""Component registry: name → routing device / delay algorithm.

Every layer that used to keep its own name→constructor map — ``System``,
:mod:`repro.eval.runner`, :mod:`repro.eval.batch`, the CLI — resolves
through this one registry instead, so a new backend plugs in with a single
decorated class and **zero core edits**::

    from repro.registry import register_device
    from repro.vlink.vlrd import VirtualLinkRoutingDevice

    @register_device("ideal", description="zero-latency mapping pipeline")
    class IdealRoutingDevice(VirtualLinkRoutingDevice):
        kind = "IDEAL"
        def _stage_latency(self) -> int:
            return 0

    System(device="ideal")                  # just works
    python -m repro run FIR --setting ...   # CLI picks it up too

Algorithms register the same way via :func:`register_algorithm`; the
shipped devices (``vl``, ``spamer``) and algorithms (``0delay``, ``adapt``,
``tuned``, …) self-register on import, pulled in lazily by
:func:`_ensure_builtins` so importing this module stays cheap and cycle
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError

_BUILTIN_MODULES = (
    "repro.vlink.vlrd",
    "repro.spamer.srd",
    "repro.spamer.delay",
    "repro.spamer.learned",
    "repro.spamer.multipush",
)

_builtins_loaded = False

#: Monotonic registration-change counter.  Bumped by every (un)registration
#: of a device or algorithm; derived caches (e.g. the runner's settings
#: list) key on it to invalidate exactly when the registry changes.
_generation = 0


def registry_generation() -> int:
    """The current registration-change counter (cache-invalidation key)."""
    _ensure_builtins()
    return _generation


def _bump_generation() -> None:
    global _generation
    _generation += 1


def _ensure_builtins() -> None:
    """Import the shipped components so their decorators have run."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


# ------------------------------------------------------------------- devices
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
    description: str = ""

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


_DEVICES: Dict[str, DeviceSpec] = {}


def register_device(
    name: str,
    *,
    accepts_algorithm: bool = False,
    default_algorithm: Optional[str] = None,
    accepts_security: bool = False,
    description: str = "",
) -> Callable:
    """Class decorator: make a routing device constructible by *name*.

    The decorated class must accept ``(env, config, network, hooks=)`` —
    plus a positional ``algorithm`` after the network when registered with
    ``accepts_algorithm=True``, and a ``security=`` keyword with
    ``accepts_security=True``.
    """

    def decorator(cls):
        if name in _DEVICES:
            raise ConfigError(f"device {name!r} is already registered")
        _DEVICES[name] = DeviceSpec(
            name=name,
            factory=cls,
            accepts_algorithm=accepts_algorithm,
            default_algorithm=default_algorithm,
            accepts_security=accepts_security,
            description=description or (cls.__doc__ or "").strip().split("\n")[0],
        )
        cls.registry_name = name
        _bump_generation()
        return cls

    return decorator


def resolve_device(name: str) -> DeviceSpec:
    """Look a device up by name; unknown names list what is available."""
    _ensure_builtins()
    if name not in _DEVICES:
        raise ConfigError(
            f"unknown device {name!r}; registered devices: {device_names()}"
        )
    return _DEVICES[name]


def device_names() -> List[str]:
    """Registered device names, sorted."""
    _ensure_builtins()
    return sorted(_DEVICES)


def unregister_device(name: str) -> None:
    """Remove a registration (test isolation helper)."""
    if _DEVICES.pop(name, None) is not None:
        _bump_generation()


# ---------------------------------------------------------------- algorithms
@dataclass(frozen=True)
class AlgorithmSpec:
    """How to construct one registered delay-prediction algorithm."""

    name: str
    factory: Callable[..., Any]
    #: Needs constructor arguments (e.g. ``fixed`` needs its delay), so it
    #: cannot be offered as a zero-configuration CLI/batch setting.
    requires_params: bool = False
    #: Offer this algorithm in the zero-configuration setting lists.  Off
    #: for ablation controls like ``never`` that only make sense embedded
    #: in a purpose-built experiment (a speculating device that never
    #: pushes deadlocks fetch-skipping consumers on real workloads).
    offer_as_setting: bool = True
    description: str = ""


_ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    requires_params: bool = False,
    offer_as_setting: bool = True,
    description: str = "",
) -> Callable:
    """Class/factory decorator: make a delay algorithm buildable by *name*."""

    def decorator(factory):
        if name in _ALGORITHMS:
            raise ConfigError(f"algorithm {name!r} is already registered")
        _ALGORITHMS[name] = AlgorithmSpec(
            name=name,
            factory=factory,
            requires_params=requires_params,
            offer_as_setting=offer_as_setting,
            description=description
            or (factory.__doc__ or "").strip().split("\n")[0],
        )
        _bump_generation()
        return factory

    return decorator


def resolve_algorithm(name: str, **kwargs):
    """Instantiate a delay algorithm by name (kwargs go to its constructor)."""
    _ensure_builtins()
    if name not in _ALGORITHMS:
        raise ConfigError(
            f"unknown delay algorithm {name!r}; registered algorithms: "
            f"{algorithm_names()}"
        )
    return _ALGORITHMS[name].factory(**kwargs)


def algorithm_names(include_parameterized: bool = True) -> List[str]:
    """Registered algorithm names, sorted.

    ``include_parameterized=False`` drops algorithms that cannot be built
    without arguments and ablation-only controls registered with
    ``offer_as_setting=False`` (the CLI/batch setting lists use this).
    """
    _ensure_builtins()
    return sorted(
        name
        for name, spec in _ALGORITHMS.items()
        if include_parameterized
        or (not spec.requires_params and spec.offer_as_setting)
    )


def unregister_algorithm(name: str) -> None:
    """Remove a registration (test isolation helper)."""
    if _ALGORITHMS.pop(name, None) is not None:
        _bump_generation()
