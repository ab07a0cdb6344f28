"""The component registry: round-trips, error reporting, System integration,
and the one generation counter every kind shares."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.registry import (
    ALGORITHMS,
    ARRIVALS,
    DEVICES,
    TOPOLOGIES,
    Registry,
    registry_generation,
)
from repro.spamer.delay import AdaptiveDelay, DelayAlgorithm, TunedDelay


def test_builtin_devices_registered():
    assert DEVICES.names() == ["spamer", "vl"]


def test_builtin_algorithms_registered():
    names = ALGORITHMS.names()
    for expected in ("0delay", "adapt", "tuned", "fixed", "never",
                     "history", "perceptron", "multipush"):
        assert expected in names


def test_parameterized_algorithms_excluded_from_zero_config_list():
    from repro.eval.runner import available_setting_names

    zero_config = available_setting_names()
    assert "fixed" not in zero_config          # needs its delay argument
    # "never" is offered: its by-construction stall is caught by the stall
    # watchdog (SimDeadlockError diagnostics) instead of hanging the run.
    assert "never" in zero_config
    assert "tuned" in zero_config


def test_device_spec_round_trip():
    spec = DEVICES.resolve("spamer")
    assert spec.name == "spamer"
    assert spec.accepts_algorithm and spec.accepts_security
    assert spec.default_algorithm == "tuned"
    assert spec.factory.name == "spamer"


def test_algorithm_resolve_round_trip():
    spec = ALGORITHMS.resolve("tuned")
    assert not spec.requires_params and spec.offer_as_setting
    algo = spec.factory()
    assert isinstance(algo, TunedDelay)
    assert isinstance(algo, DelayAlgorithm)
    assert algo.name == "tuned"


def test_unknown_device_lists_available():
    with pytest.raises(ConfigError) as exc:
        DEVICES.resolve("quantum")
    message = str(exc.value)
    assert "device" in message and "quantum" in message
    assert "vl" in message and "spamer" in message


def test_unknown_algorithm_lists_available():
    with pytest.raises(ConfigError) as exc:
        ALGORITHMS.resolve("oracle")
    message = str(exc.value)
    assert "delay algorithm" in message and "oracle" in message
    assert "tuned" in message and "0delay" in message


def test_duplicate_device_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        @DEVICES.register("vl")
        class Impostor:  # pragma: no cover - never constructed
            pass


def test_duplicate_algorithm_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        @ALGORITHMS.register("tuned")
        class Impostor:  # pragma: no cover - never constructed
            pass


def test_register_and_unregister_algorithm():
    @ALGORITHMS.register("test-echo", requires_params=True)
    class EchoDelay(DelayAlgorithm):
        def __init__(self, delay):
            self.delay = delay

        def send_tick(self, entry, now):
            return now + self.delay

        def on_response(self, entry, hit, now):
            pass

    from repro.eval.runner import available_setting_names

    try:
        algo = ALGORITHMS.resolve("test-echo").factory(delay=7)
        assert algo.delay == 7
        assert algo.name == "test-echo"
        assert "test-echo" in ALGORITHMS.names()
        assert "test-echo" not in available_setting_names()
    finally:
        ALGORITHMS.unregister("test-echo")
    assert "test-echo" not in ALGORITHMS.names()


def test_system_rejects_algorithm_for_non_speculating_device():
    from repro import System

    with pytest.raises(ConfigError) as exc:
        System(device="vl", algorithm="tuned")
    assert "does not take one" in str(exc.value)


def test_saved_config_naming_a_component_default_is_rejected():
    # SystemConfig names no device or algorithm: System(device=...) does.
    for field in ("default_device", "default_algorithm"):
        data = SystemConfig().to_dict()
        data[field] = "spamer"
        with pytest.raises(ConfigError, match=field):
            SystemConfig.from_dict(data)


def test_speculating_device_uses_its_registered_default_algorithm():
    from repro import System
    from repro.spamer.srd import SpamerRoutingDevice

    assert isinstance(System(device="spamer").device.algorithm, TunedDelay)

    @DEVICES.register(
        "test-adaptive", accepts_algorithm=True, default_algorithm="adapt"
    )
    class AdaptiveByDefault(SpamerRoutingDevice):
        pass

    try:
        system = System(device="test-adaptive")
        assert isinstance(system.device, AdaptiveByDefault)
        assert isinstance(system.device.algorithm, AdaptiveDelay)
    finally:
        DEVICES.unregister("test-adaptive")


# --------------------------------------------------------- one registry
def test_every_kind_is_one_registry_class():
    for registry, kind in (
        (DEVICES, "device"),
        (ALGORITHMS, "delay algorithm"),
        (TOPOLOGIES, "topology"),
        (ARRIVALS, "arrival process"),
    ):
        assert type(registry) is Registry
        with pytest.raises(ConfigError, match=f"unknown {kind} 'nope'"):
            registry.resolve("nope")
        assert registry.names() == sorted(registry.names())


def test_a_kind_rejects_fields_it_does_not_have():
    with pytest.raises(TypeError):
        TOPOLOGIES.register("test-bad", accepts_algorithm=True)(type("T", (), {}))
    assert "test-bad" not in TOPOLOGIES.names()


@pytest.mark.parametrize(
    "registry", [DEVICES, ALGORITHMS, TOPOLOGIES, ARRIVALS],
    ids=["devices", "algorithms", "topologies", "arrivals"],
)
def test_every_registration_bumps_the_one_generation(registry):
    before = registry_generation()

    @registry.register("test-probe")
    class Probe:
        pass

    registered = registry_generation()
    registry.unregister("test-probe")
    assert before < registered < registry_generation()
    assert Probe.name == "test-probe"
    registry.unregister("test-probe")  # already gone: no bump
    assert registry_generation() == registered + 1


def test_reregistered_topology_and_arrival_miss_the_result_cache():
    """Re-registering a name to a different class must change the cache
    key, so a cached run of the old class is never served for the new one."""
    from repro.eval.parallel import (
        ResultCache,
        RunRequest,
        execute_request,
        metrics_bytes,
        run_requests,
    )
    from repro.eval.runner import setting_by_name
    from repro.net.crossbar import CrossbarTopology
    from repro.net.mesh import MeshTopology
    from repro.workloads.arrival import ArrivalSpec, Bursty, Poisson

    cache = ResultCache()

    def check(registry, name, old, new, request):
        registry.register(name)(type("Old", (old,), {}))
        try:
            key = request().cache_key()
            first = run_requests([request()], cache=cache)[0]
        finally:
            registry.unregister(name)
        registry.register(name)(type("New", (new,), {}))
        try:
            assert request().cache_key() != key
            cached = run_requests([request()], cache=cache)[0]
            fresh = execute_request(request())
        finally:
            registry.unregister(name)
        assert metrics_bytes(cached) == metrics_bytes(fresh)
        assert cached.exec_cycles != first.exec_cycles

    check(
        TOPOLOGIES, "t-x", MeshTopology, CrossbarTopology,
        lambda: RunRequest.from_setting(
            "ping-pong", setting_by_name("tuned"), scale=0.05,
            config=SystemConfig(topology="t-x"),
        ),
    )
    check(
        ARRIVALS, "a-x", Poisson, Bursty,
        lambda: RunRequest.from_setting(
            "incast", setting_by_name("tuned"), scale=0.05,
            arrival=ArrivalSpec.make("a-x", rate=0.002),
        ),
    )
