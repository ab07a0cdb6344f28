"""Unit tests for the interconnect topology layer (repro.net)."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.net.topology import Topology, derive_mesh_dims
from repro.registry import TOPOLOGIES
from repro.sim.hooks import HookBus, LinkHook


def _ignore(_arg):
    pass


def cfg(**overrides):
    defaults = dict(num_cores=16, bus_occupancy=3, bus_latency=36, link_latency=12)
    defaults.update(overrides)
    return SystemConfig(**defaults)


# ----------------------------------------------------------------- registry
def test_builtin_topologies_registered():
    assert TOPOLOGIES.names() == ["crossbar", "mesh", "ring", "single-bus", "torus"]


def test_resolve_unknown_topology_lists_available():
    with pytest.raises(ConfigError, match="single-bus"):
        TOPOLOGIES.resolve("hypercube")


def test_register_and_unregister_custom_topology(env):
    @TOPOLOGIES.register("test-line")
    class LineTopology(Topology):
        @property
        def num_nodes(self):
            return self.config.num_cores

        def core_node(self, core_id):
            return core_id

        def srd_node(self, srd_index):
            return 0

        def _compute_route(self, src, dst):
            return []

    try:
        assert TOPOLOGIES.resolve("test-line") is LineTopology
        built = TOPOLOGIES.resolve("test-line")(env, cfg())
        assert isinstance(built, LineTopology)
        assert built.name == "test-line"
    finally:
        TOPOLOGIES.unregister("test-line")
    with pytest.raises(ConfigError):
        TOPOLOGIES.resolve("test-line")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        TOPOLOGIES.register("mesh")(type("Dup", (Topology,), {}))


# ---------------------------------------------------------------- geometry
def test_derive_mesh_dims_most_square():
    assert derive_mesh_dims(8) == (2, 4)
    assert derive_mesh_dims(16) == (4, 4)
    assert derive_mesh_dims(32) == (4, 8)
    assert derive_mesh_dims(64) == (8, 8)
    assert derive_mesh_dims(7) == (1, 7)  # prime degenerates to a line
    assert derive_mesh_dims(1) == (1, 1)


# ---------------------------------------------------------------- mesh/XY
def test_mesh_xy_routing_goes_x_then_y(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))  # 4x4
    # node 0 (0,0) -> node 10 (2,2): two east hops then two south hops.
    names = [link.name for link in mesh.route(0, 10)]
    assert names == ["mesh.e[0,0]", "mesh.e[0,1]", "mesh.s[0,2]", "mesh.s[1,2]"]
    assert mesh.hops(0, 10) == 4
    # Reverse direction uses the opposite directed links (west, north).
    back = [link.name for link in mesh.route(10, 0)]
    assert back == ["mesh.w[2,2]", "mesh.w[2,1]", "mesh.n[2,0]", "mesh.n[1,0]"]


def test_mesh_same_node_route_is_empty(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))
    assert mesh.route(5, 5) == ()
    assert mesh.hops(5, 5) == 0


def test_mesh_srd_placement_interior_and_spread(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))  # 1 shard
    assert mesh.srd_node(0) == 8  # mid-scan node, not a corner
    sharded = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16, num_srds=4))
    nodes = [sharded.srd_node(i) for i in range(4)]
    assert nodes == sorted(set(nodes))  # distinct, monotone
    assert all(0 <= node < 16 for node in nodes)


def test_mesh_respects_explicit_dims(env):
    config = cfg(num_cores=8, mesh_dims=(2, 4), topology="mesh")
    mesh = TOPOLOGIES.resolve("mesh")(env, config)
    assert (mesh.rows, mesh.cols) == (2, 4)
    assert mesh.num_nodes == 8


def test_mesh_transit_latency_per_hop(env):
    config = cfg(num_cores=16)
    mesh = TOPOLOGIES.resolve("mesh")(env, config)
    done = []
    # 1 hop: occupancy (3) + link latency (12).
    mesh.transit_then("stash", 0, 1, lambda _: done.append(env.now), None)
    env.run()
    assert done == [15]
    # Same-node: local port serialization only.
    done.clear()
    mesh.transit_then("stash", 3, 3, lambda _: done.append(env.now), None)
    env.run()
    assert done == [env.now]  # fired exactly at completion
    assert mesh.response_latency(0, 2) == 2 * config.link_latency
    assert mesh.response_latency(4, 4) == config.link_latency  # floor of 1 hop


def test_mesh_multi_hop_is_store_and_forward(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))
    done = []
    start = env.now
    mesh.transit_then("stash", 0, 3, lambda _: done.append(env.now), None)
    env.run()
    # 3 hops, each paying serialization then propagation, sequentially.
    assert done == [start + 3 * (3 + 12)]


# ------------------------------------------------------------- contention
def test_link_contention_accumulates_wait_cycles(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))
    done = []
    for _ in range(3):
        mesh.transit_then("stash", 0, 1, lambda _: done.append(env.now), None)
    env.run()
    # Serialization spacing on the shared east link: 3 cycles apart.
    assert done == [15, 18, 21]
    link = next(l for l in mesh.links() if l.name == "mesh.e[0,0]")
    assert link.packets == 3
    assert link.busy_cycles == 9
    # Second packet queued 3 cycles, third 6.
    assert link.wait_cycles == 9
    assert mesh.wait_cycles == 9


def test_disjoint_mesh_paths_do_not_contend(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))
    done = []
    mesh.transit_then("stash", 0, 1, lambda _: done.append(("a", env.now)), None)
    mesh.transit_then("stash", 4, 5, lambda _: done.append(("b", env.now)), None)
    env.run()
    assert done == [("a", 15), ("b", 15)]
    assert mesh.wait_cycles == 0


def test_link_report_and_utilization(env):
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16))
    mesh.transit_then("stash", 0, 1, _ignore, None)
    env.run()
    report = mesh.link_report(elapsed=100)
    used = [row for row in report if row["packets"]]
    assert used == [
        {
            "link": "mesh.e[0,0]",
            "packets": 1,
            "busy_cycles": 3,
            "wait_cycles": 0,
            "utilization": 0.03,
        }
    ]
    assert mesh.utilization(elapsed=100) == pytest.approx(
        3 / (100 * len(mesh.links()))
    )
    assert mesh.utilization(elapsed=0) == 0.0 if env.now == 0 else True


# ------------------------------------------------------------------- ring
def test_ring_takes_shorter_arc_clockwise_on_ties(env):
    ring = TOPOLOGIES.resolve("ring")(env, cfg(num_cores=8))
    assert [l.name for l in ring.route(0, 2)] == ["ring.cw[0]", "ring.cw[1]"]
    assert [l.name for l in ring.route(0, 6)] == ["ring.ccw[0]", "ring.ccw[7]"]
    # Exact tie (distance 4 both ways) goes clockwise.
    assert [l.name for l in ring.route(0, 4)][0] == "ring.cw[0]"
    assert ring.hops(0, 4) == 4
    assert ring.hops(1, 1) == 0
    assert ring.route(3, 3) == ()


def test_ring_srd_placement(env):
    ring = TOPOLOGIES.resolve("ring")(env, cfg(num_cores=8, num_srds=2))
    assert [ring.srd_node(i) for i in range(2)] == [0, 4]


# --------------------------------------------------------------- crossbar
def test_crossbar_two_hop_routes_and_endpoint_contention(env):
    xbar = TOPOLOGIES.resolve("crossbar")(env, cfg(num_cores=4))
    assert xbar.num_nodes == 5  # 4 cores + 1 SRD
    assert xbar.srd_node(0) == 4
    names = [l.name for l in xbar.route(0, xbar.srd_node(0))]
    assert names == ["xbar.in[core0]", "xbar.out[srd0]"]
    done = []
    # Two packets from different sources to the same destination: no
    # ingress contention, but they serialize on the shared egress link.
    xbar.transit_then("push-data", 0, 4, lambda _: done.append(env.now), None)
    xbar.transit_then("push-data", 1, 4, lambda _: done.append(env.now), None)
    env.run()
    assert done == [30, 33]  # 2 hops x (3+12); second waits 3 at egress
    egress = next(l for l in xbar.links() if l.name == "xbar.out[srd0]")
    assert egress.wait_cycles == 3


def _ring_distance(a, b, size):
    return min(abs(a - b), size - abs(a - b))


def _grid_distance(topo, src, dst, wrap):
    (sr, sc), (dr, dc) = divmod(src, topo.cols), divmod(dst, topo.cols)
    if wrap:
        return _ring_distance(sr, dr, topo.rows) + _ring_distance(sc, dc, topo.cols)
    return abs(sr - dr) + abs(sc - dc)


_CLOSED_FORM_HOPS = {
    "mesh": lambda topo, s, d: _grid_distance(topo, s, d, wrap=False),
    "torus": lambda topo, s, d: _grid_distance(topo, s, d, wrap=True),
    "ring": lambda topo, s, d: _ring_distance(s, d, topo.n),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_HOPS))
def test_hops_equal_closed_form_distance_on_every_pair(name):
    """``Topology.hops`` is the routed path length; on every node pair at
    1-64 cores it equals the fabric's analytic distance (Manhattan on the
    mesh, shortest way round each ring on the torus and the ring)."""
    from repro.sim.kernel import Environment

    distance = _CLOSED_FORM_HOPS[name]
    for cores in range(1, 65):
        topo = TOPOLOGIES.resolve(name)(
            Environment(), cfg(num_cores=cores, topology=name)
        )
        nodes = range(topo.num_nodes)
        mismatches = [
            (s, d) for s in nodes for d in nodes
            if topo.hops(s, d) != distance(topo, s, d)
        ]
        assert mismatches == [], (cores, mismatches[:5])


# ------------------------------------------------------------- single-bus
def test_single_bus_matches_historical_arithmetic(env):
    bus = TOPOLOGIES.resolve("single-bus")(env, cfg())
    done = []
    for _ in range(3):
        bus.transit_then("stash", 0, 5, lambda _: done.append(env.now), None)
    env.run()
    # occupancy(3) + latency(36), 3-cycle serialization spacing — the
    # exact pre-topology CoherenceNetwork numbers (tests/test_mem_bus.py).
    assert done == [39, 42, 45]
    assert bus.response_latency(0, 15) == 36  # distance-free
    assert bus.hops(0, 15) == 1
    assert bus.links() == []  # no per-link reporting on the bus model
    assert bus.wait_cycles == 0
    assert bus.busy_cycles == 9


# ------------------------------------------------------------------ hooks
def test_link_hook_published_per_traversal(env):
    hooks = HookBus()
    seen = []
    hooks.subscribe(LinkHook, seen.append)
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16), hooks=hooks)
    mesh.transit_then("stash", 0, 2, _ignore, None)
    env.run()
    assert [e.link for e in seen] == ["mesh.e[0,0]", "mesh.e[0,1]"]
    assert all(e.kind == "stash" and (e.src, e.dst) == (0, 2) for e in seen)


def test_no_link_hooks_without_subscribers(env):
    hooks = HookBus()
    mesh = TOPOLOGIES.resolve("mesh")(env, cfg(num_cores=16), hooks=hooks)
    mesh.transit_then("stash", 0, 1, _ignore, None)
    env.run()  # wanted gate: publish never constructs events
    assert hooks.errors == []


def test_single_bus_never_publishes_link_hooks(env):
    hooks = HookBus()
    seen = []
    hooks.subscribe(LinkHook, seen.append)
    bus = TOPOLOGIES.resolve("single-bus")(env, cfg(), hooks=hooks)
    bus.transit_then("stash", 0, 1, _ignore, None)
    env.run()
    assert seen == []
