"""Unit + system tests for the 2-D torus topology (repro.net.torus)."""

import pytest

from repro.config import SystemConfig
from repro.eval.runner import run_workload, setting_by_name
from repro.registry import TOPOLOGIES


def cfg(**overrides):
    defaults = dict(num_cores=16, bus_occupancy=3, bus_latency=36,
                    link_latency=12)
    defaults.update(overrides)
    return SystemConfig(topology="torus", **defaults)


def torus(env, **overrides):
    return TOPOLOGIES.resolve("torus")(env, cfg(**overrides))


# ----------------------------------------------------------------- registry
def test_torus_registered():
    assert "torus" in TOPOLOGIES.names()


# ----------------------------------------------------------------- geometry
def test_4x4_link_count_and_names(env):
    topo = torus(env)
    assert (topo.rows, topo.cols) == (4, 4)
    links = topo.links()
    # 48 directed mesh links + 8 row wraps + 8 column wraps
    assert len(links) == 64
    names = [l.name for l in links]
    assert len(set(names)) == 64  # unique, deterministic enumeration
    assert "torus.we[0]" in names and "torus.ww[3]" in names
    assert "torus.ws[0]" in names and "torus.wn[3]" in names


def test_links_enumerate_deterministically(env):
    from repro.sim.kernel import Environment

    a = [l.name for l in torus(env).links()]
    b = [l.name for l in torus(Environment()).links()]
    assert a == b


def test_two_wide_dimension_gets_no_wrap_links(env):
    # 2x2: every wrap edge would duplicate an existing neighbor link.
    topo = torus(env, num_cores=4)
    assert (topo.rows, topo.cols) == (2, 2)
    names = [l.name for l in topo.links()]
    assert len(names) == 8
    assert not any(
        n.startswith(("torus.we", "torus.ww", "torus.ws", "torus.wn"))
        for n in names
    )
    # routing still works around the tiny grid
    assert topo.hops(0, 3) == 2


def test_mesh_dims_accepted_for_torus(env):
    config = SystemConfig(topology="torus", num_cores=8, mesh_dims=(2, 4))
    topo = TOPOLOGIES.resolve("torus")(env, config)
    assert (topo.rows, topo.cols) == (2, 4)
    # only the 4-wide dimension is wrapped
    names = [l.name for l in topo.links()]
    assert any(n.startswith("torus.we") for n in names)
    assert not any(n.startswith("torus.ws") for n in names)


# ------------------------------------------------------------------ routing
def test_wraparound_halves_corner_to_corner_distance(env):
    from repro.sim.kernel import Environment

    topo = torus(env)
    mesh = TOPOLOGIES.resolve("mesh")(
        Environment(), cfg(num_cores=16).with_overrides(topology="mesh")
    )
    # (0,0) -> (3,3): mesh walks 3+3 hops, the torus wraps 1+1... times 1
    # ring step each way => 2 hops total.
    assert mesh.hops(0, 15) == 6
    assert topo.hops(0, 15) == 2
    assert len(topo.route(0, 15)) == topo.hops(0, 15)


def test_route_length_matches_hops_everywhere(env):
    topo = torus(env)
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            route = topo.route(src, dst)
            assert len(route) == topo.hops(src, dst)
            if src == dst:
                assert route == ()


def test_even_ring_tie_breaks_east(env):
    # column 0 -> column 2 on a 4-ring: both ways are 2 hops; the
    # deterministic tie-break walks east (positive direction).
    topo = torus(env)
    names = [l.name for l in topo.route(0, 2)]
    assert names == ["torus.e[0,0]", "torus.e[0,1]"]


def test_hops_symmetric_under_wraparound(env):
    topo = torus(env)
    for src, dst in [(0, 12), (1, 13), (0, 3), (5, 9)]:
        assert topo.hops(src, dst) == topo.hops(dst, src)


def test_srd_placement_matches_mesh(env):
    from repro.sim.kernel import Environment

    topo = torus(env)
    mesh = TOPOLOGIES.resolve("mesh")(
        Environment(), cfg(num_cores=16).with_overrides(topology="mesh")
    )
    srds = topo.config.num_srds
    for i in range(srds):
        assert topo.srd_node(i) == mesh.srd_node(i)


# --------------------------------------------------------------- end-to-end
@pytest.mark.parametrize("setting", ["vl", "tuned"])
def test_workload_completes_verified_on_torus(setting):
    metrics = run_workload(
        "ping-pong", setting_by_name(setting), scale=0.1,
        config=SystemConfig(topology="torus"), verify=True,
    )
    assert metrics.messages_delivered == metrics.messages_produced > 0
    assert metrics.extra["net_links"] == 64
    assert 0.0 <= metrics.extra["net_utilization"] <= 1.0


def test_torus_shrinks_mean_and_worst_case_distance(env):
    """Wraparound never lengthens a route (per-pair hops <= mesh hops) and
    strictly shrinks the 4x4 diameter and mean distance.  Wall-clock can
    still wobble a few cycles either way — rerouting reshuffles link
    contention — so the structural claim is the invariant worth pinning."""
    from repro.sim.kernel import Environment

    topo = torus(env)
    mesh = TOPOLOGIES.resolve("mesh")(
        Environment(), cfg(num_cores=16).with_overrides(topology="mesh")
    )
    pairs = [(s, d) for s in range(16) for d in range(16)]
    assert all(topo.hops(s, d) <= mesh.hops(s, d) for s, d in pairs)
    assert max(topo.hops(s, d) for s, d in pairs) == 4  # diameter, mesh: 6
    assert (sum(topo.hops(s, d) for s, d in pairs)
            < sum(mesh.hops(s, d) for s, d in pairs))
