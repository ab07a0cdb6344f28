"""Differential test: continuation-passing network transit against the
Event form it replaced.

A packet used to cross the network as events: ``FifoServer.serve``
returned a timer event per link, a multi-hop route chained its hops
through a closure per hop and ended in a ``done`` event, and every
caller subscribed a lambda to the result (or a coherence process waited
on it).  The kernel no longer has subscribable events, so ``_OneShot``
below rebuilds one: its subscribers fire from one ``call_later`` entry
with the key the event's scheduling drew.  The network now takes a
continuation, ``transit_then(kind, fn, arg)``, and queues ``fn(arg)``
with ``call_later`` where the events were scheduled.  Each case here
runs once with a test-local copy of the Event form monkeypatched in and
once with the library as it is, and requires byte-identical results
*and* the identical sequence of dispatched ``(time, seq)`` queue
keys.

The cases cover multi-hop transits (``scaling-halo`` on a 16-core mesh
and torus), same-node and one-link deliveries, multi-push rollback (k=2 rollbacks, and the landed-claim
invalidation packet, which needs a burst of at least three claims) and
the MOESI software ping-pong on the mesh, whose coherence packets park
the calling process.
"""

from __future__ import annotations

import heapq
import json

import pytest

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.eval.autotune import saturated_bus_config
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.mem.coherence import CoherentMemorySystem
from repro.net.singlebus import SingleBusTopology
from repro.net.topology import PacketKind, Topology
from repro.sim.hooks import BusHook, LinkHook
from repro.sim.process import PARK, Process
from repro.swqueue import run_software_pingpong
from repro.system import System
from repro.verify.fuzz import LinkSpec, ProgramSpec, run_fuzz_case
from repro.workloads.arrival import ArrivalSpec
from tests.test_result_digest import canonical_bytes

SEED = 12648430
SCALE = 0.05


# ------------------------------------------------- the Event form, verbatim
class _OneShot:
    """A one-shot event: its subscribers run, in subscription order, from
    the one queue entry that :meth:`succeed` (or :func:`_timer`) queued,
    under the ``(time, seq)`` key that scheduling the event drew."""

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.fired = False

    def subscribe(self, callback):
        assert not self.fired, "every subscriber here joins before the event fires"
        self.callbacks.append(callback)

    def succeed(self):
        self.env.call_later(0, _OneShot._fire, self)

    def _fire(self):
        self.fired = True
        for callback in self.callbacks:
            callback(self)


def _timer(env, delay):
    """``env.timeout(delay)``: a triggered event scheduled *delay* ahead,
    its sequence number drawn here."""
    event = _OneShot(env)
    env.call_later(delay, _OneShot._fire, event)
    return event


def _serve(server):
    """``FifoServer.serve``: the completion is a timer event after the
    service and the propagation latency."""
    start = max(server.env.now, server._free_at)
    finish = start + server.service_time
    server._free_at = finish
    server.packets_served += 1
    return _timer(server.env, finish - server.env.now + server.latency)


def _traverse(topology, link, kind, src, dst):
    """``Link.traverse`` and ``Topology._traverse``."""
    wait = link._free_at - topology.env.now
    if wait > 0:
        link.wait_cycles += wait
    event = _serve(link)
    topology.packets_served += 1
    hooks = topology.hooks
    if LinkHook in hooks.wanted:
        hooks.publish(
            LinkHook(
                tick=topology.env.now,
                link=link.name,
                kind=kind,
                src=src,
                dst=dst,
                busy_cycles=link.busy_cycles,
                wait_cycles=link.wait_cycles,
            )
        )
    return event


def _topology_transit(topology, kind, src, dst):
    """``SingleBusTopology.transit`` and ``Topology.transit``."""
    env = topology.env
    if isinstance(topology, SingleBusTopology):
        return _serve(topology.server)
    links = topology.route(src, dst)
    if not links:
        return _timer(env, topology.config.bus_occupancy)
    if len(links) == 1:
        return _traverse(topology, links[0], kind, src, dst)
    done = _OneShot(env)

    def advance(index):
        hop = _traverse(topology, links[index], kind, src, dst)
        if index + 1 == len(links):
            hop.subscribe(lambda _ev: done.succeed())
        else:
            hop.subscribe(lambda _ev: advance(index + 1))

    advance(0)
    return done


def _transit(network, kind, src=0, dst=0):
    """The network's ``transit``: count, then the fabric's transit."""
    network.counters.counts[kind.value] += 1
    network.counters.counts["total_packets"] += 1
    delivered = _topology_transit(network, kind.value, src, dst)
    if BusHook in network.hooks.wanted:
        network.hooks.publish(
            BusHook(tick=network.env.now, kind=kind.value,
                    busy_cycles=network.busy_cycles)
        )
    return delivered


def _response(network, src=0, dst=0):
    """The network's ``response``."""
    network.counters.counts["responses"] += 1
    return _timer(network.env, network.response_latency(src, dst))


# Callers subscribed a lambda to the event (``library``, ``vlrd``,
# ``multipush``); a coherence generator parked and its process was
# resumed by the event's subscriber.
def _transit_then(self, kind, fn, arg, src=0, dst=0):
    _transit(self, kind, src=src, dst=dst).subscribe(lambda _ev: fn(arg))


def _response_then(self, src, dst, fn, arg):
    _response(self, src=src, dst=dst).subscribe(lambda _ev: fn(arg))


def _resume(process):
    """``Process._resume`` called from a subscriber: queue the sleep it
    returns, as the dispatch loop re-arms one."""
    delay = Process._resume(process)
    if delay is not None:
        process.env.call_later(delay, Process._resume, process)


def _bus_packet(self, src, dst):
    process = self.env.active_process
    _transit(self.network, PacketKind.COHERENCE, src=src, dst=dst).subscribe(
        lambda _ev: _resume(process))
    yield PARK


def _run(monkeypatch, case, reference):
    """Run *case*; return its result and every dispatched queue key."""
    keys = []

    def pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:2])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "heappop", pop)
        if reference:
            for fabric in (Topology, SingleBusTopology):
                patch.setattr(fabric, "transit_then", _transit_then)
            patch.setattr(Topology, "response_then", _response_then)
            patch.setattr(CoherentMemorySystem, "_bus_packet", _bus_packet)
        result = case()
    return result, keys


def _assert_same(monkeypatch, case):
    want, want_keys = _run(monkeypatch, case, reference=True)
    got, got_keys = _run(monkeypatch, case, reference=False)
    assert got == want
    assert got_keys == want_keys
    return got


# ------------------------------------------------------ whole workload runs
WORKLOAD_CASES = [
    ("scaling-halo", "vl", "mesh16", dict(config=scaling_config(16, "mesh"))),
    ("scaling-halo", "tuned", "mesh16", dict(config=scaling_config(16, "mesh"))),
    ("scaling-halo", "vl", "torus16", dict(config=scaling_config(16, "torus"))),
    ("scaling-halo", "tuned", "torus16", dict(config=scaling_config(16, "torus"))),
    (
        "incast",
        "multipush",
        "k2-poisson",
        dict(
            config=saturated_bus_config().with_overrides(burst_k=2, p_min=0.0),
            arrival=ArrivalSpec.make("poisson", rate=0.002),
        ),
    ),
]


@pytest.mark.parametrize(
    "workload,setting,label,kwargs",
    WORKLOAD_CASES,
    ids=[f"{w}-{s}-{label}" for w, s, label, _ in WORKLOAD_CASES],
)
def test_workload_metrics_match_event_form(monkeypatch, workload, setting, label, kwargs):
    got = _assert_same(
        monkeypatch,
        lambda: canonical_bytes(
            run_workload(workload, setting_by_name(setting), scale=SCALE,
                         seed=SEED, **kwargs)
        ),
    )
    if setting == "multipush":
        assert json.loads(got)["extra"]["spec_rollbacks"] > 0


# ------------------------------------------------------- targeted scenarios
def test_same_node_delivery_matches_event_form(monkeypatch):
    """Ping-pong between the core on SRD 0's mesh node (every push and
    stash of its side crosses no link) and its one-link neighbour."""

    def case():
        system = System(config=scaling_config(16, "mesh"), device="spamer",
                        algorithm="tuned")
        net = system.network
        assert net.hops(net.core_nodes[8], net.srd_nodes[0]) == 0
        assert net.hops(net.core_nodes[9], net.srd_nodes[0]) == 1
        lib = system.library
        q_ab, q_ba = lib.create_queue(), lib.create_queue()
        prod_a, cons_b = lib.open_producer(q_ab, 8), lib.open_consumer(q_ab, 9)
        prod_b, cons_a = lib.open_producer(q_ba, 9), lib.open_consumer(q_ba, 8)
        got = []

        def side_a(ctx):
            for i in range(40):
                yield from ctx.push(prod_a, i)
                got.append(((yield from ctx.pop(cons_a)).payload, ctx.now))

        def side_b(ctx):
            for _ in range(40):
                msg = yield from ctx.pop(cons_b)
                yield from ctx.push(prod_b, msg.payload)

        system.spawn(8, side_a, "a")
        system.spawn(9, side_b, "b")
        system.run_to_completion(limit=10_000_000)
        return got, system.env.events_processed, system.network.total_packets

    got, _, _ = _assert_same(monkeypatch, case)
    assert [payload for payload, _ in got] == list(range(40))


def test_rollback_invalidation_matches_event_form(monkeypatch):
    """Landed burst claims rolled back: each pays an invalidation transit
    before its line is vacated (the pinned program of
    tests/test_multipush_rollback_regression.py)."""
    spec = ProgramSpec(links=(LinkSpec(2, 1, 16),), producer_compute=0,
                       consumer_compute=0)

    def case():
        result = run_fuzz_case(spec, setting_by_name("multipush"),
                               config=SystemConfig(num_cores=8, lines_per_endpoint=4,
                                                   burst_k=4, p_min=0.0))
        assert result.ok
        stats = result.system.aggregate_device_stats()
        return (result.stream, result.system.env.now,
                stats.get("rollback_invalidations"))

    _, _, invalidations = _assert_same(monkeypatch, case)
    assert invalidations >= 1


def test_software_pingpong_on_mesh_matches_event_form(monkeypatch):
    """MOESI coherence packets cross two and three mesh links; the
    process parks on each one."""

    def case():
        result = run_software_pingpong(100, config=scaling_config(16, "mesh"))
        return result.total_cycles, result.coherence_packets

    _assert_same(monkeypatch, case)
