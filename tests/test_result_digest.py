"""Tier-1 result digest: SHA-256 over canonical ``RunMetrics`` bytes.

Same-cycle tie order is observable in the model's results, yet most
tier-1 tests cannot see it: a consumer poll that wakes at the end of its
cycle instead of in scheduling order (same wake times) passes every unit
and golden test while it moves the results of whole-system runs.  This
file pins those results.  A small matrix of simulations runs in one
process, each cell's :class:`~repro.eval.metrics.RunMetrics` is
serialized canonically (sorted-key compact JSON) and hashed, and the
per-cell and overall digests must equal the committed
``tests/golden/result_digest.json``.

The matrix is every Table-2 workload x VL/SPAMeR(tuned) at scale 0.05,
``scaling-halo`` on 16-core mesh and torus fabrics, ``incast`` under
open Poisson arrivals with multi-push k=2, ``pipeline`` under
SPAMeR(tuned) with an 8-entry prodBuf (25 waits on an admission
reserve, against 4 in ``incast/vl`` and none in any other cell), the
software ping-pong on the MOESI substrate (:mod:`repro.mem.coherence`)
on the shared bus and on a 16-core mesh, whose coherence packets cross
two and three hops, and the Figure 7 trace experiment under VL and
SPAMeR(0delay): 26 cells, about 0.7 s.  A ping-pong cell hashes its
``(total_cycles, coherence_packets)``; a Figure 7 cell hashes
``exec_cycles`` and the ten CSV fields of every traced transaction.
Each cell also hashes the ``(time, seq, callback __qualname__)`` of
every entry the kernel dispatches, read through a patched
``kernel.heappop`` (``tests/golden/dispatch_keys.json``), so an entry
that moves without moving any result still shows.
The kill pairs apply each mutant with ``monkeypatch`` and require the
digest and the key hash to move, so both are shown to see the tie
orders they exist to pin:

* ``late-poll``: the parked pop's poll (``_poll_tick``) runs at the back
  of its cycle (its ``seq`` moved by ``+2**40``) instead of in queueing
  order;
* ``front-hop``: every network hop (``Topology._enter``) completes at
  the front of its cycle (``seq`` moved by ``-2**40``);
* ``lifo-server``: a :class:`~repro.sim.resources.FifoServer` serves the
  packets that arrive within one cycle last-in first-out
  (``serve_then``);
* ``late-refetch``: a legacy endpoint re-issues ``vl_fetch`` one poll
  after its back-off deadline;
* ``lifo-wake``, ``urgent-wake``, ``late-wake``: a
  :class:`~repro.sim.resources.Resource` release hands the unit to its
  newest waiter, or wakes the oldest at the front of the cycle, or one
  cycle late (prodBuf admission);
* ``instant-grant``: a free admission credit is granted without the
  zero-delay entry the pushing process resumes from.

Each of the first four moves at least three cells, and no one family of
cells kills all four (``front-hop`` moves only the NoC cells).  Only
``incast/vl`` and the prodBuf cell see a reserve wait: ``lifo-wake`` and
``late-wake`` move both, ``urgent-wake`` only the prodBuf cell.  The key
hash is the finer pin: ``late-poll`` moves the results of 7 cells and
the dispatched keys of 24.

A fifth kill pair guards the Figure 7 cells, which see what no
``RunMetrics`` does: ``now-vacate`` publishes the back-dated
``LINE_VACATE`` moment at the fill's tick instead of the line's vacate
time.

After an intentional change to modelled behaviour, regenerate with::

    PYTHONPATH=src python tests/test_result_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.eval.autotune import saturated_bus_config
from repro.eval.experiments import trace_experiment
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.net.topology import Topology
from repro.sim import kernel
from repro.sim.hooks import EventKind
from repro.sim.kernel import Environment
from repro.sim.process import Process
from repro.sim.resources import FifoServer, Resource
from repro.swqueue import run_software_pingpong
from repro.vlink import library
from repro.vlink.pipeline import MappingPipeline
from repro.vlink.vlrd import VirtualLinkRoutingDevice
from repro.workloads.arrival import ArrivalSpec
from repro.workloads.registry import workload_names

GOLDEN = Path(__file__).parent / "golden" / "result_digest.json"
KEYS_GOLDEN = Path(__file__).parent / "golden" / "dispatch_keys.json"
SEED = 12648430
SCALE = 0.05
PINGPONG_MESSAGES = 100


def _cells():
    """``(name, run, keyword arguments)`` for every matrix cell; ``run``
    returns the bytes the cell hashes."""
    cells = [
        (f"{workload}/{setting}", _run_cell,
         dict(workload_name=workload, setting=setting))
        for workload in workload_names()
        for setting in ("vl", "tuned")
    ]
    cells += [
        (
            f"scaling-halo/{setting}/{topology}16",
            _run_cell,
            dict(
                workload_name="scaling-halo",
                setting=setting,
                config=scaling_config(16, topology),
            ),
        )
        for topology in ("mesh", "torus")
        for setting in ("vl", "tuned")
    ]
    cells.append(
        (
            "incast/multipush-k2/poisson",
            _run_cell,
            dict(
                workload_name="incast",
                setting="multipush",
                config=saturated_bus_config().with_overrides(burst_k=2, p_min=0.0),
                arrival=ArrivalSpec.make("poisson", rate=0.002),
            ),
        )
    )
    cells.append(
        (
            "pipeline/tuned/prodbuf8",
            _run_cell,
            dict(
                workload_name="pipeline",
                setting="tuned",
                config=SystemConfig(prodbuf_entries=8),
            ),
        )
    )
    cells += [
        ("software-pingpong/single-bus", _run_pingpong_cell, dict(config=None)),
        ("software-pingpong/mesh16", _run_pingpong_cell,
         dict(config=scaling_config(16, "mesh"))),
    ]
    cells += [
        (f"fig7/{setting}", _run_fig7_cell, dict(setting=setting))
        for setting in ("vl", "0delay")
    ]
    return cells


def canonical_bytes(metrics) -> bytes:
    """One run's metrics as sorted-key compact JSON."""
    return json.dumps(
        dataclasses.asdict(metrics), sort_keys=True, separators=(",", ":")
    ).encode()


def _run_cell(kwargs) -> bytes:
    kwargs = dict(kwargs)
    setting = setting_by_name(kwargs.pop("setting"))
    return canonical_bytes(
        run_workload(setting=setting, scale=SCALE, seed=SEED, **kwargs)
    )


def _run_pingpong_cell(kwargs) -> bytes:
    result = run_software_pingpong(PINGPONG_MESSAGES, **kwargs)
    return json.dumps([result.total_cycles, result.coherence_packets]).encode()


def _run_fig7_cell(kwargs) -> bytes:
    result = trace_experiment(
        setting_by_name(kwargs["setting"]), scale=SCALE, seed=SEED
    )
    rows = [
        [t.transaction_id, t.sqi, t.data_arrive, t.request_arrive,
         t.line_vacate, t.line_fill, t.first_use, int(t.speculative),
         int(t.request_bound), t.potential_saving]
        for t in result.transactions
    ]
    return json.dumps([result.exec_cycles, rows], separators=(",", ":")).encode()


def _recording_pop(keys):
    """``kernel.heappop`` that appends each dispatched entry's
    ``(time, seq, callback __qualname__)`` line to *keys*."""

    def pop(queue):
        entry = heapq.heappop(queue)
        keys.append(f"{entry[0]} {entry[1]} {entry[2].__qualname__}\n")
        return entry

    return pop


def compute_digest(stop_at_first_change=None):
    """``{"cells": {name: sha256}, "keys": {name: sha256}, "sha256": overall}``
    for the matrix: ``cells`` hashes each cell's result bytes, ``keys``
    the dispatched key sequence observed through a patched
    ``kernel.heappop``.

    With *stop_at_first_change* (a golden document), stop after the first
    cell whose result digest differs from it and return only the cells
    run so far: a mutant is killed as soon as one cell moves.
    """
    cells, keys = {}, {}
    overall = hashlib.sha256()
    pop = kernel.heappop
    for name, run, kwargs in _cells():
        dispatched = []
        kernel.heappop = _recording_pop(dispatched)
        try:
            data = run(kwargs)
        finally:
            kernel.heappop = pop
        overall.update(data)
        cells[name] = hashlib.sha256(data).hexdigest()
        keys[name] = hashlib.sha256("".join(dispatched).encode()).hexdigest()
        if (
            stop_at_first_change is not None
            and cells[name] != stop_at_first_change["cells"].get(name)
        ):
            break
    return {"cells": cells, "keys": keys, "sha256": overall.hexdigest()}


def _golden():
    return {**json.loads(GOLDEN.read_text()), "keys": json.loads(KEYS_GOLDEN.read_text())}


def _moved(got, golden, field):
    return sorted(
        name for name in set(got[field]) | set(golden[field])
        if got[field].get(name) != golden[field].get(name)
    )


def test_result_digest_matches_golden():
    golden = _golden()
    got = compute_digest()
    assert _moved(got, golden, "cells") == [], "RunMetrics moved"
    assert got["sha256"] == golden["sha256"]
    assert _moved(got, golden, "keys") == [], "dispatch keys moved"


# ------------------------------------------------------------------ mutants
#: A sequence-number shift that takes an entry to the back (``+``) or
#: the front (``-``) of its cycle: every real ``seq`` is far smaller.
CYCLE_EDGE = 2**40


def _requeue(env, seq, time=None, shift=0) -> None:
    """Rewrite the queue key of the already-scheduled entry *seq* in place:
    a new *time*, and its sequence number moved by *shift*."""
    queue = env._queue
    for i, entry in enumerate(queue):
        if entry[1] == seq:
            queue[i] = (
                entry[0] if time is None else time, seq + shift
            ) + entry[2:]
            heapq.heapify(queue)
            return
    raise AssertionError(f"queue entry {seq} is not queued")


def _late_poll(monkeypatch):
    call_later, poll_tick = Environment.call_later, library._poll_tick

    def late(self, delay, callback, arg=None):
        if callback is not late_tick:
            return call_later(self, delay, callback, arg)
        seq = self._seq
        heapq.heappush(
            self._queue, (self._now + delay, seq + CYCLE_EDGE, callback, arg)
        )
        self._seq = seq + 1

    def late_tick(poll):
        # An idle poll returns its quantum for the loop to re-arm in
        # queueing order; queue it through the late call_later instead.
        delay = poll_tick(poll)
        if delay is not None:
            poll.env.call_later(delay, late_tick, poll)

    monkeypatch.setattr(library, "_poll_tick", late_tick)
    monkeypatch.setattr(Environment, "call_later", late)


def _late_refetch(monkeypatch):
    init, act = library._StalledPop.__init__, library._StalledPop.act

    def one_poll_later(poll):
        poll.refetch_at += poll.library.config.poll_interval
        poll._plan(poll.env.now)

    def late_init(self, *args):
        init(self, *args)
        one_poll_later(self)

    def late_act(self, now):
        deadline = self.refetch_at
        if act(self, now):
            return True
        if self.refetch_at != deadline:  # this poll re-issued the fetch
            one_poll_later(self)
        return False

    monkeypatch.setattr(library._StalledPop, "__init__", late_init)
    monkeypatch.setattr(library._StalledPop, "act", late_act)


def _front_hop(monkeypatch):
    enter = Topology._enter

    def front_of_cycle(self, link, kind, src, dst, fn, arg):
        enter(self, link, kind, src, dst, fn, arg)
        # The hop's completion is the entry its serve_then just queued.
        _requeue(self.env, self.env._seq - 1, shift=-CYCLE_EDGE)

    monkeypatch.setattr(Topology, "_enter", front_of_cycle)


def _lifo_server(monkeypatch):
    # server -> (cycle, [(seq, latency), ...], [finish, ...]): the
    # packets that arrived in the current cycle and their FIFO slots.
    batches = {}

    def serve_then(self, fn, arg):
        env = self.env
        now = env.now
        start = max(now, self._free_at)
        finish = start + self.service_time
        self._free_at = finish
        self.packets_served += 1
        env.call_later(finish - now + self.latency, fn, arg)
        batch = batches.get(self)
        if batch is None or batch[0] != now:
            batch = batches[self] = (now, [], [])
        batch[1].append((env._seq - 1, self.latency))
        batch[2].append(finish)
        # Newest arrival takes the earliest slot of this cycle.
        for (seq, extra), slot in zip(reversed(batch[1]), batch[2]):
            _requeue(env, seq, time=slot + extra)

    monkeypatch.setattr(FifoServer, "serve_then", serve_then)


def _reserve_wake(pick, delay=0, shift=0):
    """A :meth:`Resource.release` whose hand-off takes the waiter *pick*
    returns and queues its wake *delay* cycles ahead, its sequence
    number moved by *shift*."""

    def mutant(monkeypatch):
        def release(self):
            if self._waiters:
                env = self.env
                env.call_later(delay, Process._resume, pick(self._waiters))
                if shift:
                    _requeue(env, env._seq - 1, shift=shift)
            else:
                self._in_use -= 1

        monkeypatch.setattr(Resource, "release", release)

    return mutant


def _instant_grant(monkeypatch):
    acquire = Resource.acquire

    def no_entry(self):
        if self._in_use < self.capacity:
            self._in_use += 1
            return
        yield from acquire(self)

    def acquire_entry(self, sqi):
        if self._reserve_per_sqi is None:
            self.finalize_capacity()
        if self._shared_credits.try_acquire():
            return "shared"
        yield from self._reserved(sqi).acquire()
        return "reserved"

    monkeypatch.setattr(Resource, "acquire", no_entry)
    monkeypatch.setattr(VirtualLinkRoutingDevice, "acquire_entry", acquire_entry)


def _now_vacate(monkeypatch):
    trace = MappingPipeline.trace

    def at_now(self, kind, time, transaction_id, sqi, detail=""):
        if kind is EventKind.LINE_VACATE:
            time = self.env.now
        trace(self, kind, time, transaction_id, sqi, detail)

    monkeypatch.setattr(MappingPipeline, "trace", at_now)


MUTANTS = {
    "late-poll": _late_poll,
    "front-hop": _front_hop,
    "lifo-server": _lifo_server,
    "late-refetch": _late_refetch,
    "lifo-wake": _reserve_wake(lambda waiters: waiters.pop()),
    "urgent-wake": _reserve_wake(
        lambda waiters: waiters.popleft(), shift=-CYCLE_EDGE
    ),
    "late-wake": _reserve_wake(lambda waiters: waiters.popleft(), delay=1),
    "instant-grant": _instant_grant,
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_digest_kills_mutant(monkeypatch, mutant):
    """Each mutant moves at least one cell of the digest."""
    golden = _golden()
    MUTANTS[mutant](monkeypatch)
    got = compute_digest(stop_at_first_change=golden)
    assert any(
        digest != golden["cells"][name] for name, digest in got["cells"].items()
    ), f"{mutant} left every cell of the result digest unchanged"
    assert any(
        digest != golden["keys"][name] for name, digest in got["keys"].items()
    ), f"{mutant} left every cell's dispatch keys unchanged"


def test_fig7_cells_kill_now_vacate(monkeypatch):
    """Publishing the back-dated vacate at the current tick moves both
    Figure 7 cells."""
    golden = _golden()
    _now_vacate(monkeypatch)
    fig7 = [cell for cell in _cells() if cell[0].startswith("fig7/")]
    assert len(fig7) == 2
    for name, run, kwargs in fig7:
        digest = hashlib.sha256(run(kwargs)).hexdigest()
        assert digest != golden["cells"][name], f"now-vacate left {name} unchanged"


if __name__ == "__main__":
    document = compute_digest()
    keys = document.pop("keys")
    document = {"seed": SEED, "scale": SCALE, **document}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    KEYS_GOLDEN.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} and {KEYS_GOLDEN} ({len(keys)} cells)", file=sys.stderr)
