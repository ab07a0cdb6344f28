"""Hot-path regression tests: `__slots__` coverage, the one queue-entry
form, ``call_later`` edge cases, and dispatch order on deep or dense
queues.

The allocation-free dispatch work (PERFORMANCE.md §5) rests on two
properties that nothing else in the suite pins directly:

* every per-event / per-component class in ``sim/`` carries ``__slots__``
  (an instance ``__dict__`` would be the kernel's largest allocation);
* every queue entry is a ``(time, seq, fn, arg)`` call, so the
  dispatch loop has one branch-free body, and a process's exit is such
  an entry: nothing subscribes to an event;
* only a sleep (``Process._resume``) and an idle line poll
  (``_poll_tick``) return a delay for the loop to re-arm; every other
  callback returns ``None``.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.sim
import repro.sim.event
import repro.sim.hooks
import repro.sim.kernel as kernel
import repro.sim.process
import repro.sim.request
import repro.sim.resources
import repro.sim.rng
import repro.sim.stats
import repro.sim.transaction
from repro.config import SystemConfig
from repro.errors import SchedulingError
from repro.eval.runner import run_workload, setting_by_name
from repro.sim.event import Event
from repro.sim.kernel import Environment
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.system import System
from repro.vlink import library
from tests.conftest import noop


# ------------------------------------------------------------ __slots__ audit
#: Modules whose classes must all be slotted (allocated per event, per
#: message hop, or per component — see each module's docstring).
_AUDITED_MODULES = [
    repro.sim.event,
    repro.sim.process,
    repro.sim.resources,
    repro.sim.hooks,
    repro.sim.stats,
    repro.sim.request,
    repro.sim.transaction,
    repro.sim.rng,
]


def _audited_classes():
    for module in _AUDITED_MODULES:
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue  # re-exported import, audited in its own module
            if issubclass(cls, (Exception, tuple)) or hasattr(cls, "_member_map_"):
                continue  # enums and NamedTuples manage their own layout
            yield pytest.param(cls, id=f"{module.__name__}.{name}")


@pytest.mark.parametrize("cls", list(_audited_classes()))
def test_sim_classes_define_slots(cls):
    """No class in the audited modules may reintroduce a per-instance dict.

    ``__slots__`` only suppresses the dict if every class in the MRO
    (below ``object``) defines it, so the assertion checks the layout
    outcome — ``__dict__`` must be absent from instances — not just the
    attribute's presence on one class.
    """
    for klass in cls.__mro__[:-1]:
        assert "__slots__" in klass.__dict__, (
            f"{klass.__qualname__} (in {cls.__qualname__}'s MRO) lacks "
            f"__slots__ — instances of {cls.__qualname__} would carry a dict"
        )


# ------------------------------------------------ one queue-entry form
_SRC = Path(repro.sim.event.__file__).resolve().parents[1]


def test_no_event_built_outside_sim():
    """Only ``repro/sim`` builds events, and the kernel offers nothing to
    schedule, subscribe to, join or time one with.  A model module sleeps
    with a bare ``int``, waits by parking until the callback it armed
    resumes it, and delays a callback with ``call_later``; a run ends on
    the live-process set, not on an event (docs/PERFORMANCE.md §5)."""
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        if path.relative_to(_SRC).parts[0] == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute) and func.attr in ("event", "Event")
            ) or (isinstance(func, ast.Name) and func.id == "Event"):
                offenders.append(f"{path.relative_to(_SRC)}:{node.lineno}")
    assert offenders == [], f"sleep, park or call_later instead: {offenders}"
    for name in ("schedule", "schedule_callback", "event", "all_of", "step",
                 "peek", "timeout"):
        assert not hasattr(Environment, name), name
    for name in ("AllOf", "PROCESSED", "Timeout"):
        assert not hasattr(repro.sim.event, name), name
    assert "AllOf" not in repro.sim.__all__
    for name in ("subscribe", "succeed", "fail", "defuse"):
        assert not hasattr(Event, name), name
    assert "count" not in inspect.signature(Environment._loop).parameters


def test_incast_run_builds_only_threads_and_the_join(monkeypatch):
    """A scale-0.05 ``incast`` run under VL builds one ``Process`` per
    thread and nothing else (the join is the live-process set, not an
    event), queues only ``(time, seq, fn, arg)`` entries, and
    has producers wait on their prodBuf reserve."""
    built = Counter()
    widths = Counter()
    waits = []
    init, release, push = Event.__init__, Resource.release, kernel.heappush

    def counting_init(self, *args, **kwargs):
        built[type(self).__name__] += 1
        init(self, *args, **kwargs)

    def counting_release(self):
        waits.append(bool(self._waiters))
        release(self)

    def counting_push(queue, entry):
        widths[len(entry)] += 1
        push(queue, entry)

    monkeypatch.setattr(Event, "__init__", counting_init)
    monkeypatch.setattr(Resource, "release", counting_release)
    monkeypatch.setattr(kernel, "heappush", counting_push)
    _, system = run_workload(
        "incast", setting_by_name("vl"), scale=0.05, seed=12648430,
        return_system=True,
    )
    assert dict(built) == {"Process": len(system.threads)}
    assert list(widths) == [4] and widths[4] == system.env.events_scheduled
    assert any(waits), "no push waited on its reserve"


# ------------------------------------------------ transit without an Event
def _is_timeout_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "timeout") or (
        isinstance(func, ast.Name) and func.id == "Timeout"
    )


def test_network_transit_allocates_no_timeout():
    """A packet crosses the network as ``call_later`` entries handed to a
    continuation (docs/PERFORMANCE.md §5): no ``.timeout(``/``Timeout(``
    call in ``repro.net`` or ``FifoServer``, and no
    ``.subscribe(`` chained on a ``transit_then``/``response_then``."""
    resources = ast.parse((_SRC / "sim" / "resources.py").read_text())
    scopes = [
        ("sim/resources.py:FifoServer", next(
            node for node in resources.body
            if isinstance(node, ast.ClassDef) and node.name == "FifoServer"
        )),
    ]
    for path in sorted((_SRC / "net").rglob("*.py")):
        scopes.append((str(path.relative_to(_SRC)), ast.parse(path.read_text())))
    timeouts = [
        f"{label}:{node.lineno}"
        for label, tree in scopes
        for node in ast.walk(tree)
        if _is_timeout_call(node)
    ]
    assert timeouts == [], f"hand the delay to call_later instead: {timeouts}"

    chained = []
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            inner = node.func.value if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "subscribe"
            ) else None
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("transit_then", "response_then")
            ):
                chained.append(f"{path.relative_to(_SRC)}:{node.lineno}")
    assert chained == [], f"pass the continuation instead: {chained}"


# ------------------------------------------------ polls without a resume
def test_stalled_pop_resumes_once_and_polls_every_quantum(monkeypatch):
    """A consumer stalled for N polls dispatches exactly N poll entries
    and resumes its generator exactly once, to leave the stall: no resume
    per poll, and no poll elided (docs/PERFORMANCE.md §5)."""
    ticks, resumes = [], []
    poll_tick, resume = library._poll_tick, Process._resume

    def counting_tick(poll):
        ticks.append(poll.env.now)
        return poll_tick(poll)

    def counting_resume(proc):
        resumes.append((proc.name, proc.env.now))
        return resume(proc)

    monkeypatch.setattr(library, "_poll_tick", counting_tick)
    monkeypatch.setattr(Process, "_resume", counting_resume)

    system = System(config=SystemConfig(num_cores=4), device="spamer",
                    algorithm="0delay")
    lib = system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, 0)
    cons = lib.open_consumer(q, 1)
    stall = []

    def producer(ctx):
        yield ctx.compute(5_000)
        yield from ctx.push(prod, "late")

    def consumer(ctx):
        stall.append(ctx.now)
        yield from ctx.pop(cons)

    system.spawn(0, producer, "p")
    system.spawn(1, consumer, "c")
    system.run_to_completion()

    quantum = system.config.poll_interval
    start = stall[0]
    woken = [t for name, t in resumes if name == "c" and t > start]
    end = woken[0]  # the one resume that leaves the stall
    polls = (end - start) // quantum
    assert polls > 200 and (end - start) % quantum == 0
    assert ticks == [start + quantum * k for k in range(1, polls + 1)]
    assert woken == [end, end + system.config.slow_path_penalty,
                     end + system.config.slow_path_penalty
                     + system.config.pop_fast_path_cost]


def test_only_sleeps_and_idle_polls_rearm(monkeypatch):
    """Across the result-digest cells (scale 0.05) every entry the loop
    re-arms from a returned delay is ``Process._resume`` or
    ``_poll_tick``, and both do re-arm; any other callback returning a
    value would be queued again by mistake."""
    from tests.test_result_digest import _cells

    rearmed = Counter()
    in_call_later = []
    call_later, heappush = Environment.call_later, kernel.heappush

    def tracked_call_later(self, *args, **kwargs):
        in_call_later.append(True)
        try:
            call_later(self, *args, **kwargs)
        finally:
            in_call_later.pop()

    def push(queue, entry):
        if not in_call_later:
            rearmed[entry[2]] += 1
        heappush(queue, entry)

    monkeypatch.setattr(Environment, "call_later", tracked_call_later)
    monkeypatch.setattr(kernel, "heappush", push)
    for _name, run, kwargs in _cells():
        run(kwargs)
    assert set(rearmed) == {Process._resume, library._poll_tick}
    assert min(rearmed.values()) > 1000


# ------------------------------------------------------- process exit entry
def _finishes(env, value=None, delay=0):
    def body():
        yield delay
        return value

    return env.process(body())


def test_event_with_no_subscribers_dispatches(env):
    """A process nothing joins still dispatches its exit entry under a
    plain ``run()``, which leaves the live set empty."""
    proc = _finishes(env, "payload", delay=3)
    env.run()
    assert proc.value == "payload" and not env._live
    assert env.events_processed == 3  # start, wake, exit


def test_single_subscriber_needs_no_list(env):
    """A process is never subscribed to: the exit entry itself carries
    the process, so finishing allocates nothing per waiter."""
    proc = _finishes(env, 41)
    assert env._live == {proc: None}
    env.run()
    assert env._live == {} and proc.value == 41


def test_second_subscriber_promotes_to_list(env):
    """Processes that finish in one cycle each queue their own exit entry,
    in finish order: a second finisher adds an entry, never a list."""
    procs = [_finishes(env, i, delay=2) for i in range(3)]
    env.run(until=1)
    seen = []
    # Its seq falls between the three wakes and the exits they queue.
    env.call_later(1, lambda _arg: seen.append(sorted(env._queue)))
    env.run()
    assert seen == [[(2, 7 + i, Process._exit, proc)
                     for i, proc in enumerate(procs)]]


def test_late_subscribe_after_processed_still_delivers(env):
    """A process started after an earlier join returned is joined by the
    next ``run_until_complete``."""
    _finishes(env, delay=2)
    assert env.run_until_complete() == 2
    late = _finishes(env, "v", delay=5)
    assert env.run_until_complete() == 7
    assert late.value == "v"


def test_subscribe_during_dispatch_of_same_event(env):
    """A process started by a callback while the join runs extends the
    join: the live set is read at every dispatch, not fixed at the call."""
    started = []

    def spawn(_arg):
        started.append(_finishes(env, "child", delay=10))

    first = _finishes(env, delay=1)
    env.call_later(1, spawn)
    assert env.run_until_complete() == 11
    assert not first.is_alive and started[0].value == "child"


# ----------------------------------------------------------- call_later edges
def test_call_later_negative_delay_rejected(env):
    with pytest.raises(SchedulingError, match="past"):
        env.call_later(-1, lambda arg: None)


def test_call_later_non_integral_delay_rejected(env):
    """A delay is an exact cycle count: 2.7 is rejected rather than
    truncated, and an integer type with ``__index__`` is accepted."""
    with pytest.raises(SchedulingError, match="integral"):
        env.call_later(2.7, noop)
    assert env.queue_length == 0
    fired = []
    env.call_later(np.int64(3), lambda arg: fired.append(env.now))
    env.run()
    assert fired == [3]


def test_call_later_zero_delay_runs_in_current_cycle(env):
    """run(until=now) is a zero-width window: a zero-delay call fires
    inside it and the clock does not move."""
    fired = []
    env.call_later(3, noop)
    env.run()
    env.call_later(0, lambda arg: fired.append(env.now))
    env.call_later(1, noop)  # strictly later; must survive the window
    env.run(until=env.now)
    assert fired == [3] and env.now == 3 and env.queue_length == 1


def test_call_later_passes_argument(env):
    got = []
    env.call_later(4, got.append, arg={"k": 1})
    env.run()
    assert got == [{"k": 1}] and env.now == 4


# ------------------------------------------------ orderings the ladder pinned
# The kernel once shipped a ladder queue (a sorted spine plus per-cycle
# lanes) whose spill and refill paths made these orderings edge cases.
# The tests keep their names and check the same orderings through the
# public API on the one heap queue.
_SPREAD = 512  # twice the ladder's former spine capacity


def test_ladder_spill_cuts_on_time_boundary():
    """Entries at many distinct times dispatch in time order."""
    env = Environment()
    out = []
    for t in reversed(range(_SPREAD)):
        env.call_later(t, lambda arg: out.append((env.now, arg)), arg=t)
    assert env.queue_length == _SPREAD
    env.run()
    assert out == [(t, t) for t in range(_SPREAD)]


def test_ladder_single_cycle_burst_never_spills():
    """Entries all in one cycle dispatch in scheduling order and never
    move the clock past that cycle."""
    env = Environment()
    out = []
    n = _SPREAD + 50
    for i in range(n):
        env.call_later(7, lambda arg: out.append((env.now, arg)), arg=i)
    env.run()
    assert out == [(7, i) for i in range(n)]


def test_ladder_refill_restores_order_and_boundary():
    """Windowed runs drain a deep queue in order, one pending cycle at a
    time, and a run on the empty queue leaves the clock where it is."""
    env = Environment()
    out = []
    for t in range(1000):
        env.call_later((t * 389) % 1000, out.append, arg=(t * 389) % 1000)
    while env.queue_length:
        env.run(until=env._queue[0][0])
    assert out == list(range(1000)) and env.now == 999
    assert env.run() == 999


def test_ladder_refill_moves_whole_cycles():
    """A cycle denser than the rest of the queue dispatches as one run of
    same-time entries, in scheduling order, between its neighbours."""
    env = Environment()
    out = []
    for t in range(_SPREAD):
        env.call_later(t, out.append, arg=(t, -1))
    dense = 3 * 64
    for i in range(dense):
        env.call_later(_SPREAD // 2, out.append, arg=(_SPREAD // 2, i))
    env.run()
    assert out == sorted(out)
    assert len(out) == _SPREAD + dense


def test_ladder_deep_pending_dispatch_matches_heap():
    """5k entries across a wide time range dispatch in exact
    ``(time, seq)`` order."""
    env = Environment()
    out = []
    for i in range(5000):
        env.call_later((i * 131) % 997, out.append, arg=i)
    env.run()
    assert out == sorted(range(5000), key=lambda i: ((i * 131) % 997, i))
    assert env.events_processed == 5000 and env.now == 996
