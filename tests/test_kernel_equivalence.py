"""Driver equivalence: every way of driving the kernel dispatches in the
exact ``(time, seq)`` order of a pure-Python sorted list.

:meth:`Environment.run`, windowed ``run(until)`` (also stepped one
pending cycle at a time) and :meth:`Environment.run_until_complete` share
one dispatch loop.  This suite pins that at three levels:

1. **Reference model** — Hypothesis-generated programs of recursive
   ``call_later``, far-future, sleeping-process and
   parked-process operations run twice per driver: once on the kernel as
   shipped (``heapq``) and once with the queue's push/pop swapped for
   ``bisect.insort``/``list.pop(0)`` on a plain sorted list, the simplest
   correct priority queue.  Every push goes through the swapped
   primitive: ``call_later``'s and the dispatch loop's re-arm of a
   returned delay (a sleep, an idle poll) alike.  The dispatched
   ``(time, seq)`` keys, which ascend, the program's observable trace,
   the stop-point state and the watchdog firings must match.
2. **Driver equivalence** — the windowed, stepped and
   ``run_until_complete`` drivers dispatch exactly what one ``run()``
   does, and the watchdog fires where a pure-Python walk over the
   reference dispatch times says it must.
3. **Whole-system equivalence** — the golden Figure-8 cells and the
   differential oracle matrix run with the sorted list in place of the
   heap and must match the heap run bit for bit.
4. **Mutation kills** — a reversed seq tiebreak, swapped in for the
   kernel's ``heappush`` (so it reaches ``call_later`` and the loop's
   re-arm alike), must make the trace diverge from the reference,
   proving the harness has teeth.  A loop that draws the
   re-arm's seq before the callback runs instead of after is killed by
   ``tests/test_sim_process.py::test_sleep_and_timeout_dispatch_under_identical_keys``,
   which holds a sleep to the key of a resume armed with ``call_later``.

The whole-system tests keep the ids of the three queue strategies the
kernel dropped for its one heap (``tests/conftest.py``); every id runs
the same heap-vs-reference comparison.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from contextlib import contextmanager
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.runner import run_workload, setting_by_name, standard_settings
from repro.sim.kernel import Environment
from repro.sim.process import PARK, Process
from tests.conftest import QUEUE_IDS, noop

ALT_QUEUE_IDS = [name for name in QUEUE_IDS if name != "heap"]

#: Watchdog arming used by every execution: first deadline and the
#: deferral after each firing (observe-only, so it cannot perturb order).
WATCHDOG_DEADLINE = 7
WATCHDOG_GAP = 11

DRIVERS = ("run", "windowed", "step", "until_complete")


class Result(NamedTuple):
    trace: list  # the program's own observations: (tag, now, ident)
    keys: list  # (time, seq) of every dispatched queue entry
    fires: list  # watchdog firing times
    marks: list  # driver stop-point snapshots
    now: int
    processed: int
    scheduled: int


@contextmanager
def _queue_ops(push, pop):
    """Swap the kernel's heap primitives for the duration of one run."""
    saved = kernel.heappush, kernel.heappop
    kernel.heappush, kernel.heappop = push, pop
    try:
        yield
    finally:
        kernel.heappush, kernel.heappop = saved


def _sorted_pop(queue):
    return queue.pop(0)


def _reference_queue():
    """Run the kernel on a sorted list instead of a heap."""
    return _queue_ops(insort, _sorted_pop)


# --------------------------------------------------------- the op interpreter
def execute(program, driver="run", until=0, target_delays=(1,), reference=False,
            push=None):
    """Interpret an op program on a fresh Environment; return its Result.

    Ops (recursive — children run inside the parent's callback, i.e. from
    the dispatch loop itself, which is where window and stop handling can
    go wrong):

    - ``("call", delay, children)``  ``call_later``
    - ``("far", delay)``             far-future call
    - ``("sleep", delays)``          generator process yielding bare int
                                     delays
    - ``("park", delays)``           generator process that arms its own
                                     resume and parks

    Every driver also runs a *target* process sleeping through
    *target_delays*; ``until_complete`` stops when the last process has
    exited, then drains the rest.  *reference* runs the queue as a sorted
    list instead of a heap; *push* replaces the heap push (a mutant).
    """
    env = Environment()
    trace, keys, fires, marks = [], [], [], []
    ids = itertools.count()

    def fire(tag, ident, children):
        def callback(_arg):
            trace.append((tag, env.now, ident))
            run_ops(children)

        return callback

    def run_ops(ops):
        for op in ops:
            kind = op[0]
            ident = next(ids)
            if kind == "call":
                env.call_later(op[1], fire("c", ident, op[2]))
            elif kind == "far":
                env.call_later(op[1], fire("f", ident, ()))
            elif kind == "sleep":

                def sleeper(delays=tuple(op[1]), i=ident):
                    for d in delays:
                        yield d
                        trace.append(("s", env.now, i))

                env.process(sleeper())
            elif kind == "park":

                def parker(delays=tuple(op[1]), i=ident):
                    for d in delays:
                        env.call_later(d, Process._resume, env.active_process)
                        yield PARK
                        trace.append(("p", env.now, i))

                env.process(parker())
            else:  # pragma: no cover - grammar guard
                raise AssertionError(f"unknown op {op!r}")

    def target_body():
        for d in target_delays:
            yield d
            trace.append(("target", env.now, -1))
        return "done"

    def watchdog(now):
        fires.append(now)
        env.defer_watchdog(now + WATCHDOG_GAP)

    if push is None:
        push = insort if reference else heapq.heappush
    base_pop = _sorted_pop if reference else heapq.heappop

    last = [None]

    def pop(queue):
        entry = base_pop(queue)
        keys.append(entry[:2])
        last[0] = entry[2]
        return entry

    with _queue_ops(push, pop):
        target = env.process(target_body())
        run_ops(program)
        env.set_watchdog(watchdog, deadline=WATCHDOG_DEADLINE)
        if driver == "run":
            env.run()
        elif driver == "windowed":
            env.run(until=until)
            marks.append(("window", env.now, env.events_processed, env.queue_length))
            env.run()
        elif driver == "step":
            while env.queue_length:
                env.run(until=env._queue[0][0])
        elif driver == "until_complete":
            end = env.run_until_complete()
            marks.append(("complete", end, env.events_processed,
                          env.queue_length, target.value,
                          last[0] is Process._exit, len(env._live)))
            env.run()
        else:  # pragma: no cover - grammar guard
            raise AssertionError(f"unknown driver {driver!r}")
    return Result(trace, keys, fires, marks, env.now, env.events_processed,
                  env.events_scheduled)


def expected_fires(times):
    """Watchdog firing points, walked in pure Python over dispatch times."""
    fires, deadline = [], WATCHDOG_DEADLINE
    for when in times:
        if when >= deadline:
            fires.append(when)
            deadline = when + WATCHDOG_GAP
    return fires


def _op_strategy():
    delays = st.lists(st.integers(0, 20), min_size=1, max_size=4)
    leaf = st.one_of(
        st.tuples(st.just("far"), st.integers(1500, 9000)),
        st.tuples(st.just("call"), st.integers(0, 50), st.just(())),
        st.tuples(st.just("sleep"), delays),
        st.tuples(st.just("park"), delays),
    )
    return st.recursive(
        leaf,
        lambda children: st.tuples(st.just("call"), st.integers(0, 50),
                                   st.lists(children, max_size=4)),
        max_leaves=12,
    )


PROGRAMS = st.lists(_op_strategy(), min_size=1, max_size=10)
TARGETS = st.lists(st.integers(0, 30), min_size=1, max_size=5)


# ----------------------------------------------------------- driver checks
def check_driver(program, target_delays, driver, until=0):
    """Run *program* under *driver*; return the heap run's Result.

    The heap run must equal the sorted-list run under the same driver
    (keys, trace, stop-point marks, watchdog firings, counters), and must
    dispatch exactly what one reference ``run()`` does.  The dispatched
    keys ascend: an entry pushed for the current cycle draws a ``seq``
    above every entry already dispatched.
    """
    kwargs = dict(driver=driver, until=until, target_delays=target_delays)
    result = execute(program, **kwargs)
    assert result == execute(program, reference=True, **kwargs)
    reference = execute(program, target_delays=target_delays, reference=True)
    assert result.trace == reference.trace
    assert result.keys == reference.keys
    assert (result.processed, result.scheduled) == (
        reference.processed, reference.scheduled)
    assert result.keys == sorted(result.keys)
    times = [key[0] for key in result.keys]
    assert result.fires == expected_fires(times)
    return result, reference


@given(program=PROGRAMS, target_delays=TARGETS)
@settings(max_examples=60, deadline=None)
def test_schedulers_produce_identical_traces(program, target_delays):
    """The heap and the sorted-list reference queue dispatch alike."""
    result, reference = check_driver(program, target_delays, "run")
    assert result.now == reference.now


@given(program=PROGRAMS, target_delays=TARGETS, until=st.integers(0, 120))
@settings(max_examples=40, deadline=None)
def test_windowed_runs_equivalent(program, target_delays, until):
    """run(until) then run(): the window dispatches every key at or
    before *until* and none after it."""
    result, reference = check_driver(program, target_delays, "windowed", until)
    assert result.now == max(reference.now, until)
    (_, _, inside, _), = result.marks
    assert all(key[0] <= until for key in result.keys[:inside])
    assert all(key[0] > until for key in result.keys[inside:])


@given(program=PROGRAMS, target_delays=TARGETS)
@settings(max_examples=40, deadline=None)
def test_step_driven_runs_equivalent(program, target_delays):
    """Stepping one pending cycle at a time with ``run(until=t)``."""
    result, reference = check_driver(program, target_delays, "step")
    assert result.now == reference.now


@given(program=PROGRAMS, target_delays=TARGETS)
@settings(max_examples=40, deadline=None)
def test_run_until_complete_equivalent(program, target_delays):
    """The stop point is the exit of the last live process: the last
    entry dispatched before the stop is a process exit at the stop time,
    and no process is live there (a callback queued for later may still
    start one, which the drain after the stop runs)."""
    result, reference = check_driver(program, target_delays, "until_complete")
    assert result.now == reference.now
    (_, now, processed, _pending, value, on_exit, live), = result.marks
    assert value == "done" and on_exit and live == 0
    assert result.keys[processed - 1][0] == now


def test_watchdog_firing_point_identical(env):
    """The watchdog fires inside the first dispatch at/past the deadline."""
    fires = []

    def watchdog(now):
        fires.append(now)
        env.defer_watchdog(now + 25)

    for delay in (10, 20, 20, 30, 60):
        env.call_later(delay, noop)
    env.set_watchdog(watchdog, deadline=15)
    env.run()
    assert fires == [20, 60]


# --------------------------------------------------- whole-system equivalence
FIG8_QUICK = [("ping-pong", 0.05), ("incast", 0.05)]


def fig8_quick_cells(config):
    """The golden Figure-8 flavors plus burst-mode multipush on its own
    ``burst_k=4`` config, as (setting, config) pairs: rollback scheduling
    (doomed claims, invalidation transits) must be just as order-exact as
    the single-push pipeline."""
    burst = config.with_overrides(burst_k=4, p_min=0.0)
    return [(setting, config) for setting in standard_settings()] + [
        (setting_by_name("multipush"), burst)
    ]


@pytest.mark.parametrize("name", ALT_QUEUE_IDS)
def test_fig8_metrics_identical_across_schedulers(name):
    """Golden Figure-8 cells: every metric field of the heap run must
    match the sorted-list reference run."""
    for workload, scale in FIG8_QUICK:
        for setting, config in fig8_quick_cells(SystemConfig(num_cores=16)):
            heap = run_workload(workload, setting, scale=scale, seed=7, config=config)
            with _reference_queue():
                reference = run_workload(
                    workload, setting, scale=scale, seed=7, config=config)
            assert heap == reference, (workload, setting.label, name)


@pytest.mark.parametrize("name", ALT_QUEUE_IDS)
def test_oracle_matrix_agrees_across_schedulers(name):
    """The differential oracle on the sorted-list reference queue: every
    device flavor still delivers the bit-identical canonical stream."""
    from tests.test_oracle_matrix import run_matrix

    with _reference_queue():
        reports = run_matrix("ping-pong", 0.02, SystemConfig(num_cores=16))
    for report in reports:
        assert report.ok, "\n".join(report.mismatches)


@pytest.mark.parametrize("name", ALT_QUEUE_IDS)
def test_deep_far_future_spill(name):
    """Hundreds of timeouts spread far into the future dispatch exactly
    as on the sorted-list reference queue."""
    def run_one():
        env = Environment()
        out = []
        for i in range(300):
            delay = (i * 7919) % 50_000
            env.call_later(delay, lambda _arg, i=i: out.append((env.now, i)))
        env.run()
        return out, env.now, env.events_processed

    heap = run_one()
    with _reference_queue():
        assert run_one() == heap
    assert [when for when, _ in heap[0]] == sorted(when for when, _ in heap[0])


# ------------------------------------------------------ configuration surface
def test_config_validates_scheduler_name():
    """The queue is not configurable: a saved config or batch spec that
    still names a scheduler fails with a ConfigError naming the field."""
    with pytest.raises(ConfigError, match="scheduler"):
        SystemConfig.from_dict({"scheduler": "calendar"})
    with pytest.raises(ConfigError, match="scheduler"):
        SystemConfig().with_overrides(**{"scheduler": "heap"})


def test_inline_fast_paths_exposed():
    """Each push path (call_later, a process start and its sleep) lands as
    a ``(time, seq, fn, arg)`` entry in the one heap list the
    dispatch loop pops from."""

    def sleeper():
        yield 2

    env = Environment()
    assert env._queue == []
    env.call_later(5, noop)
    env.call_later(3, noop)
    proc = env.process(sleeper())
    assert env._queue[0] == (0, 2, Process._resume, proc)
    env.run(until=0)
    assert sorted(env._queue) == [(2, 3, Process._resume, proc),
                                  (3, 1, noop, None),
                                  (5, 0, noop, None)]
    assert env.queue_length == len(env._queue) == 3


# -------------------------------------------------------------- mutation kill
def _reversed_seq_push(queue, entry):
    """Mutant: LIFO within a cycle — negated seq."""
    heapq.heappush(queue, (entry[0], -entry[1]) + entry[2:])


def _mutant_trace(mutant, program, target_delays=(1,)):
    return execute(program, target_delays=target_delays, push=mutant).trace


#: Same-cycle ties only between re-armed sleeps: p1 sleeps 5 from cycle
#: 0, p2 (started by a call at cycle 1) sleeps 4, and both wake at cycle
#: 5 in the order their re-arms drew seq; the target wakes alone.
REARM_TIE = [("sleep", (5,)), ("call", 1, [("sleep", (4,))])]


def test_every_push_goes_through_the_heap_primitive():
    """``call_later`` and the loop's re-arms both push through
    ``kernel.heappush``: the primitive a mutant or the sorted-list
    reference replaces sees every entry the kernel ever queues."""
    pushed = []

    def counting_push(queue, entry):
        pushed.append(entry[2])
        heapq.heappush(queue, entry)

    program = REARM_TIE + [("park", (2, 3))]
    env_scheduled = execute(program, push=counting_push).scheduled
    assert len(pushed) == env_scheduled
    assert pushed.count(Process._resume) > len(program) + 1  # re-arms included


def test_harness_kills_broken_seq_tiebreak():
    program = [("call", 5, ())] * 3
    reference = execute(program, reference=True).trace
    assert _mutant_trace(_reversed_seq_push, program) != reference


def test_harness_kills_broken_seq_tiebreak_in_the_rearm():
    """The reversed tiebreak reaches the entries the loop re-arms: the
    two sleeps waking in one cycle swap."""
    reference = execute(REARM_TIE, target_delays=(50,), reference=True).trace
    mutant = _mutant_trace(_reversed_seq_push, REARM_TIE, target_delays=(50,))
    assert mutant != reference
    assert sorted(mutant) == sorted(reference)


def test_mutants_are_otherwise_plausible():
    """The mutant passes a trivially-ordered program — the kills above are
    detecting the specific broken guarantee, not generic breakage."""
    program = [("call", 3, ()), ("call", 9, ())]
    reference = execute(program, reference=True).trace
    assert _mutant_trace(_reversed_seq_push, program) == reference
