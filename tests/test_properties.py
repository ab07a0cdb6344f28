"""End-to-end property tests: random mini-workloads over the full stack.

Hypothesis generates random queue shapes (M:N), message counts, compute
times and delay algorithms; every generated system must

* terminate (no deadlock) within a generous cycle budget,
* conserve messages (each delivered exactly once),
* preserve per-producer FIFO on single-consumer VL queues,
* keep device accounting consistent (hits + failures == attempts, buffers
  drained, credits returned).
"""

from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.spamer.delay import AdaptiveDelay, TunedDelay, ZeroDelay
from repro.system import System


algorithms = st.sampled_from([None, ZeroDelay, AdaptiveDelay, TunedDelay])


def run_mn_queue(
    producers: int,
    consumers: int,
    per_producer: int,
    prod_compute: int,
    cons_compute: int,
    algorithm,
    seed: int,
):
    """Build one M:N queue with the given shape and run it to completion."""
    device = "vl" if algorithm is None else "spamer"
    system = System(
        config=SystemConfig(num_cores=producers + consumers),
        device=device,
        algorithm=algorithm() if algorithm else None,
        seed=seed,
    )
    lib = system.library
    q = lib.create_queue()
    prods = [lib.open_producer(q, core_id=i) for i in range(producers)]
    conss = [
        lib.open_consumer(q, core_id=producers + i) for i in range(consumers)
    ]
    total = producers * per_producer
    state = {"consumed": 0}
    received = []

    def make_producer(pid):
        def producer(ctx):
            for i in range(per_producer):
                yield from ctx.push(prods[pid], (pid, i))
                yield ctx.compute(prod_compute)

        return producer

    def make_consumer(cid):
        def consumer(ctx):
            while True:
                msg = yield from ctx.pop_until(
                    conss[cid], lambda: state["consumed"] >= total
                )
                if msg is None:
                    return
                state["consumed"] += 1
                received.append(msg.payload)
                yield ctx.compute(cons_compute)

        return consumer

    for pid in range(producers):
        system.spawn(pid, make_producer(pid), f"p{pid}")
    for cid in range(consumers):
        system.spawn(producers + cid, make_consumer(cid), f"c{cid}")
    system.run_to_completion(limit=200_000_000)
    return system, received


@given(
    producers=st.integers(min_value=1, max_value=3),
    consumers=st.integers(min_value=1, max_value=3),
    per_producer=st.integers(min_value=1, max_value=25),
    prod_compute=st.integers(min_value=1, max_value=600),
    cons_compute=st.integers(min_value=1, max_value=600),
    algorithm=algorithms,
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_random_mn_queue_conserves_and_terminates(
    producers, consumers, per_producer, prod_compute, cons_compute, algorithm, seed
):
    system, received = run_mn_queue(
        producers, consumers, per_producer, prod_compute, cons_compute,
        algorithm, seed,
    )
    expected = sorted((p, i) for p in range(producers) for i in range(per_producer))
    assert sorted(received) == expected

    stats = system.device.stats
    assert stats.get("push_hits") + stats.get("push_failures") == stats.get(
        "push_attempts"
    )
    assert stats.get("push_hits") == len(expected)
    # Every buffering queue drained and every prodBuf entry returned.
    for row in system.device.linktab.rows.values():
        assert not row.buffered_data
    assert system.device.entries_in_use == 0


@given(
    per_producer=st.integers(min_value=1, max_value=40),
    prod_compute=st.integers(min_value=1, max_value=400),
    cons_compute=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_vl_single_consumer_queue_is_fifo(per_producer, prod_compute, cons_compute, seed):
    """On-demand 1:1 delivery preserves producer order."""
    _system, received = run_mn_queue(
        1, 1, per_producer, prod_compute, cons_compute, None, seed
    )
    assert received == [(0, i) for i in range(per_producer)]


@given(
    per_producer=st.integers(min_value=1, max_value=30),
    cons_compute=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_spamer_reorders_only_under_push_failures(per_producer, cons_compute, seed):
    """A missed speculative push re-enters the mapping pipeline *behind*
    newer packets (Figure 5), so reordering is possible — but only when a
    push actually failed.  Failure-free runs deliver in exact FIFO order."""
    system, received = run_mn_queue(
        1, 1, per_producer, 10, cons_compute, ZeroDelay, seed
    )
    if system.device.stats.get("push_failures") == 0:
        assert received == [(0, i) for i in range(per_producer)]
    else:
        assert sorted(received) == [(0, i) for i in range(per_producer)]
