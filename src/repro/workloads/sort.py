"""bitonic — scatter / sort / gather over two biased queues.

Batcher's bitonic sorting network [5] offers "plenty of parallelism for
hardware to exploit"; the benchmark's software structure (Table 2) is a
master that scatters blocks over a (1:N) queue to worker threads, which
sort them with the bitonic network and return them over an (M:1) queue.

The two queues are biased (Section 4.3): the scatter queue is
producer-bound — the master must prepare each block before pushing, and N
workers drain far faster than one master can feed — so speculation starves
for producer data there; the gather side sees a busy master and benefits
moderately.

:func:`bitonic_sort` is a real, pure implementation of the sorting network
(power-of-two sizes) used both as the workers' payload computation and as a
standalone tested utility.
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.workloads.base import QueueSpec, WorkCounter, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def bitonic_sort(values: Sequence, ascending: bool = True) -> List:
    """Sort *values* with Batcher's bitonic network.

    The input length must be a power of two (the classic network
    constraint).  Returns a new sorted list; the comparison schedule is the
    standard ``log²(n)`` stage network, so the number of compare-exchange
    operations is deterministic for a given length — which is exactly what
    a hardware-parallel implementation would execute.
    """
    n = len(values)
    if not is_power_of_two(n):
        raise ValueError(f"bitonic_sort needs a power-of-two length, got {n}")
    data = list(values)
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    up = (i & k) == 0
                    if (data[i] > data[partner]) == (up == ascending):
                        data[i], data[partner] = data[partner], data[i]
            j //= 2
        k *= 2
    return data


def compare_exchange_count(n: int) -> int:
    """Number of compare-exchange ops the network performs for length *n*."""
    if not is_power_of_two(n):
        raise ValueError(f"power-of-two length required, got {n}")
    stages = n.bit_length() - 1  # log2 n
    return (n // 2) * stages * (stages + 1) // 2


class Bitonic(Workload):
    """Sort with varying number of threads, (1:N)×1 + (M:1)×1."""

    name = "bitonic"
    description = "sort with varying number of threads"

    WORKERS = 6
    BLOCKS = 240
    BLOCK_SIZE = 32        # power of two (network constraint)
    PREPARE_COMPUTE = 420  # master: generate/partition one block
    MERGE_COMPUTE = 160    # master: fold one sorted block into the output
    #: Cycles per compare-exchange, scaled by the real network op count.
    CE_COMPUTE = 1.2
    WINDOW = 8             # blocks in flight before the master reaps results

    def topology(self) -> List[QueueSpec]:
        return [QueueSpec(1, self.WORKERS, 1), QueueSpec(self.WORKERS, 1, 1)]

    def num_threads(self) -> int:
        return self.WORKERS + 1

    def build(self, system: "System") -> None:
        lib = system.library
        blocks = self.scaled(self.BLOCKS)
        rng = system.rng.stream("bitonic-blocks")
        sort_cost = int(self.CE_COMPUTE * compare_exchange_count(self.BLOCK_SIZE))

        q_scatter, q_gather = lib.create_queue(), lib.create_queue()
        master_prod = lib.open_producer(q_scatter, core_id=0)
        master_cons = lib.open_consumer(q_gather, core_id=0)
        worker_cons = [
            lib.open_consumer(q_scatter, core_id=w + 1) for w in range(self.WORKERS)
        ]
        worker_prod = [
            lib.open_producer(q_gather, core_id=w + 1) for w in range(self.WORKERS)
        ]
        scatter_work = WorkCounter(blocks)
        self.sorted_blocks = {}

        def master(ctx):
            reaped = 0
            for i in range(blocks):
                yield ctx.jittered(self.PREPARE_COMPUTE, 0.1)
                block = tuple(int(v) for v in rng.integers(0, 10_000, self.BLOCK_SIZE))
                key = ("blk", i)
                self.note_produced(key)
                yield from ctx.push(master_prod, (key, i, block))
                if i - reaped >= self.WINDOW:
                    msg = yield from ctx.pop(master_cons)
                    yield from self._reap(ctx, msg)
                    reaped += 1
            while reaped < blocks:
                msg = yield from ctx.pop(master_cons)
                yield from self._reap(ctx, msg)
                reaped += 1

        def make_worker(w: int):
            cons, prod = worker_cons[w], worker_prod[w]

            def worker(ctx):
                while True:
                    msg = yield from ctx.pop_until(cons, scatter_work.all_done)
                    if msg is None:
                        return
                    key, i, block = msg.payload
                    self.note_consumed(key)
                    yield ctx.jittered(sort_cost, 0.05)
                    result = tuple(bitonic_sort(block))
                    scatter_work.mark_done()
                    out_key = ("sorted", i)
                    self.note_produced(out_key)
                    yield from ctx.push(prod, (out_key, i, result))

            return worker

        self._blocks = blocks
        system.spawn(0, master, "bitonic-master")
        for w in range(self.WORKERS):
            system.spawn(w + 1, make_worker(w), f"bitonic-w{w}")

    def _reap(self, ctx, msg):
        out_key, i, result = msg.payload
        self.note_consumed(out_key)
        self.sorted_blocks[i] = result
        yield ctx.jittered(self.MERGE_COMPUTE, 0.1)

    def validate(self) -> None:
        super().validate()
        if len(self.sorted_blocks) != self._blocks:
            raise WorkloadError(
                f"bitonic: {len(self.sorted_blocks)} of {self._blocks} blocks returned"
            )
        for i, block in self.sorted_blocks.items():
            if list(block) != sorted(block):
                raise WorkloadError(f"bitonic: block {i} came back unsorted")
