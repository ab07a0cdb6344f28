"""Ember-derived communication patterns: ping-pong, halo, sweep, incast.

These four benchmarks reproduce the common communication patterns the paper
takes from the Ember benchmark suite (Table 2):

* **ping-pong** — data back and forth between two threads, (1:1)×2;
* **halo**      — exchange data with neighboring threads on a 4×4 grid,
  (1:1)×48 (one queue per directed edge);
* **sweep**     — data sweeps through a grid of threads corner to corner
  (forward and backward wavefronts), (1:1)×48;
* **incast**    — all threads send data to the master thread, (4:1)×1.

Compute-time constants are class attributes so that the sensitivity and
ablation benches can tune the compute-to-communication ratio.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.workloads.base import QueueSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class PingPong(Workload):
    """Two threads bounce a token over a pair of 1:1 queues.

    Data production sits on the critical path (each side can only reply
    after receiving), so speculation has nothing to overlap — the paper
    reports ≈1.0× here.

    Open-system reading: side A is the *session* (one request = one
    round trip), side B the echo server; a request completes when A
    consumes B's reply.
    """

    name = "ping-pong"
    description = "data back and forth between two threads"
    open_capable = True

    ROUNDS = 800
    COMPUTE = 150

    def topology(self) -> List[QueueSpec]:
        return [QueueSpec(1, 1, 2)]

    def num_threads(self) -> int:
        return 2

    def session_quotas(self) -> Dict[str, int]:
        return {"pingpong-a": self.scaled(self.ROUNDS)}

    def build(self, system: "System") -> None:
        lib = system.library
        q_ab, q_ba = lib.create_queue(), lib.create_queue()
        prod_a = lib.open_producer(q_ab, core_id=0)
        cons_b = lib.open_consumer(q_ab, core_id=1)
        prod_b = lib.open_producer(q_ba, core_id=1)
        cons_a = lib.open_consumer(q_ba, core_id=0)
        plan = self.plan_sessions(system, self.session_quotas())["pingpong-a"]
        rounds = len(plan)

        def side_a(ctx):
            def round_trip(i, record):
                key = ("ab", i)
                self.note_produced(key)
                self.track_request(key, record)
                yield from ctx.push(prod_a, key)
                msg = yield from ctx.pop(cons_a)
                self.note_consumed(msg.payload)
                self.request_complete(key, ctx.now)
                yield ctx.jittered(self.COMPUTE, 0.05)

            yield from self.drive(ctx, "pingpong-a", plan, round_trip)

        def side_b(ctx):
            for i in range(rounds):
                msg = yield from ctx.pop(cons_b)
                self.note_consumed(msg.payload)
                self.request_first_pop(msg.payload, ctx.now)
                yield ctx.jittered(self.COMPUTE, 0.05)
                key = ("ba", i)
                self.note_produced(key)
                yield from ctx.push(prod_b, key)

        system.spawn(0, side_a, "pingpong-a")
        system.spawn(1, side_b, "pingpong-b")


class Halo(Workload):
    """4×4 halo exchange: compute, push to all neighbors, pop from all.

    The pops come *after* a long interior-compute phase, so neighbor data is
    usually already at the routing device: speculation pre-places it and
    hides the request leg — the paper reports 1.33× here and notes VL's
    accidental-prefetch "prerequests" help the baseline too.
    """

    name = "halo"
    description = "exchange data with neighboring threads"

    ROWS = 4
    COLS = 4
    ITERATIONS = 40
    #: Cachelines exchanged per neighbor per iteration.
    MSGS_PER_EDGE = 1
    INTERIOR_COMPUTE = 900
    BOUNDARY_COMPUTE = 80

    def topology(self) -> List[QueueSpec]:
        edges = 2 * (self.ROWS * (self.COLS - 1) + self.COLS * (self.ROWS - 1))
        return [QueueSpec(1, 1, edges)]

    def num_threads(self) -> int:
        return self.ROWS * self.COLS

    def _neighbors(self, r: int, c: int) -> List[Tuple[int, int]]:
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.ROWS and 0 <= nc < self.COLS:
                out.append((nr, nc))
        return out

    def build(self, system: "System") -> None:
        lib = system.library
        core_of = lambda r, c: r * self.COLS + c  # noqa: E731 - tiny mapping

        # One queue per directed edge; producers/consumers opened per thread.
        prods: Dict[Tuple[int, int, int, int], object] = {}
        conss: Dict[Tuple[int, int, int, int], object] = {}
        for r in range(self.ROWS):
            for c in range(self.COLS):
                for nr, nc in self._neighbors(r, c):
                    sqi = lib.create_queue()
                    prods[(r, c, nr, nc)] = lib.open_producer(sqi, core_of(r, c))
                    conss[(r, c, nr, nc)] = lib.open_consumer(sqi, core_of(nr, nc))

        iterations = self.scaled(self.ITERATIONS)

        def make_thread(r: int, c: int):
            neighbors = self._neighbors(r, c)
            my_prods = [prods[(r, c, nr, nc)] for nr, nc in neighbors]
            my_conss = [conss[(nr, nc, r, c)] for nr, nc in neighbors]

            def thread(ctx):
                for it in range(iterations):
                    # Mild per-iteration imbalance: within the tuned
                    # algorithm's interval-variation tolerance (its tau
                    # parameter absorbs jitter up to ~96 cycles, §3.5).
                    yield ctx.jittered(self.INTERIOR_COMPUTE, 0.08)
                    # Exchange the strip part by part: send one line to
                    # every neighbor, then receive one from each.  Sending
                    # the whole strip before receiving would demand more
                    # routing-device entries than exist system-wide.
                    for part in range(self.MSGS_PER_EDGE):
                        for (nr, nc), prod in zip(neighbors, my_prods):
                            key = (r, c, nr, nc, it, part)
                            self.note_produced(key)
                            yield from ctx.push(prod, key)
                        for cons in my_conss:
                            msg = yield from ctx.pop(cons)
                            self.note_consumed(msg.payload)
                    yield ctx.jittered(self.BOUNDARY_COMPUTE, 0.05)

            return thread

        for r in range(self.ROWS):
            for c in range(self.COLS):
                system.spawn(core_of(r, c), make_thread(r, c), f"halo-{r}{c}")


class Sweep(Workload):
    """Wavefront sweeps corner to corner and back across a 4×4 grid.

    Each cell can only produce after consuming its upstream dependencies, so
    data production is on the critical path; the paper reports ≈1.0×.
    """

    name = "sweep"
    description = "data sweeps through a grid of threads corner to corner"

    ROWS = 4
    COLS = 4
    ROUNDS = 30
    CELL_COMPUTE = 400

    def topology(self) -> List[QueueSpec]:
        # Forward (right+down) and backward (left+up) directed edges.
        edges = 2 * (self.ROWS * (self.COLS - 1) + self.COLS * (self.ROWS - 1))
        return [QueueSpec(1, 1, edges)]

    def num_threads(self) -> int:
        return self.ROWS * self.COLS

    def build(self, system: "System") -> None:
        lib = system.library
        core_of = lambda r, c: r * self.COLS + c  # noqa: E731 - tiny mapping

        prods: Dict[Tuple[Tuple[int, int], Tuple[int, int]], object] = {}
        conss: Dict[Tuple[Tuple[int, int], Tuple[int, int]], object] = {}

        def link(src: Tuple[int, int], dst: Tuple[int, int]) -> None:
            sqi = lib.create_queue()
            prods[(src, dst)] = lib.open_producer(sqi, core_of(*src))
            conss[(src, dst)] = lib.open_consumer(sqi, core_of(*dst))

        for r in range(self.ROWS):
            for c in range(self.COLS):
                if c + 1 < self.COLS:
                    link((r, c), (r, c + 1))  # forward right
                    link((r, c + 1), (r, c))  # backward left
                if r + 1 < self.ROWS:
                    link((r, c), (r + 1, c))  # forward down
                    link((r + 1, c), (r, c))  # backward up

        rounds = self.scaled(self.ROUNDS)

        def make_thread(r: int, c: int):
            fwd_in = [s for (s, d) in prods if d == (r, c) and (s[0] < r or s[1] < c)]
            fwd_out = [d for (s, d) in prods if s == (r, c) and (d[0] > r or d[1] > c)]
            bwd_in = [s for (s, d) in prods if d == (r, c) and (s[0] > r or s[1] > c)]
            bwd_out = [d for (s, d) in prods if s == (r, c) and (d[0] < r or d[1] < c)]

            def phase(ctx, ins, outs, tag, rnd):
                for src in ins:
                    msg = yield from ctx.pop(conss[(src, (r, c))])
                    self.note_consumed(msg.payload)
                yield ctx.jittered(self.CELL_COMPUTE, 0.05)
                for dst in outs:
                    key = (tag, (r, c), dst, rnd)
                    self.note_produced(key)
                    yield from ctx.push(prods[((r, c), dst)], key)

            def thread(ctx):
                for rnd in range(rounds):
                    yield from phase(ctx, fwd_in, fwd_out, "fwd", rnd)
                    yield from phase(ctx, bwd_in, bwd_out, "bwd", rnd)

            return thread

        for r in range(self.ROWS):
            for c in range(self.COLS):
                system.spawn(core_of(r, c), make_thread(r, c), f"sweep-{r}{c}")


class Incast(Workload):
    """Four producers funnel into a single master consumer, (4:1)×1.

    The master aggregates (long per-message compute) while producers run
    ahead: data queues up at the routing device, and speculation pre-fills
    the master's 32 registered cachelines (Section 4.3).
    """

    name = "incast"
    description = "all threads sending data to the master thread"
    open_capable = True

    PRODUCERS = 4
    MESSAGES_PER_PRODUCER = 500
    PRODUCE_COMPUTE = 180
    AGGREGATE_COMPUTE = 420
    MASTER_LINES = 32

    def topology(self) -> List[QueueSpec]:
        return [QueueSpec(self.PRODUCERS, 1, 1)]

    def num_threads(self) -> int:
        return self.PRODUCERS + 1

    def session_quotas(self) -> Dict[str, int]:
        per_producer = self.scaled(self.MESSAGES_PER_PRODUCER)
        return {
            f"incast-prod{pid}": per_producer for pid in range(self.PRODUCERS)
        }

    def build(self, system: "System") -> None:
        lib = system.library
        sqi = lib.create_queue()
        master_lines = self.MASTER_LINES if system.spec_default else None
        cons = lib.open_consumer(sqi, core_id=0, num_lines=master_lines)
        plans = self.plan_sessions(system, self.session_quotas())
        total = sum(len(plan) for plan in plans.values())

        def make_producer(pid: int):
            session = f"incast-prod{pid}"
            prod = lib.open_producer(sqi, core_id=pid + 1)

            def producer(ctx):
                def send(i, record):
                    key = (pid, i)
                    self.note_produced(key)
                    self.track_request(key, record)
                    yield from ctx.push(prod, key)
                    yield ctx.jittered(self.PRODUCE_COMPUTE, 0.1)

                yield from self.drive(ctx, session, plans[session], send)

            return producer

        def master(ctx):
            for _ in range(total):
                msg = yield from ctx.pop(cons)
                self.note_consumed(msg.payload)
                self.request_complete(msg.payload, ctx.now)
                yield ctx.jittered(self.AGGREGATE_COMPUTE, 0.05)

        system.spawn(0, master, "incast-master")
        for pid in range(self.PRODUCERS):
            system.spawn(pid + 1, make_producer(pid), f"incast-prod{pid}")
