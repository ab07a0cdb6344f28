"""Network packet-processing workloads: pipeline and firewall.

Both follow the software structure of Wang et al.'s CAF benchmarks
(Table 2):

* **pipeline** — a 4-stage packet pipeline with multi-threaded middle
  stages, (1:4)×1 + (4:4)×1 + (4:1)×1 + (1:1)×1 (the 1:1 queue is the
  credit channel from the sink back to the generator);
* **firewall** — filter and dispatch packages, (1:1)×3 + (2:1)×1
  (source fans out to two filters over 1:1 queues, the filters merge into
  the sink over a 2:1 queue, and the sink returns credits 1:1).
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.workloads.base import QueueSpec, WorkCounter, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class Pipeline(Workload):
    """4-stage pipeline with the two middle stages 4-way multi-threaded."""

    name = "pipeline"
    description = "4-stage pipeline with middle stages multi-threaded"
    open_capable = True

    STAGE_WIDTH = 4
    PACKETS = 600
    CREDIT_WINDOW = 32
    GEN_COMPUTE = 60
    STAGE_COMPUTE = 520
    SINK_COMPUTE = 70
    IDLE_BACKOFF = 64

    def topology(self) -> List[QueueSpec]:
        w = self.STAGE_WIDTH
        return [QueueSpec(1, w), QueueSpec(w, w), QueueSpec(w, 1), QueueSpec(1, 1)]

    def num_threads(self) -> int:
        return 2 + 2 * self.STAGE_WIDTH

    def session_quotas(self) -> Dict[str, int]:
        return {"pipe-gen": self.scaled(self.PACKETS)}

    def build(self, system: "System") -> None:
        lib = system.library
        w = self.STAGE_WIDTH
        packets = self.scaled(self.PACKETS)

        q1, q2, q3, q4 = (lib.create_queue() for _ in range(4))
        gen_core = 0
        stage_a_cores = list(range(1, 1 + w))
        stage_b_cores = list(range(1 + w, 1 + 2 * w))
        sink_core = 1 + 2 * w

        gen_prod = lib.open_producer(q1, gen_core)
        a_cons = [lib.open_consumer(q1, c) for c in stage_a_cores]
        a_prod = [lib.open_producer(q2, c) for c in stage_a_cores]
        b_cons = [lib.open_consumer(q2, c) for c in stage_b_cores]
        b_prod = [lib.open_producer(q3, c) for c in stage_b_cores]
        sink_cons = lib.open_consumer(q3, sink_core)
        credit_prod = lib.open_producer(q4, sink_core)
        credit_cons = lib.open_consumer(q4, gen_core)

        plan = self.plan_sessions(system, self.session_quotas())["pipe-gen"]
        issued = len(plan)

        stage_a_work = WorkCounter(packets, label="pipeline.q1:stage-a")
        stage_b_work = WorkCounter(packets, label="pipeline.q2:stage-b")
        if issued < packets:
            # The generator session churned at plan time: retire its
            # shortfall so the stage workers terminate at the reduced
            # count instead of tripping conservation.
            stage_a_work.retire(packets - issued)
            stage_b_work.retire(packets - issued)

        def generator(ctx):
            in_flight = 0

            def emit(i, record):
                nonlocal in_flight
                if in_flight >= self.CREDIT_WINDOW:
                    credit = yield from ctx.pop(credit_cons)
                    self.note_consumed(credit.payload)
                    in_flight -= 1
                yield ctx.jittered(self.GEN_COMPUTE, 0.1)
                key = ("pkt", i)
                self.note_produced(key)
                self.track_request(key, record)
                yield from ctx.push(gen_prod, key)
                in_flight += 1

            yield from self.drive(ctx, "pipe-gen", plan, emit)
            while in_flight > 0:
                credit = yield from ctx.pop(credit_cons)
                self.note_consumed(credit.payload)
                in_flight -= 1

        def make_worker(cons, prod, counter, stage_tag):
            def worker(ctx):
                while True:
                    msg = yield from ctx.pop_until(cons, counter.all_done)
                    if msg is None:
                        return
                    self.note_consumed(msg.payload)
                    self.request_first_pop(msg.payload, ctx.now)
                    yield ctx.jittered(self.STAGE_COMPUTE, 0.1)
                    counter.mark_done()
                    key = (stage_tag,) + msg.payload
                    self.note_produced(key)
                    yield from ctx.push(prod, key)

            return worker

        def sink(ctx):
            for _ in range(issued):
                msg = yield from ctx.pop(sink_cons)
                self.note_consumed(msg.payload)
                # Payload is ("b", "a", "pkt", i); the tracked request key
                # is the generator's original ("pkt", i) suffix.
                self.request_complete(msg.payload[2:], ctx.now)
                yield ctx.jittered(self.SINK_COMPUTE, 0.1)
                key = ("credit", msg.payload)
                self.note_produced(key)
                yield from ctx.push(credit_prod, key)

        system.spawn(gen_core, generator, "pipe-gen")
        for idx, core in enumerate(stage_a_cores):
            system.spawn(
                core,
                make_worker(a_cons[idx], a_prod[idx], stage_a_work, "a"),
                f"pipe-a{idx}",
            )
        for idx, core in enumerate(stage_b_cores):
            system.spawn(
                core,
                make_worker(b_cons[idx], b_prod[idx], stage_b_work, "b"),
                f"pipe-b{idx}",
            )
        system.spawn(sink_core, sink, "pipe-sink")


class Firewall(Workload):
    """Filter and dispatch packages: source → two filters → merging sink."""

    name = "firewall"
    description = "filter and dispatch packages"
    open_capable = True

    PACKETS = 800
    CREDIT_WINDOW = 16
    SOURCE_COMPUTE = 110
    FILTER_COMPUTE = 400
    SINK_COMPUTE = 120

    def topology(self) -> List[QueueSpec]:
        return [QueueSpec(1, 1, 3), QueueSpec(2, 1, 1)]

    def num_threads(self) -> int:
        return 4

    def session_quotas(self) -> Dict[str, int]:
        return {"fw-source": self.scaled(self.PACKETS)}

    def build(self, system: "System") -> None:
        lib = system.library
        packets = self.scaled(self.PACKETS)
        # Route packets alternately to the two filters (dispatch).
        q_a, q_b, q_merge, q_credit = (lib.create_queue() for _ in range(4))

        src_prod_a = lib.open_producer(q_a, 0)
        src_prod_b = lib.open_producer(q_b, 0)
        filt_a_cons = lib.open_consumer(q_a, 1)
        filt_b_cons = lib.open_consumer(q_b, 2)
        filt_a_prod = lib.open_producer(q_merge, 1)
        filt_b_prod = lib.open_producer(q_merge, 2)
        sink_cons = lib.open_consumer(q_merge, 3)
        credit_prod = lib.open_producer(q_credit, 3)
        credit_cons = lib.open_consumer(q_credit, 0)

        plan = self.plan_sessions(system, self.session_quotas())["fw-source"]
        issued = len(plan)

        def source(ctx):
            in_flight = 0

            def emit(i, record):
                nonlocal in_flight
                if in_flight >= self.CREDIT_WINDOW:
                    credit = yield from ctx.pop(credit_cons)
                    self.note_consumed(credit.payload)
                    in_flight -= 1
                yield ctx.jittered(self.SOURCE_COMPUTE, 0.1)
                key = ("pkt", i)
                self.note_produced(key)
                self.track_request(key, record)
                prod = src_prod_a if i % 2 == 0 else src_prod_b
                yield from ctx.push(prod, key)
                in_flight += 1

            yield from self.drive(ctx, "fw-source", plan, emit)
            while in_flight > 0:
                credit = yield from ctx.pop(credit_cons)
                self.note_consumed(credit.payload)
                in_flight -= 1

        def make_filter(cons, prod, count, tag):
            def filt(ctx):
                for _ in range(count):
                    msg = yield from ctx.pop(cons)
                    self.note_consumed(msg.payload)
                    self.request_first_pop(msg.payload, ctx.now)
                    yield ctx.jittered(self.FILTER_COMPUTE, 0.1)
                    key = (tag,) + msg.payload
                    self.note_produced(key)
                    yield from ctx.push(prod, key)

            return filt

        def sink(ctx):
            for _ in range(issued):
                msg = yield from ctx.pop(sink_cons)
                self.note_consumed(msg.payload)
                # Payload is ("fa"|"fb", "pkt", i); the tracked request
                # key is the source's original ("pkt", i) suffix.
                self.request_complete(msg.payload[1:], ctx.now)
                yield ctx.jittered(self.SINK_COMPUTE, 0.1)
                key = ("credit", msg.payload)
                self.note_produced(key)
                yield from ctx.push(credit_prod, key)

        count_a = (issued + 1) // 2
        count_b = issued // 2
        system.spawn(0, source, "fw-source")
        system.spawn(1, make_filter(filt_a_cons, filt_a_prod, count_a, "fa"), "fw-filterA")
        system.spawn(2, make_filter(filt_b_cons, filt_b_prod, count_b, "fb"), "fw-filterB")
        system.spawn(3, sink, "fw-sink")
