"""FIR — a 10-stage digital signal processing filter chain, (1:1)×9.

Ten threads form a linear pipeline: a sample source followed by nine filter
stages.  Each message carries a sample sequence number and the window of
the most recent ``TAPS`` samples; stage *i* accumulates ``coeff[i] *
window[i]`` into the partial sum, so the final stage produces the true FIR
response ``y[n] = Σ c_i · x[n-i]`` for every sample — order-independently,
which lets the workload validate its output against a direct dot product.

The source is *bursty* (groups of samples in quick succession separated by
gaps), which makes the inter-arrival interval at each stage bimodal: the
consumer alternates between the library's fast path (data already in the
cacheline) and slow path.  This is the hard-to-predict behaviour the paper
tunes its delay algorithm on — the adaptive algorithm "learns the period of
the slow path instead of the fast path" (Section 4.3), while the tuned
algorithm locks onto the fast-path period.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import QueueSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class Fir(Workload):
    """Data streams through a 10-stage FIR filter."""

    name = "FIR"
    description = "data streams through 10-stage FIR filter"
    open_capable = True

    STAGES = 10          # 1 source + 9 filter stages, (1:1)x9
    TAPS = 9             # one coefficient per filter stage
    SAMPLES = 600
    BURST = 16           # samples per burst from the source
    INTRA_BURST_GAP = 40
    INTER_BURST_GAP = 420
    MAC_COMPUTE = 100    # per-stage multiply-accumulate cost

    def __init__(self, scale: float = 1.0, arrival=None) -> None:
        super().__init__(scale, arrival)
        self.coefficients = np.array(
            [0.5, 0.25, 0.125, -0.125, 0.0625, -0.0625, 0.03125, -0.03125, 0.015625]
        )
        self.results: List[float] = []
        self.inputs: List[float] = []

    def topology(self) -> List[QueueSpec]:
        return [QueueSpec(1, 1, self.STAGES - 1)]

    def num_threads(self) -> int:
        return self.STAGES

    def session_quotas(self) -> Dict[str, int]:
        return {"fir-source": self.scaled(self.SAMPLES)}

    def build(self, system: "System") -> None:
        lib = system.library
        samples = self.scaled(self.SAMPLES)
        rng = system.rng.stream("fir-input")
        signal = rng.standard_normal(samples)
        plan = self.plan_sessions(system, self.session_quotas())["fir-source"]
        issued = len(plan)
        self.inputs = list(signal[:issued])

        queues = [lib.create_queue() for _ in range(self.STAGES - 1)]
        prods = [lib.open_producer(q, core_id=i) for i, q in enumerate(queues)]
        conss = [lib.open_consumer(q, core_id=i + 1) for i, q in enumerate(queues)]

        def source(ctx):
            window = [0.0] * self.TAPS

            def feed(n, record):
                nonlocal window
                window = [float(signal[n])] + window[: self.TAPS - 1]
                key = ("s0", n)
                self.note_produced(key)
                self.track_request(key, record)
                # Payload: (trace key, sequence, sample window, partial sum).
                yield from ctx.push(prods[0], (key, n, tuple(window), 0.0))
                if (n + 1) % self.BURST == 0:
                    yield ctx.jittered(self.INTER_BURST_GAP, 0.05)
                else:
                    yield ctx.jittered(self.INTRA_BURST_GAP, 0.05)

            yield from self.drive(ctx, "fir-source", plan, feed)

        def make_stage(stage: int):
            cons = conss[stage - 1]
            prod = prods[stage] if stage < self.STAGES - 1 else None
            coeff = float(self.coefficients[stage - 1])

            def stage_thread(ctx):
                for _ in range(issued):
                    msg = yield from ctx.pop(cons)
                    key, n, window, partial = msg.payload
                    self.note_consumed(key)
                    self.request_first_pop(key, ctx.now)
                    yield ctx.jittered(self.MAC_COMPUTE, 0.05)
                    partial = partial + coeff * window[stage - 1]
                    if prod is not None:
                        new_key = (f"s{stage}", n)
                        self.note_produced(new_key)
                        yield from ctx.push(prod, (new_key, n, window, partial))
                    else:
                        self.results.append((n, partial))
                        self.request_complete(("s0", n), ctx.now)

            return stage_thread

        system.spawn(0, source, "fir-source")
        for stage in range(1, self.STAGES):
            system.spawn(stage, make_stage(stage), f"fir-stage{stage}")

    def validate(self) -> None:
        """Conservation plus numerical check against the direct FIR."""
        super().validate()
        if len(self.results) != len(self.inputs):
            raise WorkloadError(
                f"FIR: {len(self.results)} outputs for {len(self.inputs)} inputs"
            )
        x = np.asarray(self.inputs)
        expected = np.convolve(x, self.coefficients)[: len(x)]
        got = np.empty(len(x))
        for n, y in self.results:
            got[n] = y
        if not np.allclose(got, expected, atol=1e-9):
            worst = int(np.argmax(np.abs(got - expected)))
            raise WorkloadError(
                f"FIR output mismatch at sample {worst}: "
                f"{got[worst]} != {expected[worst]}"
            )
