#!/usr/bin/env python
"""Network-function pipeline: parse → classify (3-wide) → meter → transmit.

The kind of packet-processing dataflow the paper's introduction motivates:
a custom 4-stage pipeline built directly on the public queue API (not the
canned Table 2 workload), run under all four evaluated settings.

Run:  python examples/packet_pipeline.py
"""

from repro import System
from repro.eval import standard_settings
from repro.units import cycles_to_us
from repro.workloads import WorkCounter

PACKETS = 600
CLASSIFY_WIDTH = 3
PARSE = 90          # cycles per packet
CLASSIFY = 310      # the heavy multi-threaded stage
METER = 120
WINDOW = 16         # transmit->parse credit window


def run_pipeline(setting) -> int:
    system: System = setting.build_system()
    lib = system.library
    q_parse, q_meter, q_tx, q_credit = (lib.create_queue() for _ in range(4))

    parse_prod = lib.open_producer(q_parse, 0)
    classify_cons = [lib.open_consumer(q_parse, 1 + i) for i in range(CLASSIFY_WIDTH)]
    classify_prod = [lib.open_producer(q_meter, 1 + i) for i in range(CLASSIFY_WIDTH)]
    meter_cons = lib.open_consumer(q_meter, 1 + CLASSIFY_WIDTH)
    meter_prod = lib.open_producer(q_tx, 1 + CLASSIFY_WIDTH)
    tx_cons = lib.open_consumer(q_tx, 2 + CLASSIFY_WIDTH)
    credit_prod = lib.open_producer(q_credit, 2 + CLASSIFY_WIDTH)
    credit_cons = lib.open_consumer(q_credit, 0)

    classify_work = WorkCounter(PACKETS)

    def parser(ctx):
        in_flight = 0
        for i in range(PACKETS):
            if in_flight >= WINDOW:
                yield from ctx.pop(credit_cons)
                in_flight -= 1
            yield ctx.jittered(PARSE, 0.1)
            yield from ctx.push(parse_prod, ("pkt", i))
            in_flight += 1
        while in_flight:
            yield from ctx.pop(credit_cons)
            in_flight -= 1

    def make_classifier(idx):
        def classifier(ctx):
            while True:
                msg = yield from ctx.pop_until(classify_cons[idx], classify_work.all_done)
                if msg is None:
                    return
                yield ctx.jittered(CLASSIFY, 0.1)
                classify_work.mark_done()
                yield from ctx.push(classify_prod[idx], msg.payload)

        return classifier

    def meter(ctx):
        for _ in range(PACKETS):
            msg = yield from ctx.pop(meter_cons)
            yield ctx.jittered(METER, 0.1)
            yield from ctx.push(meter_prod, msg.payload)

    def transmit(ctx):
        for _ in range(PACKETS):
            msg = yield from ctx.pop(tx_cons)
            yield from ctx.push(credit_prod, ("credit",) + msg.payload)

    system.spawn(0, parser, "parse")
    for i in range(CLASSIFY_WIDTH):
        system.spawn(1 + i, make_classifier(i), f"classify{i}")
    system.spawn(1 + CLASSIFY_WIDTH, meter, "meter")
    system.spawn(2 + CLASSIFY_WIDTH, transmit, "transmit")
    return system.run_to_completion()


def main() -> None:
    print(f"{PACKETS} packets through parse -> classify(x{CLASSIFY_WIDTH}) "
          "-> meter -> transmit\n")
    baseline = None
    for setting in standard_settings():
        cycles = run_pipeline(setting)
        if baseline is None:
            baseline = cycles
        rate = PACKETS / cycles_to_us(cycles)
        print(f"{setting.label:16s} {cycles_to_us(cycles):8.1f} us "
              f"({rate:6.1f} pkt/us)  speedup {baseline / cycles:.2f}x")


if __name__ == "__main__":
    main()
