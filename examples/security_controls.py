#!/usr/bin/env python
"""Security controls (Section 3.6): opt-outs and registration quotas.

Demonstrates the three mitigations the paper describes:

* per-endpoint / per-SQI speculation kill switches for confidentiality-
  sensitive threads (data still flows — it just falls back to on-demand
  style buffering at the device until popped);
* ulimit/MPAM-style quotas on specBuf registrations (DoS mitigation);
* a mixed system where only white-listed endpoints receive pushes.

Run:  python examples/security_controls.py
"""

from repro import RegistrationError, SecurityPolicy, System


def main() -> None:
    policy = SecurityPolicy(max_entries_per_core=2)
    system = System(device="spamer", algorithm="0delay", security=policy)
    lib = system.library

    # Two channels: one normal, one carrying sensitive data.
    q_fast = lib.create_queue()
    q_secret = lib.create_queue()
    prod_fast = lib.open_producer(q_fast, core_id=0)
    prod_secret = lib.open_producer(q_secret, core_id=0)
    cons_fast = lib.open_consumer(q_fast, core_id=1)
    # The sensitive consumer opts out of speculation entirely (legacy mode:
    # no spamer_register is issued, its lines are never push-enabled).
    cons_secret = lib.open_consumer(q_secret, core_id=2, speculative=False)

    # The quota holds: core 1 already registered one endpoint; a third
    # registration on the same core would be refused.
    lib.open_consumer(lib.create_queue(), core_id=1)
    try:
        lib.open_consumer(lib.create_queue(), core_id=1)
        raise SystemExit("quota should have been enforced!")
    except RegistrationError as exc:
        print(f"registration quota enforced: {exc}")

    # A per-SQI kill switch can also disable an already-registered channel.
    policy.disable_sqi(q_fast)
    print(f"speculation disabled for SQI {q_fast} at runtime")
    policy.enable_sqi(q_fast)

    n = 200

    def producer(ctx):
        for i in range(n):
            yield from ctx.push(prod_fast, ("public", i))
            yield from ctx.push(prod_secret, ("secret", i))
            yield ctx.compute(150)

    def fast_consumer(ctx):
        for _ in range(n):
            yield from ctx.pop(cons_fast)
            yield ctx.compute(180)

    def secret_consumer(ctx):
        for _ in range(n):
            yield from ctx.pop(cons_secret)
            yield ctx.compute(180)

    system.spawn(0, producer, "producer")
    system.spawn(1, fast_consumer, "public-consumer")
    system.spawn(2, secret_consumer, "secret-consumer")
    system.run_to_completion()

    stats = system.device.stats
    fast_fills = sum(line.fills for line in cons_fast.lines)
    secret_fills = sum(line.fills for line in cons_secret.lines)
    print(
        f"\ndelivered: public={fast_fills} (speculative pushes "
        f"{stats.get('spec_pushes')}), secret={secret_fills} (on-demand only)"
    )
    assert stats.get("spec_pushes") > 0
    assert secret_fills == n and fast_fills == n
    print("secret channel never appeared in specBuf:",
          all(e.sqi != q_secret for e in system.device.specbuf.entries))


if __name__ == "__main__":
    main()
