"""Unit tests for the SPAMeR routing device and security policy."""

import pytest

from repro.config import SystemConfig
from repro.errors import RegistrationError
from repro.mem.address import Segment
from repro.registry import TOPOLOGIES
from repro.sim.kernel import Environment
from repro.spamer.delay import FixedDelay, NeverPush, ZeroDelay
from repro.spamer.security import SecurityPolicy
from repro.spamer.srd import SpamerRoutingDevice
from repro.vlink.endpoint import ConsumerEndpoint
from repro.vlink.packets import Message


def make_srd(env, algorithm=None, security=None, **overrides):
    cfg = SystemConfig(num_cores=4, **overrides)
    network = TOPOLOGIES.resolve(cfg.topology)(env, cfg)
    return SpamerRoutingDevice(
        env, cfg, network, algorithm or ZeroDelay(), security=security,
    )


def make_endpoint(env, endpoint_id=0, sqi=1, num_lines=2, core_id=0):
    seg = Segment(0x10000 * (endpoint_id + 1), 4096)
    return ConsumerEndpoint(env, endpoint_id, sqi, seg, core_id,
                            num_lines, spec_enabled=True)


def push(env, device, sqi=1, payload="data", txn=0):
    device.accept_push(Message(payload=payload, sqi=sqi, producer_id=0, seq=0,
                               transaction_id=txn, produced_at=env.now))


def test_registration_seeds_spec_head(env):
    srd = make_srd(env)
    ep = make_endpoint(env)
    srd.register_spec_target(ep)
    row = srd.linktab.row(1)
    assert row.spec_head is not None
    assert srd.specbuf.entry(row.spec_head).endpoint is ep


def test_legacy_endpoint_registration_rejected(env):
    srd = make_srd(env)
    seg = Segment(0x1000, 4096)
    legacy = ConsumerEndpoint(env, 0, 1, seg, 0, 1, spec_enabled=False)
    with pytest.raises(RegistrationError):
        srd.register_spec_target(legacy)


def test_speculative_push_without_request(env):
    srd = make_srd(env)
    ep = make_endpoint(env)
    srd.register_spec_target(ep)
    push(env, srd, payload="spec!")
    env.run()
    assert ep.lines[0].data.payload == "spec!"
    assert srd.stats.get("spec_pushes") == 1
    assert srd.stats.get("spec_hits") == 1
    assert srd.stats.get("ondemand_pushes") == 0


def test_offset_advances_on_hit_only(env):
    srd = make_srd(env)
    ep = make_endpoint(env, num_lines=2)
    srd.register_spec_target(ep)
    entry = srd.specbuf.entry(0)
    push(env, srd, payload="a", txn=0)
    env.run()
    assert entry.offset == 1
    # Fill line 1 externally so the next spec push misses.
    ep.lines[1].try_fill("blocker")
    push(env, srd, payload="b", txn=1)
    env.run(until=env.now + 200)
    assert entry.offset == 1  # unchanged across the miss
    assert srd.stats.get("spec_failures") >= 1


def test_on_fly_throttles_to_one_outstanding(env):
    srd = make_srd(env, algorithm=FixedDelay(10_000))
    ep = make_endpoint(env)
    srd.register_spec_target(ep)
    push(env, srd, payload="a", txn=0)
    push(env, srd, payload="b", txn=1)
    env.run(until=500)
    # Only the first selection happened; the second packet is buffered.
    assert srd.stats.get("spec_selected") == 1
    assert len(srd.linktab.row(1).buffered_data) == 1


def test_ring_rotation_across_endpoints(env):
    srd = make_srd(env)
    eps = [make_endpoint(env, endpoint_id=i) for i in range(3)]
    for ep in eps:
        srd.register_spec_target(ep)
    for i in range(3):
        push(env, srd, payload=i, txn=i)
        env.run()
    # Round-robin across the SQI's ring: each endpoint received one message.
    fills = [sum(line.fills for line in ep.lines) for ep in eps]
    assert fills == [1, 1, 1]


def test_never_push_buffers_forever(env):
    srd = make_srd(env, algorithm=NeverPush())
    srd.register_spec_target(make_endpoint(env))
    push(env, srd)
    env.run()
    assert srd.stats.get("spec_selected") == 0
    assert len(srd.linktab.row(1).buffered_data) == 1


def test_failed_spec_push_retries_until_line_frees(env):
    srd = make_srd(env)
    ep = make_endpoint(env, num_lines=1)
    srd.register_spec_target(ep)
    ep.lines[0].try_fill("blocker")
    push(env, srd, payload="waiting")
    env.run(until=1000)
    assert srd.stats.get("spec_failures") >= 1
    ep.lines[0].consume()
    env.run(until=2000)
    assert ep.lines[0].data.payload == "waiting"


def test_on_demand_wins_over_speculation(env):
    """The Stage-3 mux picks consTgt whenever a request is pending."""
    srd = make_srd(env)
    spec_ep = make_endpoint(env, endpoint_id=0)
    srd.register_spec_target(spec_ep)
    from repro.vlink.packets import ConsRequest
    legacy_line = make_endpoint(env, endpoint_id=1).lines[0]
    srd.accept_request(ConsRequest(sqi=1, line=legacy_line, issued_at=0))
    env.run()
    push(env, srd, payload="routed")
    env.run()
    assert legacy_line.data.payload == "routed"
    assert srd.stats.get("ondemand_hits") == 1
    assert srd.stats.get("spec_pushes") == 0


# ------------------------------------------------------------------ security
def test_security_quota_enforced(env):
    policy = SecurityPolicy(max_entries_per_core=1)
    srd = make_srd(env, security=policy)
    srd.register_spec_target(make_endpoint(env, endpoint_id=0, core_id=2))
    with pytest.raises(RegistrationError):
        srd.register_spec_target(make_endpoint(env, endpoint_id=1, core_id=2))
    assert policy.registered_by(2) == 1


def test_security_disabled_sqi_blocks_registration_and_spec(env):
    policy = SecurityPolicy()
    policy.disable_sqi(1)
    srd = make_srd(env, security=policy)
    with pytest.raises(RegistrationError):
        srd.register_spec_target(make_endpoint(env))


def test_security_disable_endpoint_stops_speculation(env):
    policy = SecurityPolicy()
    srd = make_srd(env, security=policy)
    ep = make_endpoint(env)
    srd.register_spec_target(ep)
    policy.disable_endpoint(ep.endpoint_id)
    push(env, srd)
    env.run()
    assert srd.stats.get("spec_pushes") == 0
    assert len(srd.linktab.row(1).buffered_data) == 1
    # Re-enable: the buffered packet is not retried until a kick, but new
    # data speculates again.
    policy.enable_endpoint(ep.endpoint_id)
    push(env, srd, payload="second", txn=1)
    env.run()
    assert srd.stats.get("spec_pushes") >= 1


def test_security_policy_validation():
    with pytest.raises(RegistrationError):
        SecurityPolicy(max_entries_per_core=-1)


def test_spec_failure_rate_metric(env):
    srd = make_srd(env)
    ep = make_endpoint(env, num_lines=1)
    srd.register_spec_target(ep)
    ep.lines[0].try_fill("blocker")
    push(env, srd)
    env.run(until=400)
    assert srd.spec_failure_rate() > 0.0
