"""The SPAMeR Routing Device (SRD) — Section 3.2.

The SRD is the VLRD plus a parallel speculation path: when the address
mapping pipeline finds no consumer request for an incoming packet's SQI, it
looks up ``linkTab.specHead`` → specBuf in parallel with the consBuf lookup
and, if the entry is available (valid, not throttled by ``on_fly``, and
permitted by the security policy), derives a speculative target
``specTgt = base + offset × cacheline`` and a *send tick* from the delay
prediction algorithm.  The packet then takes path (A) of Figure 5 — the
speculative push queue — instead of parking on the SQI's buffering queue.

Architecturally the SRD is a thin composition: it owns the specBuf, the
security policy and the algorithm, and plugs them into the shared
:class:`~repro.vlink.pipeline.MappingPipeline` as a
:class:`~repro.spamer.policy.SpecBufSpeculation` stage — everything the
speculation path does (Figure 6's latches, ``offset`` rotation on hits,
throttling) lives in the policy, not in subclass overrides.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import SystemConfig
from repro.mem.bus import CoherenceNetwork
from repro.registry import DEVICES
from repro.sim.hooks import HookBus
from repro.spamer.delay import DelayAlgorithm
from repro.spamer.policy import SpecBufSpeculation
from repro.spamer.security import SecurityPolicy
from repro.spamer.specbuf import SpecBuf
from repro.vlink.pipeline import SpeculationPolicy
from repro.vlink.vlrd import VirtualLinkRoutingDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


@DEVICES.register(
    "spamer",
    accepts_algorithm=True,
    default_algorithm="tuned",
    accepts_security=True,
)
class SpamerRoutingDevice(VirtualLinkRoutingDevice):
    """VLRD extended with specBuf, linkTabSpec and the speculative push path."""

    kind = "SRD"
    supports_speculation = True

    def __init__(
        self,
        env: "Environment",
        config: SystemConfig,
        network: CoherenceNetwork,
        algorithm: DelayAlgorithm,
        security: Optional[SecurityPolicy] = None,
        hooks: Optional[HookBus] = None,
    ) -> None:
        # The policy components must exist before the base constructor
        # builds the pipeline (it calls _make_speculation).
        self.algorithm = algorithm
        self.specbuf = SpecBuf(config.specbuf_entries)
        self.security = security or SecurityPolicy()
        super().__init__(env, config, network, hooks=hooks)

    def _make_speculation(self) -> SpeculationPolicy:
        # Burst (multi-push) speculation turns on when either the config
        # asks for it (``burst_k > 1``) or the algorithm is the multipush
        # carrier; with the single-push default the plain specBuf policy is
        # built, keeping the golden runs bit-identical.
        from repro.spamer.multipush import MultiPushDelay, MultiPushSpeculation

        algorithm = self.algorithm
        burst_k = self.config.burst_k
        p_min = self.config.p_min
        if isinstance(algorithm, MultiPushDelay):
            if algorithm.burst_k is not None:
                burst_k = algorithm.burst_k
            if algorithm.p_min is not None:
                p_min = algorithm.p_min
            algorithm = algorithm.inner
            multipush = True
        else:
            multipush = burst_k > 1
        if multipush:
            return MultiPushSpeculation(
                self.specbuf,
                algorithm,
                self.security,
                self.linktab,
                self.stats,
                device=self,
                burst_k=burst_k,
                p_min=p_min,
                hooks=self.hooks,
            )
        return SpecBufSpeculation(
            self.specbuf,
            algorithm,
            self.security,
            self.linktab,
            self.stats,
            hooks=self.hooks,
        )

    # ------------------------------------------------------------------ metrics
    def spec_failure_rate(self) -> float:
        attempts = self.stats.get("spec_pushes")
        return self.stats.get("spec_failures") / attempts if attempts else 0.0
