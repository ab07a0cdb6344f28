"""System configuration (paper Table 1) and timing parameters.

:class:`SystemConfig` carries the hardware configuration the paper simulates
in gem5 plus the transaction-level latency parameters our discrete-event
substrate needs.  Defaults reproduce Table 1:

========  =====================================================
Cores     16 × AArch64 OoO CPU @ 2 GHz
Caches    32 KiB private 2-way L1D, 48 KiB private 3-way L1I,
          1 MiB shared 16-way mostly-inclusive L2
DRAM      8 GiB 2400 MHz DDR4
SRD       64 entries per prodBuf, consBuf, linkTab, and specBuf
========  =====================================================

The latency parameters are not in the paper (they are implied by the gem5
Ruby model); we pick values representative of a 16-core CMP at 2 GHz and
document them here so that sensitivity to the substitution can be explored
(see ``benchmarks/bench_ablation_latency.py``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.registry import TOPOLOGIES
from repro.units import CACHELINE_BYTES, DEFAULT_CLOCK_HZ, GiB, KiB, MiB


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry."""

    size_bytes: int
    associativity: int
    line_bytes: int = CACHELINE_BYTES
    hit_latency: int = 4  # cycles

    def __post_init__(self) -> None:
        if _cycle_count(self, "hit_latency") < 0:
            raise ConfigError("hit_latency must be >= 0")
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"invalid cache geometry: {self}")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration: Table 1 plus substrate latencies."""

    # ------------------------------------------------------------------ Table 1
    num_cores: int = 16
    clock_hz: int = DEFAULT_CLOCK_HZ
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(KiB(32), 2, hit_latency=4)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(KiB(48), 3, hit_latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(MiB(1), 16, hit_latency=12)
    )
    dram_bytes: int = GiB(8)
    dram_mhz: int = 2400
    dram_latency: int = 160  # cycles, loaded-latency DDR4-2400 estimate

    # SRD / VLRD buffer geometry (Table 1: 64 entries each).
    prodbuf_entries: int = 64
    consbuf_entries: int = 64
    linktab_entries: int = 64
    specbuf_entries: int = 64

    # -------------------------------------------------- transaction latencies
    #: One-way propagation core <-> routing device over the coherence network.
    bus_latency: int = 36
    #: Cycles a packet occupies the shared network (serialization of a
    #: 64-byte line onto a wide on-chip interconnect).
    bus_occupancy: int = 3

    # ------------------------------------------------------------- interconnect
    #: Interconnect fabric (any name in ``repro.registry.TOPOLOGIES.names()``).
    #: ``single-bus`` is the distance-free model the paper's 16-core
    #: evaluation implies and keeps all golden figures bit-identical;
    #: ``mesh``/``ring``/``crossbar`` route hop-by-hop through per-link
    #: servers, so placement and distance become visible (docs/MODEL.md,
    #: "Network model").
    topology: str = "single-bus"
    #: Mesh geometry as ``(rows, cols)``; ``None`` derives the most-square
    #: factorization of the core count (16 → 4×4, 64 → 8×8).  Only
    #: meaningful with ``topology="mesh"``.
    mesh_dims: Optional[Tuple[int, int]] = None
    #: Per-hop propagation delay on NoC topologies.  Defaults near
    #: ``bus_latency / 3`` so a 3-hop NoC route costs about one bus
    #: traversal — the calibration that makes mesh-vs-bus comparisons
    #: about *contention and distance spread*, not a flat rescale.
    link_latency: int = 12
    #: Number of SRD shards.  The paper treats the router "like a slice of
    #: system cache ... (as such a system could have more than one
    #: router)" but evaluates one.  Virtual links partition across shards
    #: by queue id (``sqi % num_srds``); each shard has its own buffer pool
    #: and mapping pipeline, sits on its own network node, and cross-shard
    #: stash traffic pays real network distance.
    num_srds: int = 1
    #: SRD/VLRD address-mapping pipeline depth (Section 3.1: three stages).
    srd_pipeline_latency: int = 3
    #: Core-side cost of vl_select + vl_push (writeback-like, off critical path).
    push_instruction_cost: int = 6
    #: Core-side cost of vl_select + vl_fetch on the pop slow path.
    fetch_instruction_cost: int = 6
    #: Fast-path pop cost when the consumer cacheline already holds data
    #: (an L1 hit plus queue-state bookkeeping).
    pop_fast_path_cost: int = 10
    #: Extra per-iteration overhead of the pop slow path's poll loop.
    poll_interval: int = 16
    #: First refetch delay of the pop poll loop, chosen near the on-demand
    #: load-to-use round trip so a re-issued vl_fetch races the expected
    #: stash — the paper's "prerequest" (Section 4.2).  Re-issues back off
    #: exponentially; duplicates coalesce at the device.
    refetch_interval: int = 160
    #: Cacheline write cost on the producer side before vl_push.
    line_write_cost: int = 4
    #: Poll cycles after which a stalled consumer scans its other lines; a
    #: stale prerequest (Section 4.2) can park a message in a future
    #: round-robin slot, and a robust library recovers by scanning forward.
    stale_scan_threshold: int = 1024

    # ------------------------------------------------------------ library knobs
    #: Model the Section 3.4 macro-inlining of hot queue functions: a per-call
    #: overhead added to every push/pop when *not* inlined.
    call_overhead: int = 8
    inline_library: bool = True

    #: One-time cost of leaving the pop slow path (spin-loop exit: branch
    #: recovery and pipeline refill).  SPAMeR's fast path avoids it — the
    #: paper's FIR analysis attributes part of the gain to "avoiding the
    #: slow path" (Section 4.3).
    slow_path_penalty: int = 24
    #: Ablation knob: spin-then-yield dequeue discipline.  When enabled the
    #: pop slow path spins ``spin_threshold`` cycles, then deschedules and
    #: only re-checks the line every ``yield_penalty`` cycles — coarsening
    #: delivery detection for late data.  Off by default: the pure spin
    #: model matches the paper's latency-focused library.
    spin_then_yield: bool = False
    spin_threshold: int = 128
    yield_penalty: int = 360
    #: Number of cachelines per *speculative* consumer endpoint the library
    #: allocates (used round-robin; a double buffer by default — incast's
    #: master registers 32, Section 4.3).  Legacy endpoints use one line.
    lines_per_endpoint: int = 2

    # --------------------------------------------------- multi-push speculation
    #: Maximum burst depth of confidence-gated multi-push speculation: the
    #: SPAMeR device may claim up to this many *consecutive* specBuf
    #: offsets of one entry and push that many messages ahead
    #: (:mod:`repro.spamer.multipush`).  The default 1 is single-push
    #: SPAMeR, bit-identical to the paper's model; values > 1 switch the
    #: device's Stage-2 policy to burst speculation with rollback.
    burst_k: int = 1
    #: Acceptance threshold gating burst (non-head) claims: a follower slot
    #: is only claimed while the per-queue acceptance estimator — an EWMA
    #: over confirmed/rolled-back burst slots, seeded from push precision —
    #: predicts at least this probability of acceptance.
    p_min: float = 0.75

    # ------------------------------------------------------------- verification
    #: Attach the live invariant checker (:mod:`repro.verify.invariants`) to
    #: the system's hook bus.  The checker is a plain subscriber: it observes
    #: every lifecycle/occupancy event, accumulates violations, and raises a
    #: :class:`~repro.errors.VerificationError` at quiesce — it schedules no
    #: events, so figures stay bit-identical with verification on or off.
    verify: bool = False
    #: Stall-watchdog window: abort with
    #: :class:`~repro.errors.SimDeadlockError` when the queue machinery makes
    #: no progress (no push, pop, or device action) for this many cycles.
    watchdog_cycles: int = 1_000_000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError(f"need at least one core, got {self.num_cores}")
        for name in (
            "prodbuf_entries",
            "consbuf_entries",
            "linktab_entries",
            "specbuf_entries",
            "num_srds",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in (
            "bus_latency",
            "bus_occupancy",
            "link_latency",
            "srd_pipeline_latency",
            "push_instruction_cost",
            "fetch_instruction_cost",
            "pop_fast_path_cost",
            "poll_interval",
            "refetch_interval",
            "line_write_cost",
            "call_overhead",
            "dram_latency",
            "stale_scan_threshold",
            "slow_path_penalty",
            "spin_threshold",
            "yield_penalty",
        ):
            if _cycle_count(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.lines_per_endpoint < 1:
            raise ConfigError("lines_per_endpoint must be >= 1")
        if self.burst_k < 1:
            raise ConfigError(f"burst_k must be >= 1, got {self.burst_k}")
        if not 0.0 <= self.p_min <= 1.0:
            raise ConfigError(
                f"p_min must be a probability in [0, 1], got {self.p_min}"
            )
        if self.watchdog_cycles < 1:
            raise ConfigError("watchdog_cycles must be >= 1")
        if self.mesh_dims is not None:
            if self.topology not in ("mesh", "torus"):
                raise ConfigError(
                    f"mesh_dims is only meaningful with a grid fabric "
                    f"(topology='mesh' or 'torus'), "
                    f"got topology={self.topology!r}"
                )
            rows, cols = self.mesh_dims
            if rows < 1 or cols < 1:
                raise ConfigError(f"mesh_dims must be positive, got {self.mesh_dims}")
            if rows * cols < self.num_cores:
                raise ConfigError(
                    f"mesh_dims {rows}x{cols} has {rows * cols} nodes, "
                    f"fewer than num_cores={self.num_cores}"
                )
        # The shipped default skips the lookup, so building the default
        # config does not import the fabric modules.
        if self.topology != "single-bus":
            TOPOLOGIES.resolve(self.topology)

    # ----------------------------------------------------------------- helpers
    def to_dict(self) -> Dict:
        """Serialize to a plain dict (JSON-friendly; caches nested)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SystemConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        data = dict(data)
        for cache_field in ("l1d", "l1i", "l2"):
            if cache_field in data and isinstance(data[cache_field], dict):
                data[cache_field] = CacheConfig(**data[cache_field])
        if isinstance(data.get("mesh_dims"), list):  # JSON round-trip
            data["mesh_dims"] = tuple(data["mesh_dims"])
        _reject_unknown_fields(data)
        return cls(**data)

    def to_json(self) -> str:
        """Serialize to JSON (for experiment records)."""
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        _reject_unknown_fields(kwargs)
        return replace(self, **kwargs)

    def table1_rows(self) -> Dict[str, str]:
        """Render the configuration as the rows of the paper's Table 1."""
        ghz = self.clock_hz / 1e9
        return {
            "Cores": f"{self.num_cores}xAArch64 OoO CPU @ {ghz:g} GHz",
            "Caches": (
                f"{self.l1d.size_bytes // 1024} KiB private "
                f"{self.l1d.associativity}-way L1D, "
                f"{self.l1i.size_bytes // 1024} KiB private "
                f"{self.l1i.associativity}-way L1I; "
                f"{self.l2.size_bytes // (1024 * 1024)} MiB shared "
                f"{self.l2.associativity}-way mostly-inclusive L2"
            ),
            "DRAM": f"{self.dram_bytes // (1 << 30)} GiB {self.dram_mhz} MHz DDR4",
            "SRD": (
                f"{self.prodbuf_entries} entries per prodBuf, consBuf, "
                "linkTab, and specBuf"
            ),
        }


def _cycle_count(config: object, name: str) -> int:
    """Coerce field *name* of a frozen *config* to a plain ``int``.

    Model processes sleep by yielding latency fields as bare ``int``
    delays, so an integral value of another type (a numpy integer) is
    stored as an ``int`` and a non-integral one is rejected here rather
    than mid-run.
    """
    value = getattr(config, name)
    try:
        cycles = operator.index(value)
    except TypeError:
        raise ConfigError(
            f"{name} must be an integer cycle count, got {value!r}"
        ) from None
    object.__setattr__(config, name, cycles)
    return cycles


def _reject_unknown_fields(data: Dict) -> None:
    """Raise :class:`ConfigError` naming every key of *data* that is not a
    :class:`SystemConfig` field (a plain ``TypeError`` would not say which
    keys a batch spec or saved config got wrong)."""
    unknown = sorted(set(data) - {f.name for f in fields(SystemConfig)})
    if unknown:
        raise ConfigError(f"unknown SystemConfig field(s): {', '.join(unknown)}")


#: The paper's evaluated configuration.
DEFAULT_CONFIG = SystemConfig()
