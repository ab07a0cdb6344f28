"""Bus-snooping MOESI coherence over private L1Ds and a shared L2.

This substrate backs the *software* message-queue baseline the paper's
introduction motivates against (Figure 1a): shared queue state (head, tail,
slot flags) ping-pongs between cores through snoop/invalidate traffic, which
is precisely the scalability problem Virtual-Link removes.

The model is transaction-level: every memory operation is a generator to be
driven with ``yield from`` inside a simulation process.  The shared bus
serializes coherence transactions (each one occupies the network), and the
value store is updated atomically at the instant an operation completes, so
the memory model is sequentially consistent.

Protocol summary (snooping MOESI):

* **load hit** (M/O/E/S): L1 latency only.
* **load miss**: BusRd — a remote M/O/E supplier provides the line
  cache-to-cache (remote M/E degrade to O/S ownership-transfer style:
  supplier keeps the dirty line as O, requester takes S); otherwise the L2
  or DRAM supplies it (requester takes E when no other L1 holds it, S
  otherwise).
* **store hit** (M/E): silent upgrade to M.
* **store to S/O**: BusUpgr — invalidate remote copies, go M.
* **store miss**: BusRdX — fetch with intent to modify, invalidate remotes.
* **atomics** (CAS / fetch-add): a BusRdX followed by the read-modify-write
  at completion time; bus serialization makes them atomic.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.mem.bus import CoherenceNetwork, PacketKind
from repro.mem.cache import MoesiState, SetAssocCache
from repro.mem.dram import Dram
from repro.sim.process import PARK, Process
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class CoherentMemorySystem:
    """N private L1D caches + shared L2 + DRAM, kept coherent by snooping."""

    def __init__(
        self,
        env: "Environment",
        config: SystemConfig,
        network: Optional[CoherenceNetwork] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.network = network or CoherenceNetwork(env, config)
        self.l1 = [
            SetAssocCache(config.l1d, name=f"L1D{i}") for i in range(config.num_cores)
        ]
        self.l2 = SetAssocCache(config.l2, name="L2")
        self.dram = Dram(config)
        #: Architectural value store (word granularity), always up to date.
        self.values: Dict[int, int] = {}
        self.counters = Counter()

    # ------------------------------------------------------------- value store
    def poke_value(self, addr: int, value: int) -> None:
        """Set the architectural value without simulating time (initialisation)."""
        self.values[addr] = value

    # ------------------------------------------------------------ snoop helpers
    def _snoop_for_supplier(
        self, requester: int, addr: int
    ) -> Optional[Tuple[int, MoesiState]]:
        """Find a remote L1 that must supply the line (M/O/E holder)."""
        for core, cache in enumerate(self.l1):
            if core == requester:
                continue
            entry = cache.peek(addr)
            if entry is not None and entry.state.can_supply:
                return core, entry.state
        return None

    def _other_sharers(self, requester: int, addr: int) -> List[int]:
        return [
            core
            for core, cache in enumerate(self.l1)
            if core != requester and cache.peek(addr) is not None
        ]

    def _invalidate_others(self, requester: int, addr: int) -> int:
        count = 0
        for core, cache in enumerate(self.l1):
            if core != requester and cache.invalidate(addr):
                count += 1
        return count

    def _handle_victim(self, victim) -> None:
        """Victims in M/O are absorbed by the (mostly-inclusive) L2."""
        if victim is not None and victim.state.dirty:
            self.counters.counts["writebacks"] += 1
            self.l2.install(victim.line_addr, MoesiState.MODIFIED)

    def _degrade_suppliers(self, core: int, addr: int) -> None:
        """At fill-commit time, degrade any remote writable/owning copy.

        Operations interleave at their network yields, so the snoop used
        for *latency* may be stale by commit time; this re-snoop at the
        commit instant preserves the SWMR invariant.
        """
        for other, cache in enumerate(self.l1):
            if other == core:
                continue
            entry = cache.peek(addr)
            if entry is None:
                continue
            if entry.state in (MoesiState.MODIFIED, MoesiState.OWNED):
                cache.set_state(addr, MoesiState.OWNED)
            elif entry.state is MoesiState.EXCLUSIVE:
                cache.set_state(addr, MoesiState.SHARED)

    def _bus_packet(self, src: int, dst: int) -> Generator:
        """``yield from`` generator: one coherence packet from node *src*
        to node *dst*.  The calling process parks until the packet is
        delivered, when the network resumes it."""
        self.network.transit_then(
            PacketKind.COHERENCE, Process._resume, self.env.active_process,
            src=src, dst=dst,
        )
        yield PARK

    # ------------------------------------------------------------------- load
    def load(self, core: int, addr: int) -> Generator:
        """``yield from`` generator: returns the loaded value."""
        cache = self.l1[core]
        entry = cache.lookup(addr)
        if entry is not None:
            self.counters.counts["load_hits"] += 1
            yield self.config.l1d.hit_latency
            return self.values.get(addr, 0)

        self.counters.counts["load_misses"] += 1
        # BusRd: occupy the network for the request.  On NoC topologies the
        # request travels to the coherence hub (the shared-L2 home node,
        # co-located with SRD shard 0); the bus model ignores placement.
        net = self.network
        yield from self._bus_packet(net.core_nodes[core], net.srd_nodes[0])
        supplier = self._snoop_for_supplier(core, addr)
        if supplier is not None:
            # Cache-to-cache transfer: one data packet supplier → requester.
            yield from self._bus_packet(
                net.core_nodes[supplier[0]], net.core_nodes[core]
            )
            self.counters.counts["c2c_transfers"] += 1
        else:
            l2_entry = self.l2.lookup(addr)
            if l2_entry is not None:
                yield self.config.l2.hit_latency
                self.counters.counts["l2_hits"] += 1
            else:
                yield self.dram.read()
                self.l2.install(addr, MoesiState.EXCLUSIVE)
                self.counters.counts["dram_fills"] += 1
        # Commit atomically: degrade whoever owns the line *now* and pick
        # the fill state from the current sharer set.
        self._degrade_suppliers(core, addr)
        new_state = (
            MoesiState.SHARED
            if self._other_sharers(core, addr)
            else MoesiState.EXCLUSIVE
        )
        self._handle_victim(cache.install(addr, new_state))
        yield self.config.l1d.hit_latency
        return self.values.get(addr, 0)

    # ------------------------------------------------------------------- store
    def store(self, core: int, addr: int, value: int) -> Generator:
        """``yield from`` generator: performs a coherent store."""
        yield from self._acquire_writable(core, addr)
        self.values[addr] = value
        yield self.config.l1d.hit_latency

    def _acquire_writable(self, core: int, addr: int) -> Generator:
        """Bring the line into M in *core*'s L1 (the store-miss path).

        Retries when a racing core steals the line between our bus
        transaction and its commit (operations interleave at yields).
        """
        cache = self.l1[core]
        while True:
            entry = cache.lookup(addr)
            if entry is not None and entry.state.is_writable:
                self.counters.counts["store_hits"] += 1
                cache.set_state(addr, MoesiState.MODIFIED)
                return
            if entry is not None:
                # S or O: upgrade — invalidate every other copy.
                self.counters.counts["upgrades"] += 1
                net = self.network
                yield from self._bus_packet(net.core_nodes[core], net.srd_nodes[0])
                if cache.peek(addr) is None:
                    # A racing BusRdX invalidated us mid-upgrade: retry as
                    # a plain miss.
                    continue
                self._invalidate_others(core, addr)
                cache.set_state(addr, MoesiState.MODIFIED)
                return
            # Store miss: BusRdX.
            self.counters.counts["store_misses"] += 1
            net = self.network
            yield from self._bus_packet(net.core_nodes[core], net.srd_nodes[0])
            supplier = self._snoop_for_supplier(core, addr)
            if supplier is not None:
                yield from self._bus_packet(
                    net.core_nodes[supplier[0]], net.core_nodes[core]
                )
                self.counters.counts["c2c_transfers"] += 1
            else:
                l2_entry = self.l2.lookup(addr)
                if l2_entry is not None:
                    yield self.config.l2.hit_latency
                    self.counters.counts["l2_hits"] += 1
                else:
                    yield self.dram.read()
                    self.l2.install(addr, MoesiState.EXCLUSIVE)
                    self.counters.counts["dram_fills"] += 1
            # Commit atomically against the *current* sharer set.
            self._invalidate_others(core, addr)
            self._handle_victim(cache.install(addr, MoesiState.MODIFIED))
            return

    # ----------------------------------------------------------------- atomics
    def cas(self, core: int, addr: int, expected: int, new: int) -> Generator:
        """Atomic compare-and-swap; returns True on success."""
        self.counters.counts["atomics"] += 1
        yield from self._acquire_writable(core, addr)
        yield self.config.l1d.hit_latency
        current = self.values.get(addr, 0)
        if current == expected:
            self.values[addr] = new
            return True
        return False

    # ------------------------------------------------------------- invariants
    def check_coherence_invariant(self) -> None:
        """SWMR check: at most one writable copy; M/E excludes other copies."""
        seen: Dict[int, List[MoesiState]] = {}
        for cache in self.l1:
            for cache_set in cache._sets:
                for la, entry in cache_set.items():
                    seen.setdefault(la, []).append(entry.state)
        for la, states in seen.items():
            writable = sum(1 for s in states if s.is_writable)
            owners = sum(1 for s in states if s in (MoesiState.MODIFIED, MoesiState.OWNED))
            if writable > 1:
                raise ProtocolError(f"multiple writable copies of {la:#x}: {states}")
            if writable == 1 and len(states) > 1:
                raise ProtocolError(f"M/E copy of {la:#x} coexists with others: {states}")
            if owners > 1:
                raise ProtocolError(f"multiple owners of {la:#x}: {states}")
