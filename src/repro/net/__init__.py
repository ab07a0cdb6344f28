"""The coherence network (see docs/MODEL.md, "Network model").

Public surface:

* :class:`~repro.net.topology.Topology` — the network itself
  (``System.network``): node placement, hop-by-hop routing through
  per-link :class:`~repro.sim.resources.FifoServer` s, per-kind packet
  counters, contention and backpressure accounting.
* :class:`~repro.net.topology.PacketKind` — the packet classes a transit
  carries.
* :data:`repro.registry.TOPOLOGIES` — the registry every fabric resolves
  through by name (the same :class:`~repro.registry.Registry` as devices,
  algorithms and arrival processes).
* Shipped fabrics: ``single-bus`` (default; one FIFO server), ``mesh``
  (XY routing), ``ring`` (shortest arc), ``crossbar`` (per-endpoint
  ports), ``torus`` (mesh plus wraparound).
"""

from repro.net.topology import PacketKind, Topology, derive_mesh_dims

__all__ = ["PacketKind", "Topology", "derive_mesh_dims"]
