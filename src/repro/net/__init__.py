"""Topology-aware interconnect models (see docs/MODEL.md, "Network model").

Public surface:

* :class:`~repro.net.topology.Topology` / :class:`~repro.net.topology.Link`
  — the abstraction: node placement, hop-by-hop routing, per-link
  contention and backpressure accounting.
* :data:`repro.registry.TOPOLOGIES` — the registry every fabric resolves
  through by name (the same :class:`~repro.registry.Registry` as devices,
  algorithms and arrival processes).
* Shipped fabrics: ``single-bus`` (default; bit-identical to the
  pre-topology model), ``mesh`` (XY routing), ``ring`` (shortest arc),
  ``crossbar`` (per-endpoint ports), ``torus`` (mesh plus wraparound).
"""

from repro.net.topology import Link, Topology, derive_mesh_dims

__all__ = ["Link", "Topology", "derive_mesh_dims"]
