"""Deterministic random-number streams for workload generation.

Every source of randomness in a run derives from a single master seed so
that (a) runs are exactly reproducible and (b) independent components (each
thread's compute-time jitter, packet payloads, ...) draw from *independent*
streams — adding a consumer must not perturb a producer's sequence.

Streams are spawned by name using SeedSequence-style key hashing.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np

#: 2**-53: scales a 53-bit integer onto ``[0, 1)`` exactly as numpy's
#: ``next_double`` does.
_UNIT = 1.0 / 9007199254740992.0


class RngPool:
    """A pool of named, independent ``numpy.random.Generator`` streams."""

    __slots__ = ("master_seed", "_streams", "_raw")

    def __init__(self, master_seed: int = 0xC0FFEE) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: Per-stream ``bit_generator.random_raw``: one 64-bit draw.
        self._raw: Dict[str, Callable[[], int]] = {}

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for *name*."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._derive_seed(name))
        return self._streams[name]

    def jitter(self, name: str, base: int, fraction: float) -> int:
        """Draw ``base`` perturbed by up to ±``fraction`` uniformly.

        Used for compute-time jitter in workloads; returns at least 1 cycle.
        The draw is ``Generator.uniform(lo, hi)`` computed from one raw
        64-bit word (``lo + (hi - lo) * next_double``, numpy's own formula),
        bit for bit the same value at a fraction of the call cost.
        """
        if fraction < 0:
            raise ValueError(f"negative jitter fraction {fraction}")
        if fraction == 0:
            return max(1, int(base))
        raw = self._raw.get(name)
        if raw is None:
            raw = self._raw[name] = self.stream(name).bit_generator.random_raw
        lo = base * (1.0 - fraction)
        hi = base * (1.0 + fraction)
        return max(1, int(round(lo + (hi - lo) * ((raw() >> 11) * _UNIT))))


def bithash(value: int, tsc: int, bits: int = 2) -> int:
    """Tiny hardware-style hash used by the tuned algorithm's ``halved`` path.

    Listing 1 computes ``halved = delay >> bithash(delay, tsc)``.  The paper
    leaves ``bithash`` unspecified beyond being a cheap obfuscating hash
    ("augmented by random chance", Section 3.6); we fold the operand bits
    with xor and return a shift amount in ``[1, 2**bits)`` so the delay is
    always strictly reduced.
    """
    x = (value ^ (tsc * 0x9E3779B1)) & 0xFFFFFFFF
    x ^= x >> 16
    x ^= x >> 8
    x ^= x >> 4
    span = (1 << bits) - 1
    return 1 + (x % span) if span > 1 else 1
