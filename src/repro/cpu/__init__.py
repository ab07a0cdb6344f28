"""CPU layer: cores and thread programs."""

from repro.cpu.core import Core
from repro.cpu.thread import ThreadContext

__all__ = ["Core", "ThreadContext"]
