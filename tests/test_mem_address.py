"""Unit tests for the address-space layout."""

import pytest

from repro.errors import ConfigError, RegistrationError
from repro.mem.address import PAGE_BYTES, AddressSpace, Segment
from repro.units import CACHELINE_BYTES, MiB


def test_segment_validation():
    with pytest.raises(ConfigError):
        Segment(-1, 100)
    with pytest.raises(ConfigError):
        Segment(0, 0)


def test_segment_line_addressing():
    seg = Segment(PAGE_BYTES, PAGE_BYTES)
    assert seg.line_addr(0) == PAGE_BYTES
    assert seg.line_addr(1) == PAGE_BYTES + CACHELINE_BYTES
    assert seg.num_lines == PAGE_BYTES // CACHELINE_BYTES
    with pytest.raises(RegistrationError):
        seg.line_addr(seg.num_lines)


def test_allocations_are_page_aligned_and_disjoint():
    space = AddressSpace(MiB(4))
    segs = [space.alloc_endpoint_buffer(8) for _ in range(16)]
    for seg in segs:
        assert seg.base % PAGE_BYTES == 0
    for a in segs:
        for b in segs:
            if a is not b:
                assert a.end <= b.base or b.end <= a.base


def test_allocation_exhaustion():
    space = AddressSpace(2 * PAGE_BYTES)
    space.alloc_endpoint_buffer(1)  # uses the second (and last) page
    with pytest.raises(RegistrationError):
        space.alloc_endpoint_buffer(1)


def test_page_zero_never_allocated():
    """The null page stays unmapped — a zero consTgt means 'no request'."""
    seg = AddressSpace(MiB(1)).alloc_endpoint_buffer(1)
    assert seg.base >= PAGE_BYTES


def test_allocation_rejects_zero_lines():
    with pytest.raises(RegistrationError):
        AddressSpace(MiB(1)).alloc_endpoint_buffer(0)


def test_too_small_dram_rejected():
    with pytest.raises(ConfigError):
        AddressSpace(PAGE_BYTES - 1)
