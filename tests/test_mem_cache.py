"""Unit tests for the set-associative cache and MOESI states."""

import pytest

from repro.config import CacheConfig
from repro.errors import ProtocolError
from repro.mem.cache import MoesiState, SetAssocCache


@pytest.fixture
def cache():
    # 4 sets x 2 ways x 64B lines = 512B.
    return SetAssocCache(CacheConfig(512, 2), name="test")


def test_moesi_state_predicates():
    assert MoesiState.MODIFIED.can_supply
    assert MoesiState.OWNED.can_supply
    assert MoesiState.EXCLUSIVE.can_supply
    assert not MoesiState.SHARED.can_supply
    assert MoesiState.MODIFIED.is_writable and MoesiState.EXCLUSIVE.is_writable
    assert not MoesiState.OWNED.is_writable
    assert MoesiState.MODIFIED.dirty and MoesiState.OWNED.dirty
    assert not MoesiState.EXCLUSIVE.dirty
    assert not MoesiState.INVALID.is_valid


def test_line_address_decomposition(cache):
    assert cache.line_addr(0x1234) == 0x1200
    assert cache.set_index(0x0000) != cache.set_index(0x0040)
    # Same set every num_sets lines:
    assert cache.set_index(0x0000) == cache.set_index(0x0000 + 4 * 64)


def test_miss_then_hit(cache):
    assert cache.lookup(0x100) is None
    cache.install(0x100, MoesiState.EXCLUSIVE)
    entry = cache.lookup(0x100)
    assert entry is not None and entry.state is MoesiState.EXCLUSIVE
    assert cache.hits == 1 and cache.misses == 1


def test_lru_eviction(cache):
    # Fill one set (2 ways): addresses 0x0, 0x100 map to set 0 (stride 256).
    cache.install(0x000, MoesiState.SHARED)
    cache.install(0x100, MoesiState.SHARED)
    cache.lookup(0x000)  # touch -> 0x100 becomes LRU
    victim = cache.install(0x200, MoesiState.SHARED)
    assert victim is not None and victim.line_addr == 0x100
    assert cache.peek(0x000) is not None
    assert cache.peek(0x100) is None


def test_reinstall_same_line_does_not_evict(cache):
    cache.install(0x000, MoesiState.SHARED)
    cache.install(0x100, MoesiState.SHARED)
    victim = cache.install(0x000, MoesiState.MODIFIED)
    assert victim is None
    assert cache.state_of(0x000) is MoesiState.MODIFIED


def test_set_state_and_invalidate(cache):
    cache.install(0x40, MoesiState.EXCLUSIVE)
    cache.set_state(0x40, MoesiState.SHARED)
    assert cache.state_of(0x40) is MoesiState.SHARED
    cache.set_state(0x40, MoesiState.INVALID)
    assert cache.state_of(0x40) is MoesiState.INVALID
    assert not cache.invalidate(0x40)  # already gone


def test_set_state_on_absent_line_raises(cache):
    with pytest.raises(ProtocolError):
        cache.set_state(0x9999, MoesiState.SHARED)


def test_install_invalid_state_rejected(cache):
    with pytest.raises(ProtocolError):
        cache.install(0x40, MoesiState.INVALID)


def test_peek_does_not_count_stats(cache):
    cache.peek(0x40)
    assert cache.misses == 0
    cache.install(0x40, MoesiState.SHARED)
    cache.peek(0x40)
    assert cache.hits == 0

