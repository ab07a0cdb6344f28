"""Unit tests for units helpers and SystemConfig (Table 1)."""

import pytest

from repro.config import CacheConfig, DEFAULT_CONFIG, SystemConfig
from repro.errors import ConfigError
from repro.units import (
    GiB,
    KiB,
    MiB,
    cycles_to_ms,
    cycles_to_ns,
    cycles_to_us,
    ns_to_cycles,
)


# ---------------------------------------------------------------------- units
def test_size_helpers():
    assert KiB(32) == 32 * 1024
    assert MiB(1) == 1024 * 1024
    assert GiB(8) == 8 * 1024 ** 3


def test_time_conversions_roundtrip():
    assert ns_to_cycles(1) == 2           # 2 GHz
    assert cycles_to_ns(2) == 1.0
    assert cycles_to_us(2_000) == 1.0
    assert cycles_to_ms(2_000_000) == 1.0
    assert ns_to_cycles(cycles_to_ns(12345)) == 12345


# ----------------------------------------------------------------- CacheConfig
def test_cache_geometry_derivation():
    l1d = CacheConfig(KiB(32), 2)
    assert l1d.num_lines == 512
    assert l1d.num_sets == 256


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheConfig(0, 2)
    with pytest.raises(ConfigError):
        CacheConfig(1000, 3)  # not divisible into sets


# ---------------------------------------------------------------- SystemConfig
def test_default_config_matches_table1():
    cfg = DEFAULT_CONFIG
    assert cfg.num_cores == 16
    assert cfg.clock_hz == 2_000_000_000
    assert cfg.l1d.size_bytes == KiB(32) and cfg.l1d.associativity == 2
    assert cfg.l1i.size_bytes == KiB(48) and cfg.l1i.associativity == 3
    assert cfg.l2.size_bytes == MiB(1) and cfg.l2.associativity == 16
    assert cfg.dram_bytes == GiB(8) and cfg.dram_mhz == 2400
    assert (
        cfg.prodbuf_entries
        == cfg.consbuf_entries
        == cfg.linktab_entries
        == cfg.specbuf_entries
        == 64
    )


def test_table1_rows_render_paper_text():
    rows = DEFAULT_CONFIG.table1_rows()
    assert rows["Cores"] == "16xAArch64 OoO CPU @ 2 GHz"
    assert "32 KiB private 2-way L1D" in rows["Caches"]
    assert "48 KiB private 3-way L1I" in rows["Caches"]
    assert "1 MiB shared 16-way mostly-inclusive L2" in rows["Caches"]
    assert rows["DRAM"] == "8 GiB 2400 MHz DDR4"
    assert rows["SRD"] == "64 entries per prodBuf, consBuf, linkTab, and specBuf"


def test_with_overrides_returns_new_config():
    cfg = DEFAULT_CONFIG.with_overrides(num_cores=4)
    assert cfg.num_cores == 4
    assert DEFAULT_CONFIG.num_cores == 16


def test_unknown_fields_raise_config_error_naming_them():
    with pytest.raises(ConfigError, match="no_such_field, scheduler"):
        DEFAULT_CONFIG.with_overrides(**{"scheduler": "heap", "no_such_field": 1})
    data = DEFAULT_CONFIG.to_dict()
    data["scheduler"] = "ladder"
    with pytest.raises(ConfigError, match="unknown SystemConfig field.*scheduler"):
        SystemConfig.from_dict(data)


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_cores", 0),
        ("prodbuf_entries", 0),
        ("specbuf_entries", -1),
        ("bus_latency", -1),
        ("poll_interval", -2),
        ("lines_per_endpoint", 0),
    ],
)
def test_invalid_configs_rejected(field, value):
    with pytest.raises(ConfigError):
        SystemConfig(**{field: value})


def test_config_is_frozen():
    with pytest.raises(Exception):
        DEFAULT_CONFIG.num_cores = 32  # type: ignore[misc]


def test_cycle_fields_are_stored_as_plain_ints():
    """Processes yield latency fields as bare ``int`` sleeps: an integral
    value of another type is stored as an ``int``, a fractional one is
    rejected when the config is built rather than mid-run."""
    import numpy as np

    config = SystemConfig(poll_interval=np.int64(8))
    assert config.poll_interval == 8 and config.poll_interval.__class__ is int
    assert CacheConfig(32 * 1024, 2, hit_latency=np.int32(3)).hit_latency.__class__ is int
    with pytest.raises(ConfigError, match="call_overhead.*integer"):
        SystemConfig(call_overhead=1.5)
    with pytest.raises(ConfigError, match="hit_latency"):
        CacheConfig(32 * 1024, 2, hit_latency=-1)
