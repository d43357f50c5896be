"""Anubis: shadow-table costs and bounded recovery."""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import CrashInjector
from repro.mem.backend import MetadataRegion
from repro.mem.bandwidth import RecoveryBandwidthModel
from repro.util.units import MB, TB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, functional=False):
    return MemoryEncryptionEngine(
        config, make_protocol("anubis", config), functional=functional
    )


class TestRuntimeCosts:
    def test_fill_triggers_shadow_persist(self, config):
        mee = engine_for(config)
        mee.read_block(0)  # cold: several fills, each shadowed
        fills = mee.protocol.stats.get("shadow_fills")
        assert fills > 0
        assert mee.nvm.persists(MetadataRegion.SHADOW_TABLE) >= fills

    def test_fill_cost_is_on_critical_path(self, config):
        mee = engine_for(config)
        cost = mee.protocol.on_metadata_fill(("ctr", 0))
        assert cost == mee.nvm.write_latency_cycles

    def test_warm_accesses_avoid_slow_path(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        fills_cold = mee.protocol.stats.get("shadow_fills")
        mee.read_block(64)  # fully warm
        assert (
            mee.protocol.stats.get("shadow_fills")
            == fills_cold
        )

    def test_write_updates_shadow_without_critical_cycles(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        extra = mee.protocol.on_data_write(0, 0, mee.geometry.ancestors_of_counter(0))
        assert extra == 0  # coalesced off the critical path
        assert mee.protocol.stats.get("shadow_updates") >= 1

    def test_extra_nv_register_for_shadow_root(self, config):
        mee = engine_for(config)
        assert "anubis_shadow_root" in mee.registers.names()


class TestRecovery:
    def test_recovery_restores_counters_and_macs(self, config):
        mee = engine_for(config, functional=True)
        payload = b"anubis-data".ljust(64, b"\x00")
        mee.write_block(3 * 4096, data=payload)
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok
        assert "shadow entries restored" in outcome.detail
        assert mee.read_block_data(3 * 4096) == payload

    def test_recovery_time_is_memory_size_independent(self, config):
        model = RecoveryBandwidthModel(config.pcm)
        protocol = make_protocol("anubis", config)
        small = protocol.recovery_ms(model, 2 * TB)
        large = protocol.recovery_ms(model, 128 * TB)
        assert small == large

    def test_recovery_time_matches_table4(self, config):
        # Paper Table 4: 1.30 ms regardless of memory size.
        model = RecoveryBandwidthModel(config.pcm)
        protocol = make_protocol("anubis", config)
        assert protocol.recovery_ms(model, 2 * TB) == pytest.approx(
            1.30, abs=0.05
        )

    def test_zero_stale_coverage(self, config):
        protocol = make_protocol("anubis", config)
        assert protocol.stale_data_bytes(2 * TB) == 0.0


class TestArea:
    def test_table3_numbers(self, config):
        mee = engine_for(config)
        area = mee.protocol.area_overhead()
        assert area.nonvolatile_on_chip_bytes == 64
        assert area.volatile_on_chip_bytes == 37 * 1024
        assert area.in_memory_bytes == 37 * 1024


class TestShadowCacheKnob:
    """The 37 kB on-chip shadow cache is optional; without it every
    shadow update also walks the shadow Merkle tree in memory."""

    @pytest.fixture
    def no_cache_config(self, config):
        from dataclasses import replace

        from repro.config import AnubisConfig

        return replace(
            config, anubis=AnubisConfig(shadow_cache_on_chip=False)
        )

    def test_fills_cost_more_without_the_cache(self, config, no_cache_config):
        with_cache = engine_for(config)
        without_cache = MemoryEncryptionEngine(
            no_cache_config, make_protocol("anubis", no_cache_config)
        )
        assert without_cache.protocol.on_metadata_fill(
            ("ctr", 0)
        ) > with_cache.protocol.on_metadata_fill(("ctr", 0))
        assert without_cache.protocol.stats.get("shadow_tree_walks") == 1

    def test_area_trades_sram_for_traffic(self, no_cache_config):
        mee = MemoryEncryptionEngine(
            no_cache_config, make_protocol("anubis", no_cache_config)
        )
        area = mee.protocol.area_overhead()
        assert area.volatile_on_chip_bytes == 0
        assert area.in_memory_bytes == 37 * 1024
