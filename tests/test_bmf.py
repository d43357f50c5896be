"""Bonsai Merkle Forest: coverage invariant, prune/merge, recovery."""

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
        config, make_protocol("bmf", config), functional=functional
    )


class TestRootSet:
    def test_starts_with_global_root(self, config):
        mee = engine_for(config)
        assert mee.protocol.persistent_roots() == [(1, 0)]

    def test_initial_coverage_is_total(self, config):
        mee = engine_for(config)
        assert mee.protocol.covers_all_leaves()

    def test_nearest_root_is_global_initially(self, config):
        mee = engine_for(config)
        path = mee.geometry.ancestors_of_counter(0)
        assert mee.protocol.nearest_persistent_root(path) == (1, 0)

    def test_roots_act_as_read_trust_anchors(self, config):
        mee = engine_for(config)
        assert mee.protocol.trusted_register_node((1, 0), 0)
        assert not mee.protocol.trusted_register_node((2, 0), 0)


class TestWriteCosts:
    def test_initial_writes_are_near_strict(self, config):
        bmf = engine_for(config)
        strict = MemoryEncryptionEngine(config, make_protocol("strict", config))
        # With only the global root, BMF persists the whole path except
        # the root itself.
        bmf.write_block(0)
        strict.write_block(0)
        levels = bmf.geometry.num_node_levels
        assert bmf.nvm.persists(MetadataRegion.TREE) == levels - 1
        assert strict.nvm.persists(MetadataRegion.TREE) == levels

    def test_counter_and_hmac_always_persist(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1


class TestAdaptation:
    def run_hot_writes(self, mee, writes):
        # Hammer one page so the hot path dominates the interval count.
        for i in range(writes):
            mee.write_block((i % 4) * 4096)

    def test_pruning_shortens_hot_persist_path(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        self.run_hot_writes(mee, interval + 1)
        assert mee.protocol.stats.get("prunes") >= 1
        roots = mee.protocol.persistent_roots()
        assert (1, 0) not in roots
        # The root was replaced by its children (the 64 MB tree's root
        # has 4 children, fewer than the arity).
        assert roots == list(mee.geometry.children((1, 0)))

    def test_coverage_invariant_survives_adaptation(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        self.run_hot_writes(mee, 6 * interval)
        assert mee.protocol.covers_all_leaves()

    def test_persist_path_shrinks_after_prunes(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        before = mee.write_block(0)
        self.run_hot_writes(mee, 6 * interval)
        after = mee.write_block(0)
        assert after < before

    def test_root_set_respects_capacity(self, config):
        mee = engine_for(config)
        self.run_hot_writes(mee, 12 * config.bmf.adjust_interval)
        assert len(mee.protocol.persistent_roots()) <= config.bmf.root_set_entries


class TestRecovery:
    def test_instant_recovery_model(self, config):
        model = RecoveryBandwidthModel(config.pcm)
        protocol = make_protocol("bmf", config)
        assert protocol.recovery_ms(model, 2 * TB) == 0.0

    def test_functional_recovery_with_default_root(self, config):
        mee = engine_for(config, functional=True)
        payload = b"bmf".ljust(64, b"\x00")
        mee.write_block(0, data=payload)
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok
        assert mee.read_block_data(0) == payload

    def test_functional_recovery_after_pruning(self, config):
        mee = engine_for(config, functional=True)
        interval = config.bmf.adjust_interval
        for i in range(interval + 8):
            mee.write_block((i % 4) * 4096, data=bytes([i % 251]) * 64)
        assert mee.protocol.stats.get("prunes") >= 1
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok
        assert mee.read_block_data(0) is not None


class TestArea:
    def test_table3_numbers(self, config):
        mee = engine_for(config)
        area = mee.protocol.area_overhead()
        assert area.nonvolatile_on_chip_bytes == 4 * 1024
        assert area.volatile_on_chip_bytes == 768
        assert area.in_memory_bytes == 0
