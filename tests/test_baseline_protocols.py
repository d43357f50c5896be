"""Volatile, strict, and leaf persistence semantics."""

import pytest

from repro.cache.metadata_cache import counter_key, node_key
from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.mem.backend import MetadataRegion
from repro.util.units import MB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, name):
    return MemoryEncryptionEngine(config, make_protocol(name, config))


class TestVolatile:
    def test_no_persists_ever(self, config):
        mee = engine_for(config, "volatile")
        for i in range(20):
            mee.write_block(i * 4096)
        assert mee.nvm.persists() == 0

    def test_write_cost_is_posted_only(self, config):
        mee = engine_for(config, "volatile")
        protocol_cycles = mee.protocol.on_data_write(0, 0, mee.geometry.ancestors_of_counter(0))
        assert protocol_cycles == 0


class TestStrict:
    def test_write_through_whole_path(self, config):
        mee = engine_for(config, "strict")
        mee.write_block(0)
        levels = mee.geometry.num_node_levels
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1
        assert mee.nvm.persists(MetadataRegion.TREE) == levels

    def test_nothing_left_dirty(self, config):
        mee = engine_for(config, "strict")
        mee.write_block(0)
        assert not mee.mdcache.is_dirty(counter_key(0))
        for node in mee.geometry.ancestors_of_counter(0):
            assert not mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_strict_costs_more_than_leaf(self, config):
        strict = engine_for(config, "strict")
        leaf = engine_for(config, "leaf")
        assert strict.write_block(0) > leaf.write_block(0)

    def test_zero_stale_coverage(self, config):
        protocol = make_protocol("strict", config)
        assert protocol.stale_data_bytes(8 * MB) == 0.0


class TestLeaf:
    def test_persists_counter_and_hmac_only(self, config):
        mee = engine_for(config, "leaf")
        mee.write_block(0)
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1
        assert mee.nvm.persists(MetadataRegion.TREE) == 0

    def test_tree_nodes_stay_dirty(self, config):
        mee = engine_for(config, "leaf")
        mee.write_block(0)
        assert not mee.mdcache.is_dirty(counter_key(0))
        for node in mee.geometry.ancestors_of_counter(0):
            assert mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_full_memory_stale_coverage(self, config):
        protocol = make_protocol("leaf", config)
        assert protocol.stale_data_bytes(64 * MB) == float(64 * MB)

    def test_repeat_writes_keep_persisting(self, config):
        mee = engine_for(config, "leaf")
        for _ in range(5):
            mee.write_block(0)
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 5
