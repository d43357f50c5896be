"""The MEE's timing behaviour: cache walks, fills, write paths."""

import pytest

from repro.cache.metadata_cache import counter_key, hmac_key, node_key
from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine, resolve_record
from repro.core.protocol import make_protocol
from repro.mem.backend import MetadataRegion
from repro.util.units import MB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, name="volatile"):
    return MemoryEncryptionEngine(config, make_protocol(name, config))


class TestReadPath:
    def test_cold_read_fetches_full_path(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        # data + counter + every node level + hmac line.
        levels = mee.geometry.num_node_levels
        assert mee.nvm.reads(MetadataRegion.DATA) == 1
        assert mee.nvm.reads(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.reads(MetadataRegion.TREE) == levels
        assert mee.nvm.reads(MetadataRegion.HMACS) == 1

    def test_warm_read_stops_at_cached_node(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        tree_reads = mee.nvm.reads(MetadataRegion.TREE)
        mee.read_block(64)  # same page: counter + path all cached
        assert mee.nvm.reads(MetadataRegion.TREE) == tree_reads

    def test_sibling_page_shares_upper_path(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        tree_reads = mee.nvm.reads(MetadataRegion.TREE)
        mee.read_block(8 * 4096)  # different leaf parent, shared upper
        assert mee.nvm.reads(MetadataRegion.TREE) == tree_reads + 1

    def test_read_returns_positive_cycles(self, config):
        mee = engine_for(config)
        assert mee.read_block(0) >= mee.nvm.read_latency_cycles

    def test_walk_stop_stats(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        mee.read_block(64)
        assert mee.stats.get("walk_stopped_at_cache") == 1


class TestWritePath:
    def test_write_dirties_counter_hmac_and_path(self, config):
        mee = engine_for(config)  # volatile: nothing persists
        mee.write_block(0)
        assert mee.mdcache.is_dirty(counter_key(0))
        assert mee.mdcache.is_dirty(hmac_key(0))
        for node in mee.geometry.ancestors_of_counter(0):
            assert mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_volatile_write_never_persists(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.persists() == 0

    def test_data_write_reaches_nvm(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.writes(MetadataRegion.DATA) == 1

    def test_dirty_eviction_writes_back(self, config):
        mee = engine_for(config)
        capacity = mee.mdcache.capacity_lines()
        # Touch enough distinct pages to overflow the metadata cache.
        for page in range(capacity + 512):
            mee.write_block(page * 4096)
        assert mee.stats.get("metadata_writebacks") > 0
        assert mee.nvm.writes(MetadataRegion.COUNTERS) > 0


class TestPersistHelpers:
    def test_persist_counter_cleans_line(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.mdcache.is_dirty(counter_key(0))
        cycles = mee.persist_counter_line(0)
        assert cycles == mee.nvm.write_latency_cycles
        assert not mee.mdcache.is_dirty(counter_key(0))
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1

    def test_persist_tree_node_cleans_line(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        node = mee.geometry.ancestors_of_counter(0)[0]
        mee.persist_tree_node(node)
        assert not mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_persisting_absent_line_leaves_cache_untouched(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        stats = mee.mdcache.stats
        before = {
            name: stats.get(name)
            for name in ("hits", "misses", "fills", "evictions")
        }
        occupancy = mee.mdcache.occupancy()
        far = mee.geometry.num_counter_blocks - 1
        mee.persist_counter_line(far)
        assert not mee.mdcache.contains(counter_key(far))
        assert mee.mdcache.occupancy() == occupancy
        assert {name: stats.get(name) for name in before} == before
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1

    def test_persist_leaf_charges_overlapped_pair(self, config):
        mee = engine_for(config)
        mee.write_block(4096 + 3 * 64)
        block = (4096 + 3 * 64) // 64
        assert mee.mdcache.is_dirty(counter_key(1))
        assert mee.mdcache.is_dirty(hmac_key(block // 8))
        cycles = mee.persist_leaf(1, block)
        assert cycles == mee.nvm.write_latency_cycles + mee.posted_write_cycles
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1
        assert not mee.mdcache.is_dirty(counter_key(1))
        assert not mee.mdcache.is_dirty(hmac_key(block // 8))

    def test_posted_write_cheaper_than_persist(self, config):
        mee = engine_for(config)
        assert 0 < mee.posted_write_cycles < mee.nvm.write_latency_cycles

    def test_persist_path_runs_in_order_at_full_latency(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        order = []
        mee.wear_tracker = WriteLog(order)
        path = mee.geometry.ancestors_of_counter(0)
        nodes = [path[2], path[0], path[-1]]
        cycles = mee.persist_path(nodes)
        assert cycles == len(nodes) * mee.nvm.write_latency_cycles
        assert order == [("line", node_key(*node)) for node in nodes]
        assert mee.nvm.persists(MetadataRegion.TREE) == len(nodes)
        assert mee.persist_path([]) == 0

    def test_persist_path_cleans_resident_and_skips_absent(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        path = mee.geometry.ancestors_of_counter(0)
        far = mee.geometry.ancestors_of_counter(
            mee.geometry.num_counter_blocks - 1
        )[0]
        occupancy = mee.mdcache.occupancy()
        mee.persist_path(path + [far])
        for node in path:
            key = node_key(*node)
            assert mee.mdcache.contains(key)
            assert not mee.mdcache.is_dirty(key)
        assert not mee.mdcache.contains(node_key(*far))
        assert mee.mdcache.occupancy() == occupancy

    def test_persist_path_fires_phase_before_each_persist(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        events = []
        mee.fault_probe = ProbeLog(events)
        path = mee.geometry.ancestors_of_counter(0)
        mee.persist_path(path, "strict_write_through")
        assert events == [
            ("phase", "strict_write_through"),
            ("persist",),
        ] * len(path)
        events.clear()
        mee.persist_path(path)
        assert events == [("persist",)] * len(path)

    def test_persist_path_equals_a_persist_tree_node_loop(self, config):
        pathwise, nodewise = engine_for(config), engine_for(config)
        for mee in (pathwise, nodewise):
            for page in (0, 9, 70):
                mee.write_block(page * 4096)
        nodes = pathwise.geometry.ancestors_of_counter(9)
        nodes = nodes + pathwise.geometry.ancestors_of_counter(70)[:2]
        cycles = pathwise.persist_path(nodes)
        assert cycles == sum(nodewise.persist_tree_node(node) for node in nodes)
        assert pathwise.nvm.stats.snapshot() == nodewise.nvm.stats.snapshot()
        assert (
            pathwise.mdcache.stats.snapshot() == nodewise.mdcache.stats.snapshot()
        )
        assert list(pathwise.mdcache._cache.lines()) == list(
            nodewise.mdcache._cache.lines()
        )


class WriteLog:
    """A wear tracker that logs the metadata lines written, in order."""

    def __init__(self, log):
        self.log = log

    def record_line(self, key):
        self.log.append(("line", key))


class ProbeLog:
    """A fault probe that logs phase and persist-window announcements."""

    def __init__(self, log):
        self.log = log

    def on_phase(self, name):
        self.log.append(("phase", name))

    def on_persist(self):
        self.log.append(("persist",))


class TestPathMemo:
    def test_ancestor_path_memoized(self, config):
        mee = engine_for(config)
        first = resolve_record(mee.geometry, 5, 40)
        assert resolve_record(mee.geometry, 5, 40) is first
        # Sibling counters share one ancestor chain object.
        sibling = resolve_record(mee.geometry, 4, 32)
        assert sibling[4] is first[4] and sibling[5] is first[5]

    def test_path_matches_geometry(self, config):
        mee = engine_for(config)
        record = resolve_record(mee.geometry, 5, 40)
        path = mee.geometry.ancestors_of_counter(5)
        assert record[5] == path
        assert [node for node, _, _ in record[4]] == path


class TestCrash:
    def test_crash_empties_volatile_structures(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        mee.crash()
        assert mee.mdcache.occupancy() == 0
        assert mee.stats.get("crashes") == 1
