"""The data-side LLC model: fills, dirty writebacks, flushes."""

import pytest

from repro.cache.hierarchy import DataCache
from repro.config import DataCacheConfig
from repro.mem.address import AddressSpace
from repro.util.units import KB, MB


@pytest.fixture
def llc():
    space = AddressSpace(capacity_bytes=64 * MB)
    # 4 kB, 2-way: tiny, so eviction tests are direct.
    return DataCache(
        DataCacheConfig(capacity_bytes=4 * KB, associativity=2), space
    )


class TestAccess:
    def test_first_touch_fills(self, llc):
        traffic = llc.access(0, is_write=False)
        assert not traffic.hit
        assert traffic.fill_block == 0
        assert traffic.writeback_blocks == ()

    def test_second_touch_hits(self, llc):
        llc.access(0, is_write=False)
        traffic = llc.access(0, is_write=False)
        assert traffic.hit
        assert traffic.fill_block is None

    def test_write_hit_marks_dirty_then_writeback_on_eviction(self, llc):
        llc.access(0, is_write=True)
        # Fill the set (set width 32 sets? identity mapping on block
        # index: conflicting blocks are 32 sets apart) until eviction.
        sets = llc._cache.num_sets
        llc.access(sets * 64, is_write=False)
        traffic = llc.access(2 * sets * 64, is_write=False)
        assert traffic.writeback_blocks == (0,)

    def test_clean_eviction_produces_no_writeback(self, llc):
        sets = llc._cache.num_sets
        llc.access(0, is_write=False)
        llc.access(sets * 64, is_write=False)
        traffic = llc.access(2 * sets * 64, is_write=False)
        assert traffic.writeback_blocks == ()

    def test_same_block_different_bytes_share_line(self, llc):
        llc.access(0, is_write=False)
        assert llc.access(63, is_write=False).hit
        assert not llc.access(64, is_write=False).hit


class TestFlush:
    def test_flush_block_clwb_semantics(self, llc):
        llc.access(0, is_write=True)
        assert llc.flush_block(0) == 0  # dirty -> memory write
        assert llc.flush_block(0) is None  # now clean

    def test_flush_block_absent_line(self, llc):
        assert llc.flush_block(4096) is None


class TestStats:
    def test_hit_rate_tracks(self, llc):
        llc.access(0, is_write=False)
        llc.access(0, is_write=False)
        assert llc.hit_rate() == pytest.approx(0.5)
