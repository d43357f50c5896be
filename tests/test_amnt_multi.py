"""Multi-subtree AMNT (the paper's rejected per-core alternative)."""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import CrashInjector
from repro.mem.backend import MetadataRegion
from repro.util.units import GB, MB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, functional=False):
    return MemoryEncryptionEngine(
        config, make_protocol("amnt-multi", config), functional=functional
    )


def region_page(mee, region):
    """First page index inside a given level-3 region."""
    return region * mee.geometry.counters_covered_by(3)


def settle(mee, regions):
    """Spread one selection interval's writes across ``regions``."""
    interval = mee.config.amnt.movement_interval_writes
    for i in range(interval):
        region = regions[i % len(regions)]
        mee.write_block(region_page(mee, region) * 4096)


class TestFastSet:
    def test_adopts_multiple_regions(self, config):
        mee = engine_for(config)
        settle(mee, [0, 1, 2])
        assert set(mee.protocol.active_regions) == {0, 1, 2}

    def test_fast_set_bounded_by_configured_subtrees(self, config):
        mee = engine_for(config)
        settle(mee, [0, 1, 2, 3, 5, 7])  # more regions than slots
        assert len(mee.protocol.active_regions) <= config.amnt.multi_subtrees

    def test_each_active_region_gets_leaf_persistence(self, config):
        mee = engine_for(config)
        settle(mee, [0, 1])
        tree_persists = mee.nvm.persists(MetadataRegion.TREE)
        mee.write_block(region_page(mee, 0) * 4096)
        mee.write_block(region_page(mee, 1) * 4096)
        assert mee.nvm.persists(MetadataRegion.TREE) == tree_persists

    def test_inactive_region_stays_strict(self, config):
        mee = engine_for(config)
        settle(mee, [0, 1])
        tree_persists = mee.nvm.persists(MetadataRegion.TREE)
        mee.write_block(region_page(mee, 7) * 4096)
        assert mee.nvm.persists(MetadataRegion.TREE) > tree_persists

    def test_one_nv_register_per_subtree(self, config):
        mee = engine_for(config)
        names = mee.registers.names()
        assert "amnt_subtree_root" in names
        for slot in range(1, config.amnt.multi_subtrees):
            assert f"amnt_subtree_root_{slot}" in names

    def test_handles_multiprogram_style_split_without_os_help(self, config):
        """The design's selling point: two hot regions both go fast."""
        mee = engine_for(config)
        settle(mee, [0, 3])
        settle(mee, [0, 3])
        hits = mee.protocol.stats.get("subtree_hits")
        misses = mee.protocol.stats.get("subtree_misses")
        assert hits / (hits + misses) > 0.45


class TestRecoveryScaling:
    def test_stale_bytes_scale_with_subtree_count(self):
        config = default_config()  # 8 GB, 64 regions at level 3
        single = make_protocol("amnt", config)
        multi = make_protocol("amnt-multi", config)
        assert multi.stale_data_bytes(8 * GB) == pytest.approx(
            config.amnt.multi_subtrees * single.stale_data_bytes(8 * GB)
        )

    def test_functional_recovery_covers_all_regions(self, config):
        mee = engine_for(config, functional=True)
        payload_a = b"\x0a" * 64
        payload_b = b"\x0b" * 64
        interval = config.amnt.movement_interval_writes
        for i in range(2 * interval):
            if i % 2:
                mee.write_block(region_page(mee, 0) * 4096, data=payload_a)
            else:
                mee.write_block(region_page(mee, 2) * 4096, data=payload_b)
        assert len(mee.protocol.active_regions) >= 2
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok, outcome.detail
        assert mee.read_block_data(region_page(mee, 0) * 4096) == payload_a
        assert mee.read_block_data(region_page(mee, 2) * 4096) == payload_b


def write_intervals(mee, *intervals, count=None):
    """One selection interval of distinct-block writes per list of
    regions (``count`` writes instead when given); returns
    ``{addr: payload}``."""
    written = {}
    for regions in intervals:
        for i in range(count or mee.config.amnt.movement_interval_writes):
            region = regions[i % len(regions)]
            addr = (region_page(mee, region) + len(written)) * 4096
            written[addr] = bytes([len(written) % 251 + 1]) * 64
            mee.write_block(addr, data=written[addr])
    return written


def assert_recovers(mee, written):
    outcome = CrashInjector(mee).crash_and_recover()
    assert outcome.ok, outcome.detail
    for addr, payload in written.items():
        assert mee.read_block_data(addr) == payload


class TestRegisterSlots:
    def test_retiring_a_region_keeps_every_other_region_on_its_register(
        self, config
    ):
        """A region holds one register from adoption to retirement.

        Regions 0-3 fill the four slots; the next interval is hot on 1,
        2, 3 and 5, so its last write retires region 0 and adopts 5.
        Region 3 must still be anchored by its own register when the
        crash lands right after that write.
        """
        assert config.amnt.multi_subtrees == 4
        mee = engine_for(config, functional=True)
        written = write_intervals(mee, [0, 1, 2, 3], [1, 2, 3, 5])
        assert sorted(mee.protocol.active_regions) == [1, 2, 3, 5]
        assert_recovers(mee, written)

    def test_a_slot_left_empty_stops_anchoring_its_retired_region(
        self, config
    ):
        """Region 3 retires with no region to take its slot, then takes
        strict writes: its old register value must not be checked."""
        mee = engine_for(config, functional=True)
        written = write_intervals(mee, [0, 1, 2, 3], [1, 2])
        assert sorted(mee.protocol.active_regions) == [0, 1, 2]
        written.update(write_intervals(mee, [3], count=3))
        assert_recovers(mee, written)


class TestHardwareCostObjection:
    def test_nv_area_scales_with_subtrees(self, config):
        """The paper's reason for rejecting this design, quantified."""
        mee = engine_for(config)
        area = mee.protocol.area_overhead()
        assert area.nonvolatile_on_chip_bytes == 64 * config.amnt.multi_subtrees
        single = MemoryEncryptionEngine(config, make_protocol("amnt", config))
        assert (
            area.nonvolatile_on_chip_bytes
            > single.protocol.area_overhead().nonvolatile_on_chip_bytes
        )


class TestRecoveryCount:
    def test_shared_ancestors_are_recomputed_once(self, config):
        """Four level-3 slots repair their subtrees (73 nodes each at
        64 MB), then the union of their paths to the root once."""
        mee = engine_for(config, functional=True)
        written = write_intervals(mee, [0, 1, 2, 3])
        regions = sorted(mee.protocol.active_regions)
        assert regions == [0, 1, 2, 3]
        geometry = mee.geometry
        union = set()
        for region in regions:
            node = (3, region)
            while node[0] > 1:
                node = geometry.parent(node)
                union.add(node)
        assert union == {(2, 0), (1, 0)}
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok, outcome.detail
        assert outcome.nodes_recomputed == 4 * 73 + len(union)
        for addr, payload in written.items():
            assert mee.read_block_data(addr) == payload
