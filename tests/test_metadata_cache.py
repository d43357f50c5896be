"""The security metadata cache and its AMNT dirty-scan support."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache import _mix_key
from repro.cache.metadata_cache import (
    MetadataCache,
    counter_key,
    counter_mix,
    hmac_key,
    hmac_mix,
    node_key,
    node_mix,
)
from repro.config import MetadataCacheConfig


@pytest.fixture
def cache():
    return MetadataCache(MetadataCacheConfig())


class TestKeys:
    def test_key_forms(self):
        assert counter_key(5) == ("ctr", 5)
        assert node_key(3, 7) == ("node", 3, 7)
        assert hmac_key(9) == ("hmac", 9)

    def test_kinds_do_not_collide(self, cache):
        cache.insert(counter_key(1))
        assert not cache.contains(node_key(1, 1))
        assert not cache.contains(hmac_key(1))

    @given(
        index=st.integers(min_value=0, max_value=2**63),
        level=st.integers(min_value=1, max_value=63),
    )
    def test_closed_form_mixes_equal_the_reference_mixer(self, index, level):
        assert counter_mix(index) == _mix_key(counter_key(index))
        assert hmac_mix(index) == _mix_key(hmac_key(index))
        assert node_mix(level, index) == _mix_key(node_key(level, index))


class TestBasicOps:
    def test_capacity_is_1024_lines(self, cache):
        assert cache.capacity_lines() == 1024

    def test_access_latency_from_config(self, cache):
        assert cache.access_latency_cycles == 2

    def test_lookup_insert_dirty_cycle(self, cache):
        key = counter_key(3)
        assert not cache.lookup(key)
        cache.insert(key)
        cache.mark_dirty(key)
        assert cache.is_dirty(key)
        cache.clean(key)
        assert not cache.is_dirty(key)

    def test_drop_all(self, cache):
        cache.insert(counter_key(1), dirty=True)
        dropped = cache.drop_all()
        assert len(dropped) == 1
        assert cache.occupancy() == 0


class TestDirtyNodeScan:
    def test_yields_only_tree_nodes(self, cache):
        cache.insert(counter_key(1), dirty=True)
        cache.insert(hmac_key(2), dirty=True)
        cache.insert(node_key(4, 9), dirty=True)
        cache.insert(node_key(5, 2))  # clean
        assert list(cache.dirty_tree_nodes()) == [(4, 9)]

    def test_predicate_filtering(self, cache):
        cache.insert(node_key(4, 9), dirty=True)
        cache.insert(node_key(6, 1), dirty=True)
        deep = cache.dirty_nodes_matching(lambda level, index: level >= 5)
        assert deep == [(6, 1)]

    def test_empty_scan(self, cache):
        assert list(cache.dirty_tree_nodes()) == []
