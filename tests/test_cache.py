"""Generic set-associative cache: LRU, dirty bits, eviction, crash."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache, build_cache
from repro.errors import CacheError


@pytest.fixture
def tiny():
    """Direct-control cache: 2 sets x 2 ways, identity set mapping."""
    return SetAssociativeCache(2, 2, name="tiny", set_of=lambda key: key)


class TestLookupInsert:
    def test_miss_then_hit(self, tiny):
        assert not tiny.lookup(0)
        tiny.insert(0)
        assert tiny.lookup(0)

    def test_insert_returns_victim_when_full(self, tiny):
        tiny.insert(0)  # set 0
        tiny.insert(2)  # set 0
        victim = tiny.insert(4)  # set 0 again: evicts LRU (0)
        assert victim is not None
        assert victim.key == 0

    def test_lru_order_respects_recency(self, tiny):
        tiny.insert(0)
        tiny.insert(2)
        tiny.lookup(0)  # 0 becomes MRU; 2 is now LRU
        victim = tiny.insert(4)
        assert victim.key == 2

    def test_reinsert_refreshes_without_eviction(self, tiny):
        tiny.insert(0)
        tiny.insert(2)
        assert tiny.insert(0) is None

    def test_contains_has_no_side_effects(self, tiny):
        tiny.insert(0)
        tiny.insert(2)
        tiny.contains(0)  # must NOT refresh recency
        victim = tiny.insert(4)
        assert victim.key == 0

    def test_sets_isolate(self, tiny):
        tiny.insert(0)
        tiny.insert(2)
        victim = tiny.insert(1)  # set 1: no eviction
        assert victim is None


class TestDirtyBits:
    def test_insert_dirty(self, tiny):
        tiny.insert(0, dirty=True)
        assert tiny.is_dirty(0)

    def test_mark_and_clean(self, tiny):
        tiny.insert(0)
        tiny.mark_dirty(0)
        assert tiny.is_dirty(0)
        tiny.clean(0)
        assert not tiny.is_dirty(0)

    def test_mark_dirty_missing_raises(self, tiny):
        with pytest.raises(CacheError):
            tiny.mark_dirty(99)

    def test_reinsert_never_cleans(self, tiny):
        tiny.insert(0, dirty=True)
        tiny.insert(0, dirty=False)
        assert tiny.is_dirty(0)

    def test_eviction_reports_dirtiness(self, tiny):
        tiny.insert(0, dirty=True)
        tiny.insert(2)
        victim = tiny.insert(4)
        assert victim.key == 0 and victim.dirty

    def test_dirty_lines_iterator(self, tiny):
        tiny.insert(0, dirty=True)
        tiny.insert(1)
        assert [line.key for line in tiny.dirty_lines()] == [0]


class TestInvalidateAndDrop:
    def test_invalidate(self, tiny):
        tiny.insert(0, dirty=True)
        evicted = tiny.invalidate(0)
        assert evicted.dirty
        assert not tiny.contains(0)

    def test_invalidate_missing_returns_none(self, tiny):
        assert tiny.invalidate(5) is None

    def test_drop_all_models_power_loss(self, tiny):
        tiny.insert(0, dirty=True)
        tiny.insert(1)
        dropped = tiny.drop_all()
        assert len(dropped) == 2
        assert tiny.occupancy() == 0


class TestStats:
    def test_hit_rate(self, tiny):
        tiny.lookup(0)  # miss
        tiny.insert(0)
        tiny.lookup(0)  # hit
        assert tiny.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_empty_is_zero(self, tiny):
        assert tiny.hit_rate() == 0.0


class TestBuildCache:
    def test_sizes_from_capacity(self):
        cache = build_cache(64 * 1024, 64, 8, name="md")
        assert cache.num_sets == 128
        assert cache.capacity_lines == 1024

    def test_rejects_uneven_division(self):
        with pytest.raises(CacheError):
            build_cache(64 * 1024, 64, 3, name="bad")

    def test_rejects_non_power_sets(self):
        with pytest.raises(CacheError):
            SetAssociativeCache(3, 2)

    def test_tuple_and_string_keys_work(self):
        cache = build_cache(4096, 64, 4, name="k")
        cache.insert(("node", 3, 7))
        cache.insert("stringkey")
        assert cache.contains(("node", 3, 7))
        assert cache.contains("stringkey")

    def test_unsupported_key_type_raises(self):
        cache = build_cache(4096, 64, 4, name="k")
        with pytest.raises(CacheError):
            cache.insert(3.14)


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
                  st.integers(min_value=0, max_value=63)),
        max_size=200,
    )
)
def test_cache_invariants_under_random_ops(operations):
    """Occupancy never exceeds capacity; a set never holds duplicates;
    every inserted key is either resident or was evicted/invalidated."""
    cache = SetAssociativeCache(4, 2, set_of=lambda key: key)
    for op, key in operations:
        if op == "insert":
            cache.insert(key, dirty=key % 2 == 0)
        elif op == "lookup":
            cache.lookup(key)
        else:
            cache.invalidate(key)
        assert cache.occupancy() <= cache.capacity_lines
        keys = [line.key for line in cache.lines()]
        assert len(keys) == len(set(keys))
        for bucket in cache._sets:
            assert len(bucket) <= cache.associativity
