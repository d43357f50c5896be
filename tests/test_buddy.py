"""The binary buddy allocator: splits, coalescing, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.os.buddy import BuddyAllocator, FreeChunk
from repro.util.rng import make_rng


@pytest.fixture
def allocator():
    return BuddyAllocator(total_pages=1024, max_order=5)


class TestAllocation:
    def test_order0_allocation(self, allocator):
        pfn = allocator.alloc_pages(0)
        assert 0 <= pfn < 1024
        assert allocator.free_pages_total() == 1023

    def test_alloc_splits_higher_orders(self, allocator):
        # Seeded with order-5 chunks only; an order-0 request forces a
        # chain of splits whose buddies land on the lower lists.
        allocator.alloc_pages(0)
        for order in range(5):
            assert len(allocator.free_area[order]) == 1

    def test_order_alignment(self, allocator):
        pfn = allocator.alloc_pages(3)
        assert pfn % 8 == 0

    def test_out_of_range_order(self, allocator):
        with pytest.raises(AllocationError):
            allocator.alloc_pages(6)

    def test_exhaustion_raises(self):
        allocator = BuddyAllocator(total_pages=4, max_order=2)
        allocator.alloc_pages(2)
        with pytest.raises(AllocationError):
            allocator.alloc_pages(0)

    def test_distinct_allocations_never_overlap(self, allocator):
        seen = set()
        for _ in range(64):
            pfn = allocator.alloc_pages(1)
            span = {pfn, pfn + 1}
            assert not span & seen
            seen |= span


class TestFree:
    def test_free_restores_capacity(self, allocator):
        pfn = allocator.alloc_pages(0)
        allocator.free_pages(pfn, 0)
        assert allocator.free_pages_total() == 1024

    def test_buddies_coalesce_back_to_max_order(self, allocator):
        pfn = allocator.alloc_pages(0)
        allocator.free_pages(pfn, 0)
        # Everything coalesced: only max-order chunks remain.
        assert all(not allocator.free_area[o] for o in range(5))
        assert len(allocator.free_area[5]) == 32

    def test_no_coalesce_while_buddy_held(self, allocator):
        a = allocator.alloc_pages(0)
        b = allocator.alloc_pages(0)
        allocator.free_pages(a, 0)
        # b (its buddy) is still held: the page stays at order 0.
        assert a in allocator.free_area[0]
        allocator.free_pages(b, 0)

    def test_misaligned_free_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.free_pages(3, 2)

    def test_out_of_range_free_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.free_pages(4096, 0)


class TestConstruction:
    def test_non_power_total_rejected(self):
        with pytest.raises(AllocationError):
            BuddyAllocator(total_pages=1000)

    def test_max_order_bounded_by_total(self):
        with pytest.raises(AllocationError):
            BuddyAllocator(total_pages=4, max_order=3)

    def test_freshly_built_is_fully_free(self, allocator):
        assert allocator.free_pages_total() == 1024


class TestInstructionAccounting:
    def test_allocations_cost_instructions(self, allocator):
        before = allocator.instructions()
        allocator.alloc_pages(0)
        assert allocator.instructions() > before

    def test_counters_track_events(self, allocator):
        pfn = allocator.alloc_pages(0)
        allocator.free_pages(pfn, 0)
        assert allocator.stats.get("allocations") == 1
        assert allocator.stats.get("frees") == 1


class TestAging:
    def test_scatter_produces_shuffled_free_pages(self, allocator):
        produced = allocator.scatter(make_rng(7), span_chunks=4)
        assert produced == 64  # half of 4 * 32 pages (even frames)
        head = [allocator.alloc_pages(0) for _ in range(16)]
        assert head != sorted(head)  # no longer contiguous
        assert all(pfn % 2 == 0 for pfn in head)

    @pytest.mark.parametrize(
        "total_pages, max_order, span_chunks, seed",
        [
            (1024, 5, 4, 7),
            (1024, 5, 13, 3),
            (1024, 5, 32, 1),  # the whole of memory
            (1024, 5, 40, 2),  # more than memory: alloc fails mid-span
            (4096, 10, 3, 11),
            (256, 0, 40, 5),  # single-page chunks: no coalesce check
            (256, 0, 300, 9),  # ... and more of them than memory holds
        ],
    )
    def test_bulk_scatter_matches_per_page_frees(
        self, total_pages, max_order, span_chunks, seed
    ):
        def per_page_scatter(allocator, rng):
            frames = []
            for _ in range(span_chunks):
                try:
                    base = allocator.alloc_pages(allocator.max_order)
                except AllocationError:
                    break
                frames.extend(range(base, base + (1 << allocator.max_order)))
            even_frames = [pfn for pfn in frames if pfn % 2 == 0]
            rng.shuffle(even_frames)
            for pfn in even_frames:
                allocator.free_pages(pfn, 0)
            allocator.stats.add("scatter_pages", len(even_frames))
            return len(even_frames)

        bulk = BuddyAllocator(total_pages, max_order=max_order)
        reference = BuddyAllocator(total_pages, max_order=max_order)
        for allocator in (bulk, reference):
            # Start from an already-used allocator: lower lists non-empty.
            for order in (0, max_order, 0):
                allocator.alloc_pages(order)
        produced = bulk.scatter(make_rng(seed), span_chunks=span_chunks)
        assert produced == per_page_scatter(reference, make_rng(seed))
        assert produced > 0
        for order in range(max_order + 1):
            assert list(bulk.free_area[order]) == list(reference.free_area[order])
            assert list(bulk._free_set[order]) == list(reference._free_set[order])
        assert bulk.stats.snapshot() == reference.stats.snapshot()
        assert bulk.instructions() == reference.instructions()
        assert bulk.stats.get("frees") == reference.stats.get("frees") == produced
        assert bulk.stats.get("scatter_pages") == produced
        # Both keep allocating the same frames afterwards.
        assert [bulk.alloc_pages(0) for _ in range(8)] == [
            reference.alloc_pages(0) for _ in range(8)
        ]

    def test_fragment_keeps_allocator_usable(self, allocator):
        allocator.fragment(make_rng(7), churn_allocations=64)
        pfn = allocator.alloc_pages(0)
        assert 0 <= pfn < 1024

    def test_free_chunks_view(self, allocator):
        chunks = allocator.free_chunks()
        assert set(chunks) == {FreeChunk(pfn, 5) for pfn in range(0, 1024, 32)}
        assert chunks[0].pages == 32


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(st.integers(min_value=0, max_value=3), max_size=120),
)
def test_conservation_under_random_alloc_free(ops):
    """Total pages (free + held) is invariant; frees always coalesce to
    a state from which everything can be reallocated."""
    allocator = BuddyAllocator(total_pages=256, max_order=4)
    held = []
    for op in ops:
        if op == 0 and held:
            pfn, order = held.pop()
            allocator.free_pages(pfn, order)
        else:
            order = op % 3
            try:
                held.append((allocator.alloc_pages(order), order))
            except AllocationError:
                pass
        held_pages = sum(1 << order for _, order in held)
        assert allocator.free_pages_total() + held_pages == 256
    for pfn, order in held:
        allocator.free_pages(pfn, order)
    assert allocator.free_pages_total() == 256
    # Fully coalesced again: one max-order chunk per 16 pages.
    assert len(allocator.free_area[4]) == 16
