"""Binary buddy physical page allocator (the paper's Section 5).

Faithful to the Linux structure the paper modifies: a ``free_area``
array of per-order free lists, where the list at index *i* holds chunks
of ``2**i`` contiguous pages. Allocation pops the head of the matching
list, splitting a higher-order chunk when the list is empty; freeing
coalesces a chunk with its buddy (address XOR of the order bit) as far
as possible and pushes the result on the head of its list.

Every list operation increments an *instruction* counter with a small
per-operation cost model, so the AMNT++ restructuring pass (which scans
and reorders these lists) can be charged against the stock allocator —
that ratio is Table 2's instruction-overhead column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import AllocationError
from repro.util.bitops import ilog2, is_power_of_two
from repro.util.stats import StatRegistry

#: Modeled instruction costs of allocator primitives. Absolute values
#: are rough (list surgery is a handful of loads/stores in Linux); only
#: the *ratio* between stock work and restructuring work matters.
INSTRUCTIONS_PER_LIST_OP = 6
INSTRUCTIONS_PER_SPLIT = 10
INSTRUCTIONS_PER_COALESCE_CHECK = 4
INSTRUCTIONS_PER_SCAN_STEP = 2


@dataclass(frozen=True)
class FreeChunk:
    """A free chunk: ``2**order`` pages starting at frame ``pfn``."""

    pfn: int
    order: int

    @property
    def pages(self) -> int:
        return 1 << self.order


class BuddyAllocator:
    """Binary buddy allocator over ``total_pages`` physical frames."""

    def __init__(self, total_pages: int, max_order: int = 10) -> None:
        if not is_power_of_two(total_pages):
            raise AllocationError(
                f"total_pages must be a power of two, got {total_pages}"
            )
        if max_order < 0 or (1 << max_order) > total_pages:
            raise AllocationError(f"max_order {max_order} too large")
        self.total_pages = total_pages
        self.max_order = max_order
        self.stats = StatRegistry("buddy")
        # List surgery runs on every page fault and churn burst:
        # pre-resolve the counters the accounting below bumps.
        self._instr = self.stats.counter("instructions")
        self._ctr_allocs = self.stats.counter("allocations")
        self._ctr_frees = self.stats.counter("frees")
        #: free_area[i] — deque of pfns of free chunks of order i.
        #: Head (index 0) is the allocation point, like the list head
        #: Linux pops from.
        self.free_area: List[Deque[int]] = [deque() for _ in range(max_order + 1)]
        #: Fast membership checks during coalescing.
        self._free_set: List[Dict[int, None]] = [{} for _ in range(max_order + 1)]
        # Seed the allocator with max-order chunks covering everything.
        chunk_pages = 1 << max_order
        for pfn in range(0, total_pages, chunk_pages):
            self._push(pfn, max_order)

    # -- internal list surgery (instruction-accounted) --------------------

    def _charge(self, instructions: int) -> None:
        self._instr.value += instructions

    def _push(self, pfn: int, order: int, to_head: bool = True) -> None:
        if to_head:
            self.free_area[order].appendleft(pfn)
        else:
            self.free_area[order].append(pfn)
        self._free_set[order][pfn] = None
        self._charge(INSTRUCTIONS_PER_LIST_OP)

    def _pop_head(self, order: int) -> int:
        pfn = self.free_area[order].popleft()
        del self._free_set[order][pfn]
        self._charge(INSTRUCTIONS_PER_LIST_OP)
        return pfn

    def _remove(self, pfn: int, order: int) -> None:
        self.free_area[order].remove(pfn)
        del self._free_set[order][pfn]
        self._charge(INSTRUCTIONS_PER_LIST_OP)

    def _is_free(self, pfn: int, order: int) -> bool:
        self._charge(INSTRUCTIONS_PER_COALESCE_CHECK)
        return pfn in self._free_set[order]

    # -- public API ---------------------------------------------------------

    def alloc_pages(self, order: int = 0) -> int:
        """Allocate ``2**order`` contiguous pages; returns the base pfn.

        Pops the head of the order's free list; on an empty list, walks
        up to the first non-empty order and splits down, pushing each
        unused half ("buddy") onto the head of its list — exactly the
        Linux fast path the paper leaves untouched.
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} outside [0, {self.max_order}]")
        search = order
        while search <= self.max_order and not self.free_area[search]:
            self._charge(INSTRUCTIONS_PER_SCAN_STEP)
            search += 1
        if search > self.max_order:
            raise AllocationError(
                f"out of memory: no free chunk of order >= {order}"
            )
        pfn = self._pop_head(search)
        while search > order:
            search -= 1
            buddy = pfn + (1 << search)
            self._push(buddy, search)
            self._charge(INSTRUCTIONS_PER_SPLIT)
        self._ctr_allocs.value += 1
        return pfn

    def free_pages(self, pfn: int, order: int = 0) -> None:
        """Return a chunk, coalescing with free buddies upward."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} outside [0, {self.max_order}]")
        if pfn % (1 << order):
            raise AllocationError(f"pfn {pfn} misaligned for order {order}")
        if not 0 <= pfn < self.total_pages:
            raise AllocationError(f"pfn {pfn} out of range")
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if not self._is_free(buddy, order):
                break
            self._remove(buddy, order)
            pfn = min(pfn, buddy)
            order += 1
        self._push(pfn, order)
        self._ctr_frees.value += 1

    # -- introspection ----------------------------------------------------

    def free_pages_total(self) -> int:
        return sum(
            len(chunks) << order for order, chunks in enumerate(self.free_area)
        )

    def free_chunks(self) -> List[FreeChunk]:
        chunks = []
        for order, pfns in enumerate(self.free_area):
            chunks.extend(FreeChunk(pfn, order) for pfn in pfns)
        return chunks

    def instructions(self) -> int:
        return self.stats.get("instructions")

    def scatter(self, rng, span_chunks: int = 64) -> int:
        """Heavily age a span of physical memory for multiprogram runs.

        Carves ``span_chunks`` max-order chunks into individual pages,
        keeps the odd-numbered frames "in use" (so no coalescing can
        reassemble contiguity), and frees the even-numbered frames back
        in shuffled order. Subsequent order-0 allocations then come from
        a randomized pool spanning ``span_chunks * 2**max_order`` pages —
        the fragmented steady state in which two co-running programs'
        pages interleave across subtree regions (Figure 3b's setting).

        The frees are applied in bulk, with the lists, the instruction
        count and ``frees`` exactly as one :meth:`free_pages` per frame
        in shuffled order would leave them: every even frame's buddy is
        the odd frame next to it, which stays allocated, so each free is
        one failed coalesce check (none at ``max_order == 0``) and a
        push on the head of the order-0 list.

        Returns the number of free scattered pages produced.
        """
        chunk_pages = 1 << self.max_order
        even_frames: List[int] = []
        for _ in range(span_chunks):
            try:
                base = self.alloc_pages(self.max_order)
            except AllocationError:
                break
            # Chunks are aligned, so only a single-page chunk (order 0)
            # can start on an odd frame.
            even_frames.extend(range(base + (base & 1), base + chunk_pages, 2))
        rng.shuffle(even_frames)
        self.free_area[0].extendleft(even_frames)
        self._free_set[0].update(dict.fromkeys(even_frames))
        per_free = INSTRUCTIONS_PER_LIST_OP
        if self.max_order:
            per_free += INSTRUCTIONS_PER_COALESCE_CHECK
        self._charge(per_free * len(even_frames))
        self._ctr_frees.value += len(even_frames)
        self.stats.add("scatter_pages", len(even_frames))
        return len(even_frames)

    def fragment(self, rng, churn_allocations: int = 256) -> None:
        """Age the allocator: random alloc/free churn so free lists no
        longer hand out neatly contiguous memory — the "random pages
        reclaimed by the OS over time" the paper cites as the obstacle
        to cross-page locality."""
        held: List[FreeChunk] = []
        for _ in range(churn_allocations):
            order = rng.choice((0, 0, 0, 1, 1, 2, 3))
            try:
                pfn = self.alloc_pages(order)
            except AllocationError:
                break
            held.append(FreeChunk(pfn, order))
        rng.shuffle(held)
        # Free back roughly two-thirds, keeping the rest "in use" so the
        # lists stay scrambled.
        for chunk in held[: (2 * len(held)) // 3]:
            self.free_pages(chunk.pfn, chunk.order)
