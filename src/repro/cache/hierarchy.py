"""Data-side cache model in front of the memory encryption engine.

The paper's protocols act on *memory traffic* — LLC fills and dirty
writebacks — not on every CPU reference, so the simulator only needs
the filter that turns a reference stream into that traffic. We model
the last-level cache faithfully (set-associative, write-allocate,
write-back) and fold the upper levels into a per-access hit latency;
with the intentionally small caches the paper configures, LLC behaviour
dominates the interesting effects.

:class:`DataCache` converts each CPU read/write into a
:class:`MemoryTraffic` record telling the caller which block fills and
which dirty victims write back this access. The simulator's per-trace
walk (``repro.sim.engine._boundary_events``) runs the same probe
inline over the cache's sets and counters.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.cache.cache import build_cache
from repro.config import DataCacheConfig
from repro.mem.address import AddressSpace


class MemoryTraffic(NamedTuple):
    """Memory-side consequences of one CPU reference.

    ``fill_block`` is the block index fetched from memory (``None`` on
    a cache hit); ``writeback_blocks`` are dirty victim block indices
    that must be written to memory this access; ``hit`` records whether
    the reference itself hit in the cache.

    A named tuple rather than a dataclass: one is built per LLC miss,
    and tuple construction and field access run at C speed.
    """

    hit: bool
    fill_block: Optional[int] = None
    writeback_blocks: tuple = ()


#: Hits vastly outnumber misses and carry no per-access state, so every
#: hit returns this one immutable record instead of a fresh allocation.
_HIT = MemoryTraffic(hit=True)


class DataCache:
    """Write-back, write-allocate LLC over physical block indices."""

    def __init__(
        self,
        config: DataCacheConfig,
        address_space: AddressSpace,
        name: str = "llc",
    ) -> None:
        self.config = config
        self.address_space = address_space
        # Block index low bits give natural set interleaving for data.
        self._cache = build_cache(
            config.capacity_bytes,
            config.line_bytes,
            config.associativity,
            name=name,
            set_of=lambda key: key,  # keys are block indices
        )
        # Hot path: per-access bound-method resolution hoisted out, plus
        # the pieces :meth:`access` needs to run the whole reference as
        # straight-line code — address decode (shift + bounds check) and
        # the set array of the underlying cache, indexed directly because
        # the LLC's set function is the identity over block indices.
        self._block_index = address_space.block_index
        self._block_shift = address_space._block_shift
        self._capacity = address_space.capacity_bytes
        self._sets = self._cache._sets
        self._set_mask = self._cache.num_sets - 1
        self._assoc = self._cache.associativity
        self._hits = self._cache._hits
        self._misses = self._cache._misses
        self._fills = self._cache._fills
        self._evictions = self._cache._evictions
        self._dirty_evictions = self._cache._dirty_evictions

    @property
    def stats(self):
        return self._cache.stats

    def access(self, addr: int, is_write: bool) -> MemoryTraffic:
        """Run one CPU reference; returns resulting memory traffic.

        This is the fused equivalent of ``lookup`` + ``mark_dirty`` /
        ``insert`` on the underlying cache — identical counters, LRU
        transitions, and victim selection. The simulator's data-side
        walk (``repro.sim.engine._boundary_events``) runs a transcription
        of this body inline, once per trace record; a change here must
        be mirrored there (``tests/test_boundary_walk.py`` compares the
        two).
        """
        if 0 <= addr < self._capacity:
            block = addr >> self._block_shift
        else:
            block = self._block_index(addr)  # raises AddressError
        bucket = self._sets[block & self._set_mask]
        if block in bucket:
            if is_write:
                bucket[block] = True
            bucket.move_to_end(block)
            self._hits.value += 1
            return _HIT
        self._misses.value += 1
        writebacks = ()
        if len(bucket) >= self._assoc:
            victim, dirty = bucket.popitem(last=False)
            self._evictions.value += 1
            if dirty:
                self._dirty_evictions.value += 1
                writebacks = (victim,)
        bucket[block] = bool(is_write)
        self._fills.value += 1
        return MemoryTraffic(
            hit=False,
            fill_block=block,
            writeback_blocks=writebacks,
        )

    def flush_block(self, addr: int) -> Optional[int]:
        """CLWB-style single-line flush; returns the block if it was
        dirty (and therefore produced a memory write)."""
        block = self._block_index(addr)
        if self._cache.is_dirty(block):
            self._cache.clean(block)
            return block
        return None

    def hit_rate(self) -> float:
        return self._cache.hit_rate()

    def occupancy(self) -> int:
        return self._cache.occupancy()
