"""The on-chip security-metadata cache.

Holds encryption counter blocks, BMT integrity nodes, and data-HMAC
lines, all competing for the same 64 kB (Table 1). Keys are tagged
tuples so the three metadata kinds share sets without colliding:

* ``("ctr", counter_block_index)``
* ``("node", level, index)``
* ``("hmac", hmac_line_index)``

Beyond the generic cache operations, this class supports the dirty-bit
scan AMNT uses when the fast subtree moves: under AMNT only in-subtree
tree nodes can ever be dirty (everything else is written through), so
scanning the dirty bits yields exactly the nodes to flush (§4.2).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from repro.cache.cache import (
    EvictedLine,
    SetAssociativeCache,
    build_cache,
    fold_prefix,
    mix_after,
)
from repro.config import MetadataCacheConfig

#: Metadata cache key forms.
CounterKey = Tuple[str, int]
NodeKey = Tuple[str, int, int]
HmacKey = Tuple[str, int]


def counter_key(counter_block_index: int) -> CounterKey:
    return ("ctr", counter_block_index)


def node_key(level: int, index: int) -> NodeKey:
    return ("node", level, index)


def hmac_key(hmac_line_index: int) -> HmacKey:
    return ("hmac", hmac_line_index)


# Each key form's set mix in closed form: ``mix_of(key)`` for the key
# the matching constructor above builds, from the fold state of the
# key's leading parts (per tag, and per level for nodes) computed once
# by the reference mixer itself.
_CTR_PREFIX = fold_prefix("ctr")
_HMAC_PREFIX = fold_prefix("hmac")
#: Node levels 0-63, deeper than any tree a 64-bit address space holds.
_NODE_PREFIXES = tuple(fold_prefix("node", level) for level in range(64))


def counter_mix(counter_block_index: int) -> int:
    """``mix_of(counter_key(counter_block_index))``, in closed form."""
    return mix_after(_CTR_PREFIX, counter_block_index)


def node_mix(level: int, index: int) -> int:
    """``mix_of(node_key(level, index))``, in closed form."""
    return mix_after(_NODE_PREFIXES[level], index)


def hmac_mix(hmac_line_index: int) -> int:
    """``mix_of(hmac_key(hmac_line_index))``, in closed form."""
    return mix_after(_HMAC_PREFIX, hmac_line_index)


class MetadataCache:
    """Unified security-metadata cache with typed key helpers.

    Each set of the inner cache maps a key to its set value. For a
    solo engine that value is the line's dirty bool (see
    :mod:`repro.cache.cache`). A :class:`~repro.core.mee.ReplayGroup`
    holds its members' shared residency in a cache of its own, whose
    set value is a member mask: bit *i* is member *i*'s dirty bit. The
    MEE's event loop and persist path work on those sets directly:
    every key they touch comes with its set mix from the event record
    or the interned node triple, and the inner cache uses default
    placement (``set_of=None``), so a probe, a dirtying reference and a
    persist's clean are each one dict operation on the set ``mix &
    (num_sets - 1)``.
    """

    def __init__(self, config: MetadataCacheConfig, name: str = "mdcache") -> None:
        self.config = config
        self._cache = build_cache(
            config.capacity_bytes,
            config.line_bytes,
            config.associativity,
            name=name,
        )
        # Delegation — the protocols drive the cache through these. The
        # hot operations are bound straight through to the inner cache
        # (one attribute lookup instead of a wrapper frame per call;
        # several of them run multiple times per simulated access).
        inner = self._cache
        self.lookup = inner.lookup
        self.contains = inner.contains
        self.insert = inner.insert
        self.mark_dirty = inner.mark_dirty
        self.clean = inner.clean
        self.is_dirty = inner.is_dirty
        self.invalidate = inner.invalidate

    @property
    def stats(self):
        return self._cache.stats

    @property
    def access_latency_cycles(self) -> int:
        return self.config.access_latency_cycles

    def drop_all(self) -> List[EvictedLine]:
        return self._cache.drop_all()

    def hit_rate(self) -> float:
        return self._cache.hit_rate()

    def occupancy(self) -> int:
        return self._cache.occupancy()

    def capacity_lines(self) -> int:
        return self._cache.capacity_lines

    # -- AMNT support: the subtree-movement dirty scan -------------------

    def dirty_tree_nodes(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(level, index)`` of every dirty BMT node line."""
        for line in self._cache.dirty_lines():
            key = line.key
            if isinstance(key, tuple) and key[0] == "node":
                yield (key[1], key[2])

    def dirty_nodes_matching(
        self, predicate: Callable[[int, int], bool]
    ) -> List[Tuple[int, int]]:
        """Dirty node lines satisfying ``predicate(level, index)``.

        AMNT passes a subtree-membership predicate here on movement.
        """
        return [
            (level, index)
            for level, index in self.dirty_tree_nodes()
            if predicate(level, index)
        ]
