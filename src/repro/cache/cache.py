"""A generic set-associative cache with LRU replacement and dirty bits.

Keys are arbitrary hashable line identifiers — physical block indices
for data caches; ``("ctr", i)`` / ``("node", level, i)`` style tuples
for the metadata cache — so one implementation serves every on-chip
structure in the simulator. Set selection uses a deterministic integer
mix of the key (never Python's randomized ``hash``), keeping runs
reproducible across processes.

The cache stores presence and state only, never payload bytes: content
lives in the NVM backend or the protocol's authoritative structures.
This mirrors how the timing simulator treats caches — as hit/miss
filters with eviction side effects.

A line's whole state is its dirty bit: each set is an ``OrderedDict``
of key -> dirty ``bool`` in LRU -> MRU order. A write hit is
``bucket[key] = True`` plus ``move_to_end``, a fill ``bucket[key] =
dirty``, a victim ``key, dirty = bucket.popitem(last=False)``, and a
persist's clean ``bucket[key] = False`` on a resident key: one dict
operation each, with no object allocated. ``DataCache.access``, the
direct path's data-side walk and the MEE's event loop run these steps
inline over ``_sets``; methods that hand lines out return
:class:`EvictedLine` snapshots. (An MEE replay group's metadata cache
stores member masks instead of bools; see
:class:`repro.cache.metadata_cache.MetadataCache`.)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, List, Optional

from repro.errors import CacheError
from repro.util.bitops import is_power_of_two
from repro.util.stats import StatRegistry

Key = Hashable


_MASK64 = 0xFFFFFFFFFFFFFFFF
#: The tuple fold's seed and multiplier (see _fold).
_FOLD_SEED = 0x9E3779B97F4A7C15
_FOLD_PRIME = 0x100000001B3


def _avalanche(value: int) -> int:
    """Final mix so low bits depend on high bits."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    return value


#: Mixed values of non-int key *parts* (the ``"ctr"``/``"node"``/
#: ``"hmac"`` tag strings, in practice). The original recursive mixer
#: re-hashed the tag string character by character for every distinct
#: tuple key — 67k calls with 2x primitive-call amplification in a
#: cProfile of one canneal cell. Memoizing the handful of distinct parts turns a
#: tuple mix into pure integer folds.
_PART_MIX_MEMO: dict = {}


def _fold(parts: tuple) -> int:
    """The fold :func:`_mix_key` applies to a tuple key's parts before
    its avalanche, taken mod 2^64 (multiplication and xor commute with
    the reduction, so only the low 64 bits ever matter)."""
    value = _FOLD_SEED
    for part in parts:
        if isinstance(part, int):
            piece = part
        else:
            piece = _PART_MIX_MEMO.get(part)
            if piece is None:
                piece = _mix_key(part)
                _PART_MIX_MEMO[part] = piece
        value = ((value * _FOLD_PRIME) ^ piece) & _MASK64
    return value


def _mix_key(key: Key) -> int:
    """Deterministically fold a key into an integer for set indexing.

    Iterative over tuple parts with memo-backed sub-mixes; produces
    exactly the values the original recursive form did (set placement
    is behaviour — evictions depend on it — so the math must not move).
    This is the reference definition: :func:`fold_prefix` and
    :func:`mix_after` give its value for a tuple key in closed form.
    """
    if isinstance(key, int):
        return _avalanche(key)
    if isinstance(key, tuple):
        return _avalanche(_fold(key))
    if isinstance(key, str):
        value = 0xCBF29CE484222325
        for char in key:
            value = ((value ^ ord(char)) * 0x100000001B3) & _MASK64
        return _avalanche(value)
    raise CacheError(f"unsupported cache key type: {type(key).__name__}")


def fold_prefix(*parts) -> int:
    """The fold state after a tuple key's leading ``parts``, carried
    into the multiply of its next part: ``mix_after(fold_prefix(*parts),
    last) == _mix_key(parts + (last,))`` for any int ``last``."""
    return (_fold(parts) * _FOLD_PRIME) & _MASK64


def mix_after(prefix: int, last: int) -> int:
    """:func:`_mix_key` of a tuple key in closed form: the last fold
    step, xor of the int ``last`` into ``prefix`` (see
    :func:`fold_prefix`), then the avalanche."""
    return _avalanche(prefix ^ last)


#: Process-wide memo of the (pure) key mix, for the keys a cache's own
#: methods place. The MEE's records and node triples take the metadata
#: keys' mixes in closed form instead
#: (:func:`repro.cache.metadata_cache.counter_mix` and its siblings),
#: so their keys never enter it.
_MIX_MEMO: dict = {}


def mix_of(key: Key) -> int:
    """The memoized deterministic mix of ``key``.

    Under the default (``set_of=None``) placement a key's set is
    ``mix_of(key) & (num_sets - 1)``.
    """
    mixed = _MIX_MEMO.get(key)
    if mixed is None:
        mixed = _mix_key(key)
        _MIX_MEMO[key] = mixed
    return mixed


@dataclass(frozen=True, slots=True)
class EvictedLine:
    """A snapshot of one line's state: an eviction, or a resident line
    handed to the caller."""

    key: Key
    dirty: bool


class SetAssociativeCache:
    """LRU set-associative cache tracking presence and dirtiness."""

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        name: str = "cache",
        set_of: Optional[Callable[[Key], int]] = None,
    ) -> None:
        if not is_power_of_two(num_sets):
            raise CacheError(f"num_sets must be a power of two, got {num_sets}")
        if associativity <= 0:
            raise CacheError(f"associativity must be positive, got {associativity}")
        self.num_sets = num_sets
        self.associativity = associativity
        self.name = name
        self._set_of = set_of
        self.stats = StatRegistry(name)
        # Each set maps key -> dirty bit; iteration order == LRU -> MRU.
        self._sets: List["OrderedDict[Key, bool]"] = [
            OrderedDict() for _ in range(num_sets)
        ]
        # Hot-loop counters.
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")
        self._dirty_evictions = self.stats.counter("dirty_evictions")
        self._set_mask = num_sets - 1

    # -- placement -------------------------------------------------------

    def _index(self, key: Key) -> int:
        if self._set_of is not None:
            return self._set_of(key) & self._set_mask
        return mix_of(key) & self._set_mask

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.associativity

    # -- core operations ---------------------------------------------------

    def lookup(self, key: Key) -> bool:
        """Probe for ``key``; a hit refreshes its recency."""
        bucket = self._sets[self._index(key)]
        if key not in bucket:
            self._misses.value += 1
            return False
        bucket.move_to_end(key)
        self._hits.value += 1
        return True

    def contains(self, key: Key) -> bool:
        """Presence check with no recency or stats side effects."""
        return key in self._sets[self._index(key)]

    def insert(self, key: Key, dirty: bool = False) -> Optional[EvictedLine]:
        """Fill ``key``; returns the victim if one was evicted.

        Inserting a key that is already resident refreshes recency and
        ORs in the dirty bit (it never cleans an already-dirty line).
        """
        bucket = self._sets[self._index(key)]
        if key in bucket:
            if dirty:
                bucket[key] = True
            bucket.move_to_end(key)
            return None
        victim: Optional[EvictedLine] = None
        if len(bucket) >= self.associativity:
            victim = EvictedLine(*bucket.popitem(last=False))
            self._evictions.value += 1
            if victim.dirty:
                self._dirty_evictions.value += 1
        bucket[key] = dirty
        self._fills.value += 1
        return victim

    def mark_dirty(self, key: Key) -> None:
        """Set the dirty bit on a resident line."""
        bucket = self._sets[self._index(key)]
        if key not in bucket:
            raise CacheError(f"{self.name}: mark_dirty on non-resident key {key!r}")
        bucket[key] = True

    def clean(self, key: Key) -> None:
        """Clear the dirty bit (after a writeback) if resident."""
        bucket = self._sets[self._index(key)]
        if key in bucket:
            bucket[key] = False

    def is_dirty(self, key: Key) -> bool:
        return self._sets[self._index(key)].get(key, False)

    def invalidate(self, key: Key) -> Optional[EvictedLine]:
        """Remove ``key`` if present; returns its final state."""
        dirty = self._sets[self._index(key)].pop(key, None)
        return None if dirty is None else EvictedLine(key, dirty)

    # -- bulk operations ---------------------------------------------------

    def lines(self) -> Iterator[EvictedLine]:
        """Snapshots of all resident lines (LRU to MRU within each set)."""
        for bucket in self._sets:
            for key, dirty in bucket.items():
                yield EvictedLine(key, dirty)

    def dirty_lines(self) -> Iterator[EvictedLine]:
        for bucket in self._sets:
            for key, dirty in bucket.items():
                if dirty:
                    yield EvictedLine(key, True)

    def drop_all(self) -> List[EvictedLine]:
        """Volatile loss: discard every line (crash modeling).

        Dirty contents are *not* written back — that is the point.
        """
        dropped = list(self.lines())
        for bucket in self._sets:
            bucket.clear()
        return dropped

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    # -- metrics -------------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, sets={self.num_sets}, "
            f"ways={self.associativity}, occupancy={self.occupancy()})"
        )


def build_cache(
    capacity_bytes: int,
    line_bytes: int,
    associativity: int,
    name: str,
    set_of: Optional[Callable[[Key], int]] = None,
) -> SetAssociativeCache:
    """Size a cache from capacity/line/ways (the usual datasheet form)."""
    lines = capacity_bytes // line_bytes
    if lines % associativity:
        raise CacheError(
            f"{name}: {lines} lines do not divide into {associativity}-way sets"
        )
    num_sets = lines // associativity
    if not is_power_of_two(num_sets):
        raise CacheError(f"{name}: set count {num_sets} is not a power of two")
    return SetAssociativeCache(num_sets, associativity, name=name, set_of=set_of)
