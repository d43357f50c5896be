"""AMNT's hot-region history buffer (the paper's Section 4.2).

A small on-chip structure tracking which subtree region receives the
most data writes. It holds up to ``n`` entries of (region index,
counter); on each data write the matching entry's counter increments
(or a new entry displaces the least-counted non-head entry). The buffer
is *not* kept fully sorted — hardware only guarantees the invariant the
paper states: **the head entry always holds the maximum counter**,
maintained by a single compare-and-swap against the head on each
increment. Ties keep the incumbent at the head, avoiding gratuitous
subtree movement.

The buffer does not count its interval: the protocol counts writes
since its last selection (AMNT's ``_writes_since_selection``), and at
the end of each interval reads the head as the next subtree region and
calls :meth:`reset_interval`, zeroing every counter.

Area: each entry needs ``log2(n)`` bits of region index plus
``log2(n)`` bits of counter — ``n * 2 * log2(n)`` bits total, 768 bits
(96 bytes) for the default ``n = 64``, as reported in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.util.bitops import ilog2


@dataclass
class _Entry:
    region: int
    count: int


@dataclass
class HistoryBuffer:
    """Bounded most-frequent-region tracker with a guaranteed-max head."""

    capacity: int = 64
    _entries: List[_Entry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("history buffer needs at least two entries")

    # -- recording ---------------------------------------------------------

    def record(self, region: int) -> None:
        """Account one data write to ``region``.

        Mirrors the hardware's two steps: (1) scan for the region and
        increment (allocating, possibly displacing the least-counted
        non-head entry, when absent); (2) compare against the head and
        swap if strictly greater — ties leave the incumbent in place.
        """
        if region < 0:
            raise ValueError(f"region index must be non-negative, got {region}")
        position = self._find(region)
        if position is None:
            position = self._allocate(region)
        entry = self._entries[position]
        entry.count += 1
        if position != 0 and entry.count > self._entries[0].count:
            self._entries[0], self._entries[position] = (
                self._entries[position],
                self._entries[0],
            )

    def _find(self, region: int) -> Optional[int]:
        for position, entry in enumerate(self._entries):
            if entry.region == region:
                return position
        return None

    def _allocate(self, region: int) -> int:
        if len(self._entries) < self.capacity:
            self._entries.append(_Entry(region, 0))
            return len(self._entries) - 1
        # Displace the least-counted entry, never the head.
        victim = min(
            range(1, len(self._entries)),
            key=lambda position: self._entries[position].count,
        )
        self._entries[victim] = _Entry(region, 0)
        return victim

    # -- interval protocol -------------------------------------------------

    def head_region(self) -> Optional[int]:
        """The current most-written region (None when empty)."""
        return self._entries[0].region if self._entries else None

    def head_count(self) -> int:
        return self._entries[0].count if self._entries else 0

    def reset_interval(self, keep_region: Optional[int] = None) -> None:
        """Zero all counters and start the next tracking interval.

        ``keep_region`` (the newly selected subtree) stays as the head
        entry so ties in the next interval favour the incumbent.
        """
        self._entries.clear()
        if keep_region is not None:
            self._entries.append(_Entry(keep_region, 0))

    # -- introspection -------------------------------------------------------

    def contents(self) -> List[Tuple[int, int]]:
        """(region, count) pairs, head first — for tests and debugging."""
        return [(entry.region, entry.count) for entry in self._entries]

    def check_head_invariant(self) -> bool:
        """The property hardware maintains: head count is the maximum."""
        if not self._entries:
            return True
        head = self._entries[0].count
        return all(entry.count <= head for entry in self._entries)

    @property
    def area_bits(self) -> int:
        index_bits = ilog2(self.capacity)
        return self.capacity * 2 * index_bits
