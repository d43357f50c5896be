"""SCM endurance accounting: where do the writes land?

PCM-class cells endure ~10^8 writes. A persistence protocol multiplies
device wear as well as latency: strict persistence rewrites the same
handful of upper-tree lines on *every* data write, concentrating wear
on a few metadata cells, while lazy schemes spread (and shed) that
traffic. This module tracks per-line write counts per region and turns
them into the two numbers an SCM architect asks for:

* **write amplification** — total lines written per data line written;
* **hottest-line pressure** — the maximum per-line write count relative
  to the mean, which (absent wear-leveling) bounds device lifetime.

:func:`attach_wear_tracking` gives an engine a :class:`WearTracker`
before simulation; read the report after. Without one the engine's hot
path pays an attribute test per line write and no bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mem.backend import MetadataRegion

#: Conventional PCM cell endurance (writes) used for lifetime math.
DEFAULT_CELL_ENDURANCE = 10**8


@dataclass
class WearReport:
    """Per-region wear summary."""

    writes_by_region: Dict[str, int]
    hottest_line_writes: int
    hottest_line: Optional[Tuple[str, object]]
    distinct_lines_written: int

    @property
    def total_writes(self) -> int:
        return sum(self.writes_by_region.values())

    def write_amplification(self) -> Optional[float]:
        """Metadata lines written per data line written."""
        data = self.writes_by_region.get("data", 0)
        if data == 0:
            return None
        return (self.total_writes - data) / data

    def mean_writes_per_line(self) -> float:
        if self.distinct_lines_written == 0:
            return 0.0
        return self.total_writes / self.distinct_lines_written

    def hotspot_factor(self) -> float:
        """Hottest line's writes over the mean — wear skew. 1.0 means
        perfectly even wear; strict persistence's upper-tree lines push
        this far above the lazy schemes'."""
        mean = self.mean_writes_per_line()
        if mean == 0:
            return 0.0
        return self.hottest_line_writes / mean

    def lifetime_fraction_consumed(
        self, endurance: int = DEFAULT_CELL_ENDURANCE
    ) -> float:
        """Share of the hottest cell's endurance this run consumed
        (no wear-leveling assumed)."""
        return self.hottest_line_writes / endurance


class WearTracker:
    """Records per-line write counts.

    Only *writes* wear PCM; reads are free. The tracker needs line
    identity, which the timing-side ``write_access`` does not carry, so
    the MEE reports at the points where line identity exists: attach one
    with :func:`attach_wear_tracking` and the engine's data writes,
    metadata persists and writebacks land here.
    """

    def __init__(self) -> None:
        self._line_writes: Dict[Tuple[str, object], int] = {}

    def record(self, region: MetadataRegion, key: object) -> None:
        identity = (region.value, key)
        self._line_writes[identity] = self._line_writes.get(identity, 0) + 1

    def record_line(self, key: tuple) -> None:
        """Account one write of a metadata-cache line: ``("ctr", i)``
        is counter line ``i``, ``("node", level, index)`` BMT node
        ``(level, index)``, ``("hmac", line)`` HMAC line ``line``."""
        kind = key[0]
        if kind == "ctr":
            self.record(MetadataRegion.COUNTERS, key[1])
        elif kind == "node":
            self.record(MetadataRegion.TREE, (key[1], key[2]))
        else:
            self.record(MetadataRegion.HMACS, key[1])

    def report(self) -> WearReport:
        by_region: Dict[str, int] = {}
        hottest = 0
        hottest_line: Optional[Tuple[str, object]] = None
        for (region, key), count in self._line_writes.items():
            by_region[region] = by_region.get(region, 0) + count
            if count > hottest:
                hottest = count
                hottest_line = (region, key)
        return WearReport(
            writes_by_region=by_region,
            hottest_line_writes=hottest,
            hottest_line=hottest_line,
            distinct_lines_written=len(self._line_writes),
        )

    def hottest_lines(self, top: int = 5) -> List[Tuple[Tuple[str, object], int]]:
        return sorted(
            self._line_writes.items(), key=lambda item: -item[1]
        )[:top]


def attach_wear_tracking(mee) -> WearTracker:
    """Track a MemoryEncryptionEngine's NVM line writes.

    Sets ``mee.wear_tracker``, through which the engine records every
    data write, metadata persist and dirty writeback — on every driver,
    direct or plan replay — and protocols with private NVM regions
    (Anubis's shadow table) theirs, so every NVM line write is
    attributed. Returns the tracker; call ``tracker.report()`` after
    simulation.
    """
    mee.wear_tracker = tracker = WearTracker()
    return tracker
