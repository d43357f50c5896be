"""Metadata-plan compilation: resolve each event's runtime record once.

The boundary stream (:mod:`repro.sim.replay`) compiles the
protocol-independent *data side* of a trace once and replays it into
every protocol. This module applies the same argument one layer down:
for a fixed trace + geometry, the metadata each boundary event touches
— the counter line, the HMAC line, and the BMT ancestor path — is
identical for every protocol and every metadata-cache size, yet the
direct MEE path re-derives it per event per replay (address decode and
a record-table probe).

:func:`compile_metadata_plan` walks a compiled
:class:`~repro.sim.replay.BoundaryStream`'s addresses exactly once per
(trace recipe, geometry) and emits a :class:`MetadataPlan`: the
per-event runtime records the MEE's event loop
(:attr:`repro.core.mee.MemoryEncryptionEngine.run_events`) consumes,
plus the counts of distinct records and ancestor paths.

Every runtime record comes from :func:`repro.core.mee.resolve_record`,
the same process-wide resolver the MEE's single-block entry points use,
so a planned replay runs the engine's one event loop on exactly the
records a direct run would build — verified across the full protocol
lineup, timing and functional, by ``tests/test_plan.py``.

What is *not* planned: fault campaigns drive single blocks through
:func:`repro.sim.engine.drive_memory_boundary` (their crash oracles need
live data-cache state and per-access probes, see
``repro.faults.campaign.run_fault_cell``). Each block still runs the
same event loop, with its record resolved on the spot.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import SystemConfig
from repro.core.mee import MACS_PER_LINE, record_key_shift, resolve_record
from repro.integrity.geometry import TreeGeometry
from repro.util.bitops import ilog2


class MetadataPlan:
    """The compiled metadata side of one boundary stream: one runtime
    record per stream event, in stream order."""

    __slots__ = ("name", "_event_records", "_num_records", "_num_paths")

    def __init__(
        self, name: str, event_records: List[tuple], num_records: int, num_paths: int
    ) -> None:
        self.name = name
        self._event_records = event_records
        self._num_records = num_records
        self._num_paths = num_paths

    def __len__(self) -> int:
        return len(self._event_records)

    def event_records(self) -> List[tuple]:
        """Per-event runtime records (see
        :func:`~repro.core.mee.resolve_record` for the tuple layout) —
        the column the planned replay zips against the stream's
        kind/addr columns."""
        return self._event_records

    def num_records(self) -> int:
        """Distinct (counter line, HMAC line) records the stream touches."""
        return self._num_records

    def num_paths(self) -> int:
        """Distinct BMT ancestor paths among the records (sibling
        counters share one)."""
        return self._num_paths

    def __repr__(self) -> str:
        return (
            f"MetadataPlan(name={self.name!r}, events={len(self)}, "
            f"records={self._num_records}, paths={self._num_paths})"
        )


def compile_metadata_plan(stream, config: SystemConfig) -> MetadataPlan:
    """Resolve the runtime record of every event in ``stream``.

    One pass over the stream's ``addr`` column. Pure address/tree
    arithmetic — identical to what the direct MEE path derives per
    event — so the plan depends only on the stream and the metadata
    geometry (block/page split, capacity, tree arity), never on the
    metadata-cache shape or the protocol: one plan serves every
    protocol replay of the stream, and a metadata-cache-only config
    change shares it (the compiled-artifact cache key in
    :mod:`repro.workloads.registry` encodes exactly that contract).
    """
    geometry = TreeGeometry.from_config(config)
    block_shift = ilog2(config.security.block_bytes)
    page_shift = ilog2(config.security.page_bytes)
    key_shift = block_shift + record_key_shift(
        config.security.page_bytes, config.security.block_bytes
    )

    #: The walk's record key (see record_key_shift) -> record: an int
    #: per event, so no ``(counter, line)`` pair is built but the first.
    records: Dict[int, tuple] = {}
    records_get = records.get
    events: List[tuple] = []
    append = events.append
    for addr in stream.addr:
        record = records_get(addr >> key_shift)
        if record is None:
            record = records[addr >> key_shift] = resolve_record(
                geometry, addr >> page_shift, (addr >> block_shift) // MACS_PER_LINE
            )
        append(record)

    # resolve_record interns records, so identity counts the distinct
    # ones whichever key the table used; sibling counters share a path.
    distinct = {id(record): record for record in records.values()}
    arity = geometry.arity
    paths = {record[6] // arity for record in distinct.values()}
    return MetadataPlan(stream.name, events, len(distinct), len(paths))
