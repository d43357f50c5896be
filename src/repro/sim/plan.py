"""Metadata-plan compilation: resolve per-event metadata addresses once.

PR 5's boundary streams (:mod:`repro.sim.replay`) compile the
protocol-independent *data side* of a trace once and replay it into
every protocol. This module applies the same argument one layer down:
for a fixed trace + geometry, the metadata lines each boundary event
touches — the counter line, the HMAC line, and the BMT ancestor path —
are identical for every protocol and every metadata-cache size, yet the
direct MEE path re-derives them per event per replay (address decode,
key-memo probes, set-index hashing, ancestor walks).

:func:`compile_metadata_plan` walks a compiled
:class:`~repro.sim.replay.BoundaryStream` exactly once per (trace
recipe, geometry) and emits a :class:`MetadataPlan`: columnar
``array('q')`` plan data — per-event counter-line address, HMAC-line
address, BMT leaf slot, and path ids into a deduplicated node-id pool
(a flattened, ahead-of-time form of the cross-machine ancestor-path
memo) — plus the per-event runtime records the MEE's event loop
(:attr:`repro.core.mee.MemoryEncryptionEngine.run_events`) consumes.

Every runtime record comes from :func:`repro.core.mee.resolve_record`,
the same process-wide resolver the MEE's single-block entry points use,
so a planned replay runs the engine's one event loop on exactly the
records a direct run would build — verified across the full protocol
lineup and both integrity modes by ``tests/test_plan.py``.

What is *not* planned: fault campaigns drive single blocks through
:func:`repro.sim.engine.drive_memory_boundary` (their crash oracles need
live data-cache state and per-access probes, see
``repro.faults.campaign.run_fault_cell``). Each block still runs the
same event loop, with its record resolved on the spot.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.mee import MACS_PER_LINE, resolve_record
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.address import AddressSpace


class MetadataPlan:
    """The compiled metadata-access plan of one boundary stream.

    Columnar like the stream itself. Per-event columns (parallel to the
    stream's ``kind``/``addr`` columns, flush tail included):

    * ``record_id`` — index into the deduplicated record table below;
    * ``counter_line`` — counter-block index (the COUNTERS-region line
      address) the event's counter access touches;
    * ``hmac_line`` — HMAC-region line address covering the block;
    * ``leaf_slot`` — the counter's child slot in its BMT parent
      (``counter_line % arity``);
    * ``path_id`` — index into the flattened ancestor-path table.

    The ancestor-path table is ``path_offsets``/``path_nodes``: path
    ``p`` is ``path_nodes[path_offsets[p]:path_offsets[p+1]]``, each
    entry an index into ``node_pool`` (the deduplicated ``(level,
    index)`` node ids, deepest integrity level first — the order every
    walk in the engine uses).

    The per-record table (``rec_counter``/``rec_hmac``/``rec_path``,
    one row per distinct (counter line, HMAC line) pair) backs the
    runtime records: each row resolves into the record the MEE's event
    loop consumes (see :meth:`records`).
    """

    __slots__ = (
        "name",
        "geometry",
        "record_id",
        "counter_line",
        "hmac_line",
        "leaf_slot",
        "path_id",
        "rec_counter",
        "rec_hmac",
        "rec_path",
        "path_offsets",
        "path_nodes",
        "node_pool",
        "_records",
        "_event_records",
    )

    def __init__(self, name: str, geometry: TreeGeometry) -> None:
        self.name = name
        self.geometry = geometry
        self.record_id = array("q")
        self.counter_line = array("q")
        self.hmac_line = array("q")
        self.leaf_slot = array("q")
        self.path_id = array("q")
        self.rec_counter = array("q")
        self.rec_hmac = array("q")
        self.rec_path = array("q")
        self.path_offsets = array("q", [0])
        self.path_nodes = array("q")
        self.node_pool: List[NodeId] = []
        self._records: Optional[list] = None
        self._event_records: Optional[list] = None

    def __len__(self) -> int:
        return len(self.record_id)

    def num_records(self) -> int:
        return len(self.rec_counter)

    def num_paths(self) -> int:
        return len(self.path_offsets) - 1

    def path_node_ids(self, path_id: int) -> array:
        """Node-pool indices of ancestor path ``path_id`` (deepest
        integrity level first, root last)."""
        return self.path_nodes[
            self.path_offsets[path_id] : self.path_offsets[path_id + 1]
        ]

    def records(self) -> list:
        """The per-record runtime tuples (built once, cached), from the
        process-wide :func:`~repro.core.mee.resolve_record` — see there
        for the tuple layout."""
        records = self._records
        if records is None:
            geometry = self.geometry
            records = [
                resolve_record(geometry, counter, hline)
                for counter, hline in zip(self.rec_counter, self.rec_hmac)
            ]
            self._records = records
        return records

    def event_records(self) -> list:
        """Per-event runtime records (``records()`` fanned out by
        ``record_id``), built once and cached — the column the planned
        replay loop zips against the stream's kind/addr columns."""
        events = self._event_records
        if events is None:
            records = self.records()
            events = [records[i] for i in self.record_id]
            self._event_records = events
        return events

    def warm(self) -> None:
        """Resolve the runtime records now, not on first replay — keeps
        the cost inside the measured compile phase, and inside the pool
        parent's precompile so fork workers inherit them."""
        self.event_records()

    def __repr__(self) -> str:
        return (
            f"MetadataPlan(name={self.name!r}, events={len(self.record_id)}, "
            f"records={len(self.rec_counter)}, paths={self.num_paths()})"
        )


def compile_metadata_plan(stream, config: SystemConfig) -> MetadataPlan:
    """Resolve every metadata address ``stream``'s events will touch.

    One pass over the stream's ``addr`` column, flush tail included (a
    replay slices plan columns exactly as it slices stream columns).
    Pure address/tree arithmetic — identical to what the direct MEE
    path derives per event — so the plan depends only on the stream and
    the metadata geometry (block/page split, capacity, tree arity),
    never on the metadata-cache shape or the protocol: one plan serves
    every protocol replay of the stream, and a metadata-cache-only
    config change shares it (the plan-cache key in
    :mod:`repro.workloads.registry` encodes exactly that contract).
    """
    geometry = TreeGeometry.from_config(config)
    address_space = AddressSpace(
        config.pcm.capacity_bytes,
        block_bytes=config.security.block_bytes,
        page_bytes=config.security.page_bytes,
    )
    block_shift = address_space._block_shift
    page_shift = address_space._page_shift
    arity = geometry.arity
    levels = geometry.num_node_levels

    plan = MetadataPlan(stream.name, geometry)
    record_id = plan.record_id
    counter_col = plan.counter_line
    hmac_col = plan.hmac_line
    slot_col = plan.leaf_slot
    path_col = plan.path_id
    rec_counter = plan.rec_counter
    rec_hmac = plan.rec_hmac
    rec_path = plan.rec_path
    path_offsets = plan.path_offsets
    path_nodes = plan.path_nodes
    node_pool = plan.node_pool

    #: (counter, hmac line) -> record id. Keyed by the pair: with small
    #: pages one HMAC line can span several counter blocks, so neither
    #: column alone identifies a record.
    rec_ids: Dict[Tuple[int, int], int] = {}
    #: deepest ancestor -> path id (sibling counters share one path:
    #: the chain is a pure function of its deepest node).
    path_ids: Dict[NodeId, int] = {}
    node_ids: Dict[NodeId, int] = {}
    #: counter -> (record id, path id) of the last block seen under it
    #: — consecutive events overwhelmingly repeat (counter, hmac) pairs,
    #: so the common case is one narrow probe.
    by_counter: Dict[int, Tuple[int, int]] = {}

    for addr in stream.addr:
        block = addr >> block_shift
        counter = addr >> page_shift
        hline = block // MACS_PER_LINE
        cached = by_counter.get(counter)
        if cached is not None and rec_hmac[cached[0]] == hline:
            rid, pid = cached
        else:
            pair = (counter, hline)
            rid = rec_ids.get(pair)
            if rid is None:
                head = (levels, counter // arity)
                pid = path_ids.get(head)
                if pid is None:
                    pid = len(path_offsets) - 1
                    path_ids[head] = pid
                    for node in geometry.ancestors_of_counter(counter):
                        nid = node_ids.get(node)
                        if nid is None:
                            nid = len(node_pool)
                            node_ids[node] = nid
                            node_pool.append(node)
                        path_nodes.append(nid)
                    path_offsets.append(len(path_nodes))
                rid = len(rec_counter)
                rec_ids[pair] = rid
                rec_counter.append(counter)
                rec_hmac.append(hline)
                rec_path.append(pid)
            else:
                pid = rec_path[rid]
            by_counter[counter] = (rid, pid)
        record_id.append(rid)
        counter_col.append(counter)
        hmac_col.append(hline)
        slot_col.append(counter % arity)
        path_col.append(pid)

    plan.warm()
    return plan
