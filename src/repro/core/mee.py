"""The Memory Encryption Engine (MEE): the shared secure-memory datapath.

Every data block that crosses the trusted chip boundary passes through
this engine. The mechanics are identical for every protocol in the
paper — what differs is *which metadata writes are forced through to
NVM and when*, which is delegated to the bound
:class:`~repro.core.protocol.MetadataPersistencePolicy`.

Read path (authentication):
  1. fetch the data block from NVM;
  2. fetch its counter block through the metadata cache;
  3. walk the BMT ancestor path until the first *trusted* anchor — a
     cached node (on-chip means trusted), a protocol NV register (the
     AMNT subtree root, a BMF persistent root), or the global root
     register — fetching missing nodes from NVM along the way;
  4. fetch the block's HMAC line;
  5. in functional mode, actually verify hashes and the MAC, decrypt,
     and raise :class:`~repro.errors.IntegrityError` on any mismatch.

Write path (a dirty block leaving the LLC, or an explicit persist):
  1. read-modify-write the counter (fetch, bump, mark dirty);
  2. update the HMAC line (fetch, mark dirty);
  3. update the BMT ancestor path in the cache (fetch, mark dirty) up
     to the first protocol NV register on it, the same stop as the
     read walk's: the register absorbs the new value on-chip, and
     without one the whole path must reflect the new counter;
  4. write the (encrypted) data block to NVM;
  5. hand control to the protocol, which persists whichever of the
     dirty lines its crash-consistency model requires and charges the
     extra cycles.

Dirty metadata evicted from the cache is lazily written back to NVM by
the engine (the volatile baseline's only metadata traffic); protocols
hook fills and writebacks for their own bookkeeping (Anubis's shadow
table lives entirely in those hooks).

Both paths are one event loop, built once per engine and exposed as
:attr:`MemoryEncryptionEngine.run_events`. ``simulate()`` streams a
whole trace's boundary events through it in one call, plan replay
(``simulate_from_plan``, see :mod:`repro.sim.plan`) a whole compiled
stream, and the single-block entry points
(:meth:`~MemoryEncryptionEngine.read_block`,
:meth:`~MemoryEncryptionEngine.write_block`) one event, so the direct
and compiled drivers cannot drift apart.

Timing and function are separable: built with ``functional=False`` the
engine tracks cache/NVM events and cycles only; with
``functional=True`` it additionally maintains real encrypted bytes,
counters, MACs, and tree hashes, so tamper and crash-recovery tests
exercise the same code path the timing runs measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.metadata_cache import (
    MetadataCache,
    counter_key,
    counter_mix,
    hmac_key,
    hmac_mix,
    node_key,
    node_mix,
)
from repro.config import SystemConfig
from repro.core.protocol import MetadataPersistencePolicy, shares_residency
from repro.crypto.counters import counter_in_line
from repro.crypto.engine import CryptoEngine, RealCryptoEngine
from repro.crypto.hmac import data_mac
from repro.errors import IntegrityError, SimulationError
from repro.integrity.bmt import BonsaiMerkleTree
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.address import AddressSpace
from repro.mem.backend import MetadataRegion, SparseMemory
from repro.mem.nvm import NVMDevice
from repro.persist.root_register import RegisterFile
from repro.util.stats import StatRegistry

#: MACs per 64 B HMAC line (8 x 8 B).
MACS_PER_LINE = 8

# Region enum members resolved once; the read/write paths name their
# region statically instead of re-deriving it from the key tag.
_DATA = MetadataRegion.DATA
_COUNTERS = MetadataRegion.COUNTERS
_TREE = MetadataRegion.TREE
_HMACS = MetadataRegion.HMACS


# Process-wide runtime records shared by every engine instance and every
# metadata plan. A sweep builds a fresh machine per cell, but what an
# event touches in the metadata cache depends only on its counter index,
# HMAC line, and the tree shape, so sharing the records means only the
# first cell of a given shape pays to resolve each one. Values are
# immutable once built (tuples, and path lists that are never mutated);
# growth is bounded by the metadata footprint per distinct tree shape.
_RECORDS: Dict[tuple, Dict[Tuple[int, int], tuple]] = {}
#: Per tree shape: deepest ancestor -> (triples, path). Sibling
#: counters share one chain, so they share these objects too.
_CHAINS: Dict[tuple, Dict[NodeId, tuple]] = {}
#: node -> ``(node, key, mix)``; a node's key and set mix do not depend
#: on the tree shape.
_TRIPLES: Dict[NodeId, tuple] = {}


def node_triple(node: NodeId) -> tuple:
    """The interned ``(node, cache key, set mix)`` triple of a BMT node."""
    triple = _TRIPLES.get(node)
    if triple is None:
        level, index = node
        triple = (node, node_key(level, index), node_mix(level, index))
        _TRIPLES[node] = triple
    return triple


def record_table(geometry: TreeGeometry) -> Dict[Tuple[int, int], tuple]:
    """The process-wide ``(counter index, HMAC line) -> record`` table
    of ``geometry``'s tree shape."""
    return _RECORDS.setdefault((geometry.num_counter_blocks, geometry.arity), {})


def resolve_record(
    geometry: TreeGeometry, counter_index: int, hmac_line: int
) -> tuple:
    """The runtime record of an event touching ``counter_index`` and
    ``hmac_line``, built once per tree shape.

    The record is ``(ctr_key, ctr_mix, hmac_key, hmac_mix, triples,
    path, counter_index)``: the counter and HMAC cache keys with their
    set mixes, the ancestor chain as ``(node, key, mix)`` triples, and
    the ancestor-path list handed to protocols — everything the event
    loop needs without per-event derivation.
    """
    shape = (geometry.num_counter_blocks, geometry.arity)
    records = _RECORDS.setdefault(shape, {})
    record = records.get((counter_index, hmac_line))
    if record is None:
        # The deepest ancestor names the chain, so only the first
        # counter of each sibling group derives its path.
        head = (geometry.num_node_levels, counter_index // geometry.arity)
        chains = _CHAINS.setdefault(shape, {})
        chain = chains.get(head)
        if chain is None:
            path = geometry.ancestors_of_counter(counter_index)
            chain = (tuple(node_triple(node) for node in path), path)
            chains[head] = chain
        record = (
            counter_key(counter_index),
            counter_mix(counter_index),
            hmac_key(hmac_line),
            hmac_mix(hmac_line),
            chain[0],
            chain[1],
            counter_index,
        )
        records[(counter_index, hmac_line)] = record
    return record


def record_key_shift(page_bytes: int, block_bytes: int) -> int:
    """The shift that turns a block index into an int naming the
    block's event record: ``block >> shift``.

    A record depends only on its counter index and HMAC line. When a
    page holds a whole number of HMAC lines (as 64 B blocks in 4 KB
    pages do), every block of one HMAC line is in one page, so the line
    index ``block >> 3`` names the record; under any other geometry the
    block index does (several blocks may then name one record).
    """
    if (page_bytes // block_bytes) % MACS_PER_LINE == 0:
        return MACS_PER_LINE.bit_length() - 1
    return 0


class MemoryEncryptionEngine:
    """Secure-memory controller: caches, tree, protocol, and timing."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: MetadataPersistencePolicy,
        nvm: Optional[NVMDevice] = None,
        functional: bool = False,
        engine: Optional[CryptoEngine] = None,
    ) -> None:
        self.config = config
        self.geometry = TreeGeometry.from_config(config)
        self.address_space = AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        )
        self.functional = functional
        backend = SparseMemory() if functional else None
        self.nvm = nvm if nvm is not None else NVMDevice(config.pcm, backend=backend)
        if functional and self.nvm.backend is None:
            self.nvm.backend = SparseMemory()
        if functional and config.persist_model == "wpq":
            # Stage functional stores in a write-pending queue (undo
            # log). Must happen before the tree is built so tree,
            # protocols, and engine all share the journaling backend.
            self.nvm.attach_wpq()
        #: Pre-resolved WPQ handle (None under write-through): the
        #: persist helpers fence it and the group commits drain it.
        self._wpq = self.nvm.wpq
        self.mdcache = MetadataCache(config.metadata_cache)
        self.registers = RegisterFile()
        self.stats = StatRegistry("mee")
        # Pre-resolved counters for the per-access paths: bumping
        # ``.value`` directly skips the string-keyed registry lookup on
        # every data read/write (see NVMDevice for the same idiom).
        self._ctr_data_reads = self.stats.counter("data_reads")
        self._ctr_data_writes = self.stats.counter("data_writes")
        self._ctr_walk_register = self.stats.counter("walk_stopped_at_register")
        self._ctr_walk_cache = self.stats.counter("walk_stopped_at_cache")
        self._ctr_md_writebacks = self.stats.counter("metadata_writebacks")
        #: This tree shape's process-wide event records (see
        #: resolve_record): the read/write entry points look an event's
        #: record up here and resolve it only on first touch.
        self._records = record_table(self.geometry)
        #: This tree shape's ancestor chains, keyed by their deepest
        #: node (see resolve_record): persist_path finds a record
        #: path's resolved triples here.
        self._chains = _CHAINS.setdefault(
            (self.geometry.num_counter_blocks, self.geometry.arity), {}
        )
        # Address decode pieces: record_of inlines the block/page split
        # (a bounds check and two shifts).
        self._block_index = self.address_space.block_index
        self._as_capacity = self.address_space.capacity_bytes
        self._block_shift = self.address_space._block_shift
        self._page_shift = self.address_space._page_shift
        self._md_latency = self.mdcache.access_latency_cycles
        # The metadata cache's set array: the event loop and the persist
        # path index it with a key's premixed set (build_cache gives the
        # metadata cache default placement, so a set is mix & mask).
        self._md_sets = self.mdcache._cache._sets
        self._md_set_mask = self.mdcache._cache._set_mask
        self._md_dirty_evictions = self.mdcache._cache._dirty_evictions
        #: Per-region counted persist writers, the ``persist`` argument
        #: of :meth:`write_through`.
        self.counter_persister = self.nvm.persister(_COUNTERS)
        self.tree_persister = self.nvm.persister(_TREE)
        self.hmac_persister = self.nvm.persister(_HMACS)
        self._leaf_persister = self.nvm.persister(_COUNTERS, _HMACS)
        self._wb_writers_by_kind = {
            "ctr": self.nvm.writer(_COUNTERS),
            "node": self.nvm.writer(_TREE),
            "hmac": self.nvm.writer(_HMACS),
        }
        # Posted (queued) writes expose only part of the device latency
        # to the critical path; persists always pay it all.
        self._posted_write_cycles = max(
            1,
            int(
                self.nvm.write_latency_cycles
                * config.pcm.posted_write_latency_fraction
            ),
        )

        #: persist_leaf's charge: one full write, one overlapped.
        self._leaf_pair_cycles = (
            self.nvm.write_latency_cycles + self._posted_write_cycles
        )

        self.engine: Optional[CryptoEngine] = None
        self.tree: Optional[BonsaiMerkleTree] = None
        self._volatile_hmacs: Dict[int, bytes] = {}
        #: Optional wear instrumentation (repro.mem.wear). When set, the
        #: event loop records every data write here, the persist and
        #: writeback paths every metadata line write, and protocols their
        #: private-region writes (e.g. Anubis's shadow table).
        self.wear_tracker = None
        #: Optional crash scheduler (repro.faults.triggers). When set,
        #: the engine announces phase boundaries to it and brackets each
        #: data write in a persist group so injected power failures land
        #: only at points real ADR hardware could expose.
        self.fault_probe = None
        if functional:
            self.engine = engine if engine is not None else RealCryptoEngine()
            self.tree = BonsaiMerkleTree(
                self.geometry, self.engine, self.nvm.backend
            )
        # The global BMT root register exists in every protocol.
        root = self.registers.allocate("bmt_root", 64)
        if self.tree is not None:
            root.write(self.tree.root_register)

        self.protocol = protocol
        # Hook elision: the per-access paths call a protocol hook only
        # when its class actually overrides it. Most of the lineup keeps
        # the no-op defaults, so the common case pays an attribute test
        # instead of a method call (several per simulated access). The
        # checks are against the class, so monkeypatched instances of an
        # overriding protocol still work.
        base = MetadataPersistencePolicy
        proto_cls = type(protocol)
        self._fill_hook = (
            protocol.on_metadata_fill
            if proto_cls.on_metadata_fill is not base.on_metadata_fill
            else None
        )
        self._writeback_hook = (
            protocol.on_metadata_writeback
            if proto_cls.on_metadata_writeback is not base.on_metadata_writeback
            else None
        )
        self._shares_residency = shares_residency(proto_cls)
        #: What a persist leaves of a line's set value (see
        #: write_through): nothing (``False``) for a solo engine; a
        #: ReplayGroup member's persist keeps the other members' bits.
        self._persist_keeps = False
        #: The ReplayGroup this engine replays in, if any (see
        #: simulate_from_plan and simulate).
        self.replay_group: Optional["ReplayGroup"] = None
        protocol.bind(self)
        #: The engine's one read/write datapath:
        #: ``run_events(events, data=None, plaintexts=None)`` runs
        #: ``(kind, addr, record)`` events in order and returns their
        #: cycles (see _event_loop).
        self.run_events = self._event_loop()

    @property
    def groupable(self) -> bool:
        """Whether this engine can join a :class:`ReplayGroup`: it is
        timing-only, has no fault probe or wear tracker attached, and
        its protocol has no NV anchor
        (:func:`~repro.core.protocol.shares_residency`)."""
        return (
            self._shares_residency
            and not self.functional
            and self.fault_probe is None
            and self.wear_tracker is None
        )

    # ------------------------------------------------------------------
    # metadata cache plumbing
    # ------------------------------------------------------------------

    def _writeback_metadata(self, key: tuple, dirty=True) -> int:
        """Lazy writeback of a dirty metadata line on eviction (posted:
        it drains from the write queue off the critical path); counts
        the dirty eviction. ``dirty`` is the victim's set value, which
        only a ReplayGroup's dispatcher reads (it writes the line back
        once per member bit set)."""
        self._md_dirty_evictions.value += 1
        if self.wear_tracker is not None:
            self.wear_tracker.record_line(key)
        probe = self.fault_probe
        if probe is not None:
            # Posted writebacks can be lost to a power cut: outside a
            # persist group the failure raises here, before the backend
            # sync below runs, so the evicted line's value dies with the
            # write queue — a genuinely torn eviction.
            probe.on_phase("mdcache_eviction")
        self._wb_writers_by_kind[key[0]]()
        cycles = self._posted_write_cycles
        self._ctr_md_writebacks.value += 1
        if self.functional:
            self._sync_line_to_backend(key)
        hook = self._writeback_hook
        if hook is not None:
            cycles += hook(key)
        return cycles

    def _sync_line_to_backend(self, key: tuple) -> None:
        """Functional mode: make NVM reflect the line's current value
        (on an eviction's writeback or a persist)."""
        kind = key[0]
        assert self.tree is not None
        if kind == "ctr":
            self.tree.persist_counter(key[1])
        elif kind == "node":
            self.tree.persist_node((key[1], key[2]))
        elif kind == "hmac":
            line = key[1]
            for block in range(line * MACS_PER_LINE, (line + 1) * MACS_PER_LINE):
                mac = self._volatile_hmacs.pop(block, None)
                if mac is not None:
                    self.nvm.backend.write(MetadataRegion.HMACS, block, mac)

    # ------------------------------------------------------------------
    # persist helpers (called by protocols)
    # ------------------------------------------------------------------

    @property
    def posted_write_cycles(self) -> int:
        """Critical-path cost of a write that overlaps another in-flight
        write (different NVM banks): the charge for the second and later
        persists of an *unordered* group, as :meth:`persist_leaf`
        charges the HMAC line issued with its counter line. Ordered
        (tree-walk) persists pay full latency."""
        return self._posted_write_cycles

    def write_through(self, persist, lines, phase: Optional[str] = None) -> int:
        """Every crash-consistency persist: write ``lines`` through, in
        order, and return their summed full latency.

        ``lines`` are ``(node, key, mix)`` triples (``node`` is unused
        here) whose cache key and premixed set are already resolved;
        ``persist`` is the counted writer of the region they belong to
        (:meth:`~repro.mem.nvm.NVMDevice.persister`). Per line, in
        order: ``phase`` fires (with a fault probe attached), the wear
        tracker records it, the probe's persist window opens (the line
        is not yet durable, nor anything enqueued since the last fence),
        the line is left clean if it is cached in the set its mix
        selects (a line that is not resident stays absent), a functional
        engine syncs its value to NVM, and the write-pending queue is
        fenced. Clean means this engine's dirty bit cleared: the value
        ANDed with :attr:`_persist_keeps`, ``False`` for a solo engine
        and the other members' bits in a :class:`ReplayGroup`.

        The device is charged once, with the lines actually written: if
        a probe raises, the line whose window raised is not charged.
        """
        probe = self.fault_probe
        phase_probe = probe if phase is not None else None
        tracker = self.wear_tracker
        sets = self._md_sets
        set_mask = self._md_set_mask
        keeps = self._persist_keeps
        sync = self._sync_line_to_backend if self.functional else None
        wpq = self._wpq
        written = 0
        try:
            for _, key, mix in lines:
                if phase_probe is not None:
                    phase_probe.on_phase(phase)
                if tracker is not None:
                    tracker.record_line(key)
                if probe is not None:
                    probe.on_persist()
                written += 1
                bucket = sets[mix & set_mask]
                if key in bucket:
                    bucket[key] &= keeps
                if sync is not None:
                    sync(key)
                if wpq is not None:
                    wpq.fence()
        finally:
            cycles = persist(written)
        return cycles

    def persist_counter_line(self, counter_index: int) -> int:
        """Write the counter line through (crash-consistency persist)."""
        line = (None, counter_key(counter_index), counter_mix(counter_index))
        return self.write_through(self.counter_persister, (line,))

    def persist_tree_node(self, node: NodeId) -> int:
        """Write a BMT node's line through (crash-consistency persist)."""
        return self.write_through(self.tree_persister, (node_triple(node),))

    def persist_path(
        self,
        nodes: List[NodeId],
        phase: Optional[str] = None,
        upto: Optional[int] = None,
    ) -> int:
        """Ordered write-through of ``nodes[:upto]`` (all of ``nodes``
        when ``upto`` is None), in the given order: each node's persist
        completes before the next issues (persist barriers), so the
        critical path pays every full write latency (their sum is
        returned). With a fault probe attached, ``phase`` fires before
        each node's persist window.

        An event record's ancestor path (the ``path`` protocols receive)
        finds its resolved triples in one lookup of the chain
        :func:`resolve_record` built; any other node list resolves each
        node through :func:`node_triple`.
        """
        chain = self._chains.get(nodes[0]) if nodes else None
        if chain is not None and chain[1] is nodes:
            lines = chain[0]
        else:
            lines = [node_triple(node) for node in nodes]
        if upto is not None:
            lines = lines[:upto]
        return self.write_through(self.tree_persister, lines, phase)

    def leaf_lines(self, counter_index: int, block_index: int) -> tuple:
        """A data write's counter line and HMAC line, in that order, as
        the ``(None, key, mix)`` triples :meth:`write_through` takes,
        from the write's event record."""
        hmac_line = block_index // MACS_PER_LINE
        record = self._records.get((counter_index, hmac_line))
        if record is None:
            record = resolve_record(self.geometry, counter_index, hmac_line)
        return (None, record[0], record[1]), (None, record[2], record[3])

    def persist_leaf(self, counter_index: int, block_index: int) -> int:
        """Leaf persistence of one data write: its counter line and its
        HMAC line (:meth:`leaf_lines`), written through with the data.

        The two lines are independent, so they issue as an unordered
        pair: the critical path pays one full write plus
        :attr:`posted_write_cycles` for the overlapped second.
        """
        self.write_through(
            self._leaf_persister, self.leaf_lines(counter_index, block_index)
        )
        return self._leaf_pair_cycles

    # ------------------------------------------------------------------
    # fault-injection instrumentation
    # ------------------------------------------------------------------

    def fire_phase(self, name: str) -> None:
        """Announce a protocol-phase boundary to an attached fault
        probe (no-op when none is attached)."""
        probe = self.fault_probe
        if probe is not None:
            probe.on_phase(name)

    def commit_persist_group(self) -> None:
        """Mark the in-flight write's persist group durable early.

        The engine commits the group itself at the end of
        :meth:`write_block`; protocols whose ``on_data_write`` continues
        with separately crashable maintenance after the write's own
        persists are complete (AMNT's movement) call this first, so
        crashes injected into that tail find the write already durable.
        """
        if self._wpq is not None:
            # Drain before the commit callback: a crash deferred to
            # this point must observe an empty pending set (the ADR
            # drain is what makes the write durable).
            self._wpq.drain()
        probe = self.fault_probe
        if probe is not None:
            probe.commit_group()

    # ------------------------------------------------------------------
    # functional content helpers
    # ------------------------------------------------------------------

    def _stored_mac(self, block_index: int, paddr: int) -> bytes:
        mac = self._volatile_hmacs.get(block_index)
        if mac is not None:
            return mac
        if self.nvm.backend.contains(MetadataRegion.HMACS, block_index):
            return self.nvm.backend.read(
                MetadataRegion.HMACS, block_index, self.engine.mac_bytes
            )
        # Genesis MAC: zero ciphertext under a zero counter.
        zero_cipher = bytes(self.config.security.block_bytes)
        return data_mac(self.engine, zero_cipher, paddr, 0, 0)

    # ------------------------------------------------------------------
    # the datapath entry points
    # ------------------------------------------------------------------

    def record_of(self, paddr: int) -> tuple:
        """The event record of the block at ``paddr`` (see
        :func:`resolve_record`), as :attr:`run_events` consumes it."""
        if not 0 <= paddr < self._as_capacity:
            self._block_index(paddr)  # raises AddressError
        counter_index = paddr >> self._page_shift
        hmac_line = (paddr >> self._block_shift) // MACS_PER_LINE
        record = self._records.get((counter_index, hmac_line))
        if record is None:
            record = resolve_record(self.geometry, counter_index, hmac_line)
        return record

    def read_block(self, paddr: int) -> int:
        """Authenticate-and-fetch one block; returns cycles.

        In functional mode the plaintext is available through
        :meth:`read_block_data`, which runs the same event.
        """
        return self.run_events(((0, paddr, self.record_of(paddr)),))

    def read_block_data(self, paddr: int) -> bytes:
        """Functional read: authenticate, decrypt, return plaintext."""
        if not self.functional:
            raise RuntimeError("read_block_data requires functional mode")
        plaintexts: List[bytes] = []
        self.run_events(((0, paddr, self.record_of(paddr)),), None, plaintexts)
        return plaintexts[0]

    def write_block(
        self,
        paddr: int,
        data: Optional[bytes] = None,
        fenced: bool = False,
    ) -> int:
        """One data write reaching memory; returns cycles.

        ``fenced`` marks an application persistence fence (CLWB +
        sfence): the data write itself is synchronous rather than
        posted, and the protocol's fence-ordered bookkeeping is charged
        on the critical path. ``data`` is the plaintext a functional
        engine encrypts (zeros when omitted).
        """
        return self.run_events(
            ((2 if fenced else 1, paddr, self.record_of(paddr)),), data
        )

    def _verify_and_decrypt(
        self, paddr: int, block_index: int, counter_index: int
    ) -> bytes:
        block_base = self.address_space.block_base(paddr)
        if not self.nvm.backend.contains(MetadataRegion.DATA, block_index):
            # Never-written memory is not yet under counter-mode
            # encryption: it reads as zeros (still authenticated — the
            # genesis MAC covers exactly this state).
            self.tree.authenticate_or_raise(counter_index)
            return bytes(self.config.security.block_bytes)
        ciphertext = self.nvm.backend.read(
            MetadataRegion.DATA, block_index, self.config.security.block_bytes
        )
        major, minor = counter_in_line(
            self.tree.current_counter_bytes(counter_index),
            self.address_space.block_offset_in_page(paddr),
        )
        expected_mac = data_mac(self.engine, ciphertext, block_base, major, minor)
        if expected_mac != self._stored_mac(block_index, block_base):
            raise IntegrityError(
                f"HMAC mismatch for block {block_index} (addr {paddr:#x})"
            )
        self.tree.authenticate_or_raise(counter_index)
        return self.engine.decrypt(ciphertext, block_base, major, minor)

    def _functional_counter_bump_and_store(
        self,
        paddr: int,
        block_index: int,
        counter_index: int,
        data: Optional[bytes],
        path: List[NodeId],
    ) -> None:
        block_bytes = self.config.security.block_bytes
        plaintext = data if data is not None else bytes(block_bytes)
        if len(plaintext) != block_bytes:
            raise ValueError(f"data must be exactly {block_bytes} bytes")
        block_base = self.address_space.block_base(paddr)
        offset = self.address_space.block_offset_in_page(paddr)
        old_counter = self.tree.current_counter(counter_index).copy()
        counter = old_counter.copy()
        overflowed = counter.bump(offset)
        if overflowed:
            self.stats.add("minor_overflows")
            self._reencrypt_page(counter_index, old_counter, counter)
        self.tree.set_counter(counter_index, counter, persist=False, path=path)
        major, minor = counter.counter_for(offset)
        ciphertext = self.engine.encrypt(plaintext, block_base, major, minor)
        self.nvm.backend.write(MetadataRegion.DATA, block_index, ciphertext)
        self._volatile_hmacs[block_index] = data_mac(
            self.engine, ciphertext, block_base, major, minor
        )

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def _event_loop(self, group: Optional["ReplayGroup"] = None):
        """Build the engine's read/write datapath; returns ``run``.

        ``run(events, data=None, plaintexts=None)`` executes ``(kind,
        addr, record)`` events in order and returns their cycles. Kind
        0 is a read (an LLC fill), 1 a posted write (a dirty eviction),
        2 a fenced write (a CLWB + sfence persist); ``record`` comes
        from :func:`resolve_record`. ``data`` is the plaintext of
        functional writes, and a functional read appends its plaintext
        to ``plaintexts`` when given. ``simulate()`` passes a generator
        over a whole trace's boundary events, plan replay a whole
        compiled stream, and the single-block entry points one event.

        Everything the loop touches is resolved here, once per engine —
        except ``fault_probe`` and ``wear_tracker``, which are attached
        after construction and read once per call. Each metadata-cache
        reference probes the line's set inline (the record carries its
        premixed set). Every miss goes through one closure, ``miss``,
        which holds the only copy of the miss rule and counts its NVM
        read in place. A protocol's NV anchors are one container
        (``trusted_nodes()``): a read's walk and a write's path update
        both climb the record's ``triples`` until the first member.

        What every event counts — data reads and writes, metadata-cache
        hits, walk stops at a cached node and at an NV register, and
        the data region's NVM reads and writes — ``run`` tallies in
        local ints and adds to the shared counters once per call, in a
        ``finally``: the counts stay exact when a
        :class:`~repro.errors.PowerFailure` ends a call mid-stream, and
        nothing reads them before a call returns. The data reads'
        latency is charged once too, as their count times the NVM read
        latency.

        A set maps key -> set value (see :mod:`repro.cache.cache`), so a
        hit is one ``move_to_end`` and a write's reference first stores
        ``dirty``. For this engine alone (``group=None``) the value is
        its dirty bool, ``dirty`` is ``True``, and ``run`` returns the
        engine's cycles. Built for a :class:`ReplayGroup`, the loop runs
        on the group's shared residency and counters: a set value is a
        member mask (bit *i* is member *i*'s dirty bit), ``dirty`` is
        the all-members mask, and the fill hook, writeback and
        ``on_data_write`` are the group's dispatchers, which run each
        member's own and charge its cycles to that member. ``run`` then
        returns the cycles every member shares.
        """
        md_latency = self._md_latency
        functional = self.functional
        block_shift = self._block_shift
        bump_and_store = self._functional_counter_bump_and_store
        verify_and_decrypt = self._verify_and_decrypt
        posted_cycles = self._posted_write_cycles
        fenced_cycles = self.nvm.write_latency_cycles
        wpq = self._wpq
        if group is None:
            shared = self
            fill_hook = self._fill_hook
            writeback = self._writeback_metadata
            on_data_write = self.protocol.on_data_write
            trusted = self.protocol.trusted_nodes()
            dirty = True
        else:
            shared = group
            fill_hook = group._fill_hook
            writeback = group._writeback
            on_data_write = group._on_data_write
            trusted = ()
            dirty = group.all_members
        # The residency, its counters and the NVM accesses every member
        # shares (a ReplayGroup names these as an engine does).
        inner = shared.mdcache._cache
        sets = inner._sets
        set_mask = inner._set_mask
        assoc = inner.associativity
        md_hits = inner._hits
        md_misses = inner._misses
        md_fills = inner._fills
        md_evictions = inner._evictions
        nvm = shared.nvm
        read_latency = nvm.read_latency_cycles
        nvm_reads = nvm._read_total
        nvm_writes = nvm._write_total
        data_nvm_reads = nvm._read_by_region[_DATA]
        data_nvm_writes = nvm._write_by_region[_DATA]
        ctr_reads = nvm._read_by_region[_COUNTERS]
        tree_reads = nvm._read_by_region[_TREE]
        hmac_reads = nvm._read_by_region[_HMACS]
        data_reads = shared._ctr_data_reads
        data_writes = shared._ctr_data_writes
        walk_cache = shared._ctr_walk_cache
        walk_register = shared._ctr_walk_register

        def miss(bucket, key, dirty, region_reads) -> int:
            """One metadata-cache miss on ``key``, whose set is
            ``bucket``: evict the set's LRU line if it is full, fill
            ``key`` (``dirty`` for a write's reference), fetch it from
            NVM (counted in ``region_reads``, the line's region), run
            the protocol's fill hook, and write a dirty victim back.
            Returns its cycles beyond the probe latency."""
            md_misses.value += 1
            victim = None
            if len(bucket) >= assoc:
                victim, victim_dirty = bucket.popitem(last=False)
                md_evictions.value += 1
                if not victim_dirty:
                    victim = None
            bucket[key] = dirty
            md_fills.value += 1
            nvm_reads.value += 1
            region_reads.value += 1
            cycles = read_latency
            if fill_hook is not None:
                cycles += fill_hook(key)
            if victim is not None:
                cycles += writeback(victim, victim_dirty)
            return cycles

        def run(events, data=None, plaintexts=None) -> int:
            probe = self.fault_probe
            tracker = self.wear_tracker
            cycles = 0
            # Per-call tallies, added to the shared counters once, in
            # the finally: exact even when a PowerFailure ends the call.
            reads = writes = stores = hits = cache_stops = register_stops = 0
            try:
                for kind, addr, rec in events:
                    ctr_key, ctr_mix, hkey, hmac_mix, triples, path, counter_index = rec
                    if kind == 0:  # read: authenticate and fetch
                        reads += 1  # the data block's NVM read
                        # Counter line (clean reference).
                        bucket = sets[ctr_mix & set_mask]
                        cycles += md_latency
                        if ctr_key in bucket:
                            bucket.move_to_end(ctr_key)
                            hits += 1
                        else:
                            cycles += miss(bucket, ctr_key, False, ctr_reads)
                        # BMT walk: climb until the first cached / trusted node.
                        for node, key, mix in triples:
                            if node in trusted:
                                register_stops += 1
                                break
                            bucket = sets[mix & set_mask]
                            cycles += md_latency
                            if key in bucket:
                                bucket.move_to_end(key)
                                hits += 1
                                cache_stops += 1
                                break
                            cycles += miss(bucket, key, False, tree_reads)
                        # HMAC line (clean reference).
                        bucket = sets[hmac_mix & set_mask]
                        cycles += md_latency
                        if hkey in bucket:
                            bucket.move_to_end(hkey)
                            hits += 1
                        else:
                            cycles += miss(bucket, hkey, False, hmac_reads)
                        if functional:
                            plaintext = verify_and_decrypt(
                                addr, addr >> block_shift, counter_index
                            )
                            if plaintexts is not None:
                                plaintexts.append(plaintext)
                        continue
                    # write: 1 posted, 2 fenced.
                    writes += 1
                    if tracker is not None:
                        tracker.record(_DATA, addr >> block_shift)
                    if probe is not None:
                        # The functional tree updates the NV root register
                        # atomically with the counter bump, so a crash
                        # landing between that bump and the protocol's
                        # persists would fabricate a torn state no ADR
                        # machine can produce. Phase triggers inside the
                        # group are therefore deferred to the commit below
                        # (the write completes durably); triggers outside
                        # any group raise at once.
                        probe.begin_group()
                    # 1. read-modify-write the counter (dirtying reference).
                    bucket = sets[ctr_mix & set_mask]
                    cycles += md_latency
                    if ctr_key in bucket:
                        bucket[ctr_key] = dirty
                        bucket.move_to_end(ctr_key)
                        hits += 1
                    else:
                        cycles += miss(bucket, ctr_key, dirty, ctr_reads)
                    block_index = addr >> block_shift
                    if functional:
                        bump_and_store(addr, block_index, counter_index, data, path)
                    # 2. update the HMAC line (dirtying reference).
                    bucket = sets[hmac_mix & set_mask]
                    cycles += md_latency
                    if hkey in bucket:
                        bucket[hkey] = dirty
                        bucket.move_to_end(hkey)
                        hits += 1
                    else:
                        cycles += miss(bucket, hkey, dirty, hmac_reads)
                    # 3. update the ancestor path up to the first trusted
                    #    node, where a read's walk stops too: the NV anchor
                    #    absorbs the new value on-chip.
                    for node, key, mix in triples:
                        if node in trusted:
                            break
                        bucket = sets[mix & set_mask]
                        cycles += md_latency
                        if key in bucket:
                            bucket[key] = dirty
                            bucket.move_to_end(key)
                            hits += 1
                        else:
                            cycles += miss(bucket, key, dirty, tree_reads)
                    # 4. the data write itself (posted, unless under a fence).
                    stores += 1
                    fenced = kind == 2
                    cycles += fenced_cycles if fenced else posted_cycles
                    # 5. protocol-specific persistence.
                    cycles += on_data_write(
                        counter_index, block_index, path, fenced=fenced
                    )
                    if wpq is not None:
                        # ADR drain at the group's commit point (before the
                        # commit callback, so a deferred crash finds the
                        # queue empty and the write durable — matching
                        # write_committed=True).
                        wpq.drain()
                    if probe is not None:
                        probe.commit_group()
            finally:
                data_reads.value += reads
                nvm_reads.value += reads
                data_nvm_reads.value += reads
                data_writes.value += writes
                nvm_writes.value += stores
                data_nvm_writes.value += stores
                md_hits.value += hits
                walk_cache.value += cache_stops
                walk_register.value += register_stops
            # Every data read pays one NVM read latency.
            return cycles + reads * read_latency

        return run

    def _reencrypt_page(self, counter_index, old_counter, new_counter) -> None:
        """Minor-counter overflow: re-encrypt every stored block of the
        page under the new major counter."""
        blocks_per_page = self.config.security.counters_per_block
        first_block = counter_index * blocks_per_page
        for offset in range(blocks_per_page):
            block_index = first_block + offset
            if not self.nvm.backend.contains(MetadataRegion.DATA, block_index):
                continue
            block_base = self.address_space.addr_of_block(block_index)
            old_major, old_minor = old_counter.counter_for(offset)
            ciphertext = self.nvm.backend.read(
                MetadataRegion.DATA, block_index, self.config.security.block_bytes
            )
            plaintext = self.engine.decrypt(
                ciphertext, block_base, old_major, old_minor
            )
            new_major, new_minor = new_counter.counter_for(offset)
            recrypted = self.engine.encrypt(
                plaintext, block_base, new_major, new_minor
            )
            self.nvm.backend.write(MetadataRegion.DATA, block_index, recrypted)
            self._volatile_hmacs[block_index] = data_mac(
                self.engine, recrypted, block_base, new_major, new_minor
            )

    # ------------------------------------------------------------------
    # crash modeling
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: every volatile structure loses its contents."""
        self.mdcache.drop_all()
        self._volatile_hmacs.clear()
        if self.tree is not None:
            self.tree.crash()
        self.registers.crash()  # no-op by design; NV registers survive
        self.stats.add("crashes")


class ReplayGroup:
    """Timing-only engines that replay one event stream on one shared
    metadata-cache residency.

    Protocols without NV anchors (see
    :func:`~repro.core.protocol.shares_residency`) differ only in which
    dirty lines they write through, so on one stream they see the same
    hits, misses, fills and evictions. A group simulates that residency
    once for all its members, while each member keeps its own dirty
    bits, hooks, NVM writes and cycles:

    * a set value of :attr:`mdcache` is a member mask, bit *i* being
      member *i*'s dirty bit. A dirtying reference stores
      :attr:`all_members`, a read's fill ``False``, and member *i*'s
      persist (its ``write_through``) clears bit *i* only;
    * a dirty victim is written back through each member's
      ``_writeback_metadata`` (hook included) once per member whose bit
      is set, and that member counts one dirty eviction;
    * fill hooks and ``on_data_write`` run for every member; the
      cycles of its hooks and writebacks are charged to that member;
    * probes, NVM reads, data reads and writes, hits, misses, fills,
      evictions and walk stops happen once, on the group's own
      counters, and are added to every member's when the replay ends.

    The members must be :attr:`~MemoryEncryptionEngine.groupable` and
    share one :class:`~repro.config.SystemConfig`. The group runs the
    engines' one event loop, built with its dispatchers (see
    ``_event_loop``). :meth:`cycles_of` replays on its first call and
    answers each member's later call from that replay, so each
    member's result still comes from its own ``simulate_from_plan`` or
    ``simulate`` call.
    """

    def __init__(self, engines) -> None:
        engines = list(engines)
        if not engines:
            raise SimulationError("a replay group needs at least one engine")
        leader = engines[0]
        for engine in engines:
            if not engine.groupable:
                raise SimulationError(
                    f"a {engine.protocol.name} engine cannot share "
                    "metadata-cache residency"
                )
            if engine.config != leader.config:
                raise SimulationError(
                    "replay group members need one configuration"
                )
            if engine.replay_group is not None:
                raise SimulationError("an engine replays in one group")
        if len({id(engine) for engine in engines}) != len(engines):
            raise SimulationError("an engine joins a replay group once")
        self.engines = engines
        #: The set value of a line every member has dirtied.
        self.all_members = (1 << len(engines)) - 1
        config = leader.config
        # The shared residency and what the loop counts once.
        self.mdcache = MetadataCache(config.metadata_cache)
        self.nvm = NVMDevice(config.pcm)
        self.stats = StatRegistry("mee")
        self._ctr_data_reads = self.stats.counter("data_reads")
        self._ctr_data_writes = self.stats.counter("data_writes")
        self._ctr_walk_register = self.stats.counter("walk_stopped_at_register")
        self._ctr_walk_cache = self.stats.counter("walk_stopped_at_cache")
        # Per member: the cycles its own hooks and writebacks charged.
        own = self._own_cycles = [0] * len(engines)

        fill_hooks = [
            (member, engine._fill_hook)
            for member, engine in enumerate(engines)
            if engine._fill_hook is not None
        ]

        def fill_hook(key) -> int:
            for member, hook in fill_hooks:
                own[member] += hook(key)
            return 0

        writebacks = list(
            enumerate(engine._writeback_metadata for engine in engines)
        )

        def writeback(key, members) -> int:
            for member, write_back in writebacks:
                if members >> member & 1:
                    own[member] += write_back(key)
            return 0

        data_writes = list(
            enumerate(engine.protocol.on_data_write for engine in engines)
        )

        def on_data_write(counter_index, block_index, path, fenced=False) -> int:
            for member, on_write in data_writes:
                own[member] += on_write(
                    counter_index, block_index, path, fenced=fenced
                )
            return 0

        self._fill_hook = fill_hook if fill_hooks else None
        self._writeback = writeback
        self._on_data_write = on_data_write
        self._source: Optional[tuple] = None
        self._cycles: Optional[List[int]] = None
        self.run_events = leader._event_loop(self)
        for engine in engines:
            engine.replay_group = self

    def replay(self, events) -> List[int]:
        """Run ``events`` through the group, once; returns each
        member's cycles, in member order."""
        if self._cycles is not None:
            raise SimulationError("a replay group replays once")
        engines = self.engines
        if not all(engine.groupable for engine in engines):
            raise SimulationError(
                "a fault probe or wear tracker was attached to a replay "
                "group member"
            )
        # Members persist into the shared sets, each clearing its bit.
        for member, engine in enumerate(engines):
            engine._md_sets = self.mdcache._cache._sets
            engine._persist_keeps = self.all_members ^ (1 << member)
        try:
            shared = self.run_events(events)
        finally:
            for engine in engines:
                engine._md_sets = engine.mdcache._cache._sets
                engine._persist_keeps = False
        for engine in engines:
            engine.mdcache.stats.merge_from(self.mdcache.stats)
            engine.stats.merge_from(self.stats)
            engine.nvm.stats.merge_from(self.nvm.stats)
        self._cycles = [shared + own for own in self._own_cycles]
        return self._cycles

    def cycles_of(self, engine: MemoryEncryptionEngine, source: tuple, events) -> int:
        """``engine``'s cycles over the group's replay of ``source``.

        ``source`` is the tuple of objects the events come from: a
        compiled stream and its plan, or a trace whose data-side walk
        every member shares; ``events`` builds them. The first call
        replays the group on ``events()``; every later call must name
        the same objects.
        """
        if self._source is None:
            self._source = source
            self.replay(events())
        elif len(source) != len(self._source) or any(
            mine is not theirs for mine, theirs in zip(self._source, source)
        ):
            raise SimulationError(
                "a replay group replays one stream and plan, or one trace"
            )
        return self._cycles[self.engines.index(engine)]
