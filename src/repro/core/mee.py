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
  3. update every BMT node on the ancestor path in the cache (fetch,
     mark dirty) — the tree must reflect the new counter;
  4. write the (encrypted) data block to NVM;
  5. hand control to the protocol, which persists whichever of the
     dirty lines its crash-consistency model requires and charges the
     extra cycles.

Dirty metadata evicted from the cache is lazily written back to NVM by
the engine (the volatile baseline's only metadata traffic); protocols
hook fills and writebacks for their own bookkeeping (Anubis's shadow
table lives entirely in those hooks).

Timing and function are separable: built with ``functional=False`` the
engine tracks cache/NVM events and cycles only; with
``functional=True`` it additionally maintains real encrypted bytes,
counters, MACs, and tree hashes, so tamper and crash-recovery tests
exercise the same code path the timing runs measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import CacheLine
from repro.cache.metadata_cache import (
    MetadataCache,
    counter_key,
    hmac_key,
    node_key,
)
from repro.config import SystemConfig
from repro.core.protocol import MetadataPersistencePolicy
from repro.crypto.counters import counter_in_line
from repro.crypto.engine import CryptoEngine, RealCryptoEngine
from repro.crypto.hmac import data_mac
from repro.errors import IntegrityError
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


# Process-wide memos shared by every engine instance. A sweep builds a
# fresh machine per cell, but the key tuples and ancestor paths depend
# only on the address/tree geometry, so sharing them means only the
# first cell of a given geometry pays to build each entry. All values
# are immutable once built (tuples, and lists that are never mutated);
# growth is bounded by the metadata footprint per distinct geometry.
_COUNTER_KEY_CACHE: Dict[int, tuple] = {}
_HMAC_KEY_CACHE: Dict[int, tuple] = {}
_NODE_KEY_CACHE: Dict[NodeId, tuple] = {}
_PATH_CACHE: Dict[tuple, Dict[int, List[NodeId]]] = {}
_PATH_KEY_CACHE: Dict[tuple, Dict[int, List[Tuple[NodeId, tuple]]]] = {}


def _shape_of(geometry: TreeGeometry) -> tuple:
    """The path-memo shape key (what distinguishes ancestor paths)."""
    return (geometry.num_counter_blocks, geometry.arity, geometry.page_bytes)


def shared_counter_key(counter_index: int) -> tuple:
    """The process-wide interned ``("ctr", i)`` key tuple."""
    key = _COUNTER_KEY_CACHE.get(counter_index)
    if key is None:
        key = counter_key(counter_index)
        _COUNTER_KEY_CACHE[counter_index] = key
    return key


def shared_hmac_key(hmac_line: int) -> tuple:
    """The process-wide interned ``("hmac", line)`` key tuple."""
    key = _HMAC_KEY_CACHE.get(hmac_line)
    if key is None:
        key = hmac_key(hmac_line)
        _HMAC_KEY_CACHE[hmac_line] = key
    return key


def shared_node_key(node: NodeId) -> tuple:
    """The process-wide interned ``("node", level, i)`` key tuple."""
    key = _NODE_KEY_CACHE.get(node)
    if key is None:
        key = node_key(node[0], node[1])
        _NODE_KEY_CACHE[node] = key
    return key


def shared_ancestor_path(geometry: TreeGeometry, counter_index: int):
    """The memoized ancestor chain — the *same list object* every
    engine of this geometry shape resolves, so a plan built from it
    hands protocols identical path data to the direct path's."""
    memo = _PATH_CACHE.setdefault(_shape_of(geometry), {})
    path = memo.get(counter_index)
    if path is None:
        path = geometry.ancestors_of_counter(counter_index)
        memo[counter_index] = path
    return path


def shared_path_keys(geometry: TreeGeometry, counter_index: int):
    """The memoized ``(node, key)`` ancestor pairs (see above)."""
    memo = _PATH_KEY_CACHE.setdefault(_shape_of(geometry), {})
    pairs = memo.get(counter_index)
    if pairs is None:
        pairs = [
            (node, shared_node_key(node))
            for node in shared_ancestor_path(geometry, counter_index)
        ]
        memo[counter_index] = pairs
    return pairs


def _region_of_key(key: tuple) -> MetadataRegion:
    kind = key[0]
    if kind == "ctr":
        return MetadataRegion.COUNTERS
    if kind == "node":
        return MetadataRegion.TREE
    if kind == "hmac":
        return MetadataRegion.HMACS
    raise ValueError(f"unknown metadata key kind {kind!r}")


class MemoryEncryptionEngine:
    """Secure-memory controller: caches, tree, protocol, and timing."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: MetadataPersistencePolicy,
        nvm: Optional[NVMDevice] = None,
        functional: bool = False,
        engine: Optional[CryptoEngine] = None,
        integrity_mode: str = "eager",
    ) -> None:
        from repro.config import validate_integrity_mode

        validate_integrity_mode(integrity_mode)
        self.integrity_mode = integrity_mode
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
        # Metadata-key memos: every read/write builds ("ctr", i) /
        # ("hmac", line) / ("node", level, i) tuples for the cache; the
        # key space is bounded by the metadata footprint, so memoizing
        # them removes a tuple allocation per metadata touch. The node
        # memo stores each counter's (node, key) pairs alongside the
        # ancestor path so the walk loops allocate nothing. The memos
        # are the process-wide caches above, shared across engines so
        # repeated sweep cells reuse each other's work.
        self._counter_keys = _COUNTER_KEY_CACHE
        self._hmac_keys = _HMAC_KEY_CACHE
        self._node_keys = _NODE_KEY_CACHE
        shape = (
            self.geometry.num_counter_blocks,
            self.geometry.arity,
            self.geometry.page_bytes,
        )
        self._path_memo = _PATH_CACHE.setdefault(shape, {})
        self._path_key_memo = _PATH_KEY_CACHE.setdefault(shape, {})
        # Hot bound methods resolved once, plus address decode pieces:
        # the read/write paths inline the block/page split (a bounds
        # check and two shifts) instead of paying two method calls per
        # access.
        self._block_index = self.address_space.block_index
        self._page_index = self.address_space.page_index
        self._as_capacity = self.address_space.capacity_bytes
        self._block_shift = self.address_space._block_shift
        self._page_shift = self.address_space._page_shift
        self._md_latency = self.mdcache.access_latency_cycles
        self._md_access = self.mdcache.access_line
        self._md_clean = self.mdcache.clean
        # Per-region NVM access closures (see NVMDevice.reader/writer):
        # each call site names its region statically.
        self._read_data = self.nvm.reader(_DATA)
        self._read_ctr = self.nvm.reader(_COUNTERS)
        self._read_tree = self.nvm.reader(_TREE)
        self._read_hmac = self.nvm.reader(_HMACS)
        self._write_data = self.nvm.writer(_DATA)
        self._persist_ctr_write = self.nvm.writer(_COUNTERS, persist=True)
        self._persist_tree_write = self.nvm.writer(_TREE, persist=True)
        self._persist_hmac_write = self.nvm.writer(_HMACS, persist=True)
        self._readers_by_kind = {
            "ctr": self._read_ctr,
            "node": self._read_tree,
            "hmac": self._read_hmac,
        }
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

        self.engine: Optional[CryptoEngine] = None
        self.tree: Optional[BonsaiMerkleTree] = None
        self._volatile_hmacs: Dict[int, bytes] = {}
        #: Optional wear instrumentation (repro.mem.wear). When set,
        #: protocols report their private-region writes (e.g. Anubis's
        #: shadow table) here; the engine's own write paths are wrapped
        #: by attach_wear_tracking.
        self.wear_tracker = None
        #: Optional crash scheduler (repro.faults.triggers). When set,
        #: the engine announces phase boundaries to it and brackets each
        #: data write in a persist group so injected power failures land
        #: only at points real ADR hardware could expose.
        self.fault_probe = None
        if functional:
            self.engine = engine if engine is not None else RealCryptoEngine()
            self.tree = BonsaiMerkleTree(
                self.geometry, self.engine, self.nvm.backend,
                mode=integrity_mode,
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
        self._read_auth_hook = (
            protocol.on_read_authentication
            if proto_cls.on_read_authentication is not base.on_read_authentication
            else None
        )
        self._default_extent = (
            proto_cls.path_update_extent is base.path_update_extent
        )
        self._check_trusted = proto_cls.has_trusted_registers
        protocol.bind(self)

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------

    def ancestor_path(self, counter_index: int) -> List[NodeId]:
        """Memoized ancestor chain (leaf-parent .. root) for a counter."""
        path = self._path_memo.get(counter_index)
        if path is None:
            path = self.geometry.ancestors_of_counter(counter_index)
            self._path_memo[counter_index] = path
        return path

    def _ancestor_path_keys(
        self, counter_index: int
    ) -> List[Tuple[NodeId, tuple]]:
        """The ancestor chain paired with ready-made cache keys."""
        pairs = self._path_key_memo.get(counter_index)
        if pairs is None:
            pairs = [
                (node, self._node_key(node))
                for node in self.ancestor_path(counter_index)
            ]
            self._path_key_memo[counter_index] = pairs
        return pairs

    def _node_key(self, node: NodeId) -> tuple:
        key = self._node_keys.get(node)
        if key is None:
            key = node_key(node[0], node[1])
            self._node_keys[node] = key
        return key

    def _counter_key(self, counter_index: int) -> tuple:
        key = self._counter_keys.get(counter_index)
        if key is None:
            key = counter_key(counter_index)
            self._counter_keys[counter_index] = key
        return key

    def _hmac_key(self, hmac_line: int) -> tuple:
        key = self._hmac_keys.get(hmac_line)
        if key is None:
            key = hmac_key(hmac_line)
            self._hmac_keys[hmac_line] = key
        return key

    def _hmac_line_of_block(self, block_index: int) -> int:
        return block_index // MACS_PER_LINE

    # ------------------------------------------------------------------
    # metadata cache plumbing
    # ------------------------------------------------------------------

    def _fetch_metadata(self, key: tuple) -> Tuple[int, bool]:
        """Bring a metadata line on-chip; returns (cycles, was_hit)."""
        result = self._md_access(key)
        if result is True:
            return self._md_latency, True
        return (
            self._md_latency
            + self._fill_miss(key, self._readers_by_kind[key[0]], result),
            False,
        )

    def _fetch(self, key: tuple, nvm_read, dirty: bool = False) -> int:
        """One metadata reference through the cache; returns cycles.

        Fused probe+fill (+dirty-mark) with the region's pre-bound NVM
        read closure passed by the caller — the per-access form of
        :meth:`_fetch_metadata`.
        """
        result = self._md_access(key, dirty)
        if result is True:
            return self._md_latency
        return self._md_latency + self._fill_miss(key, nvm_read, result)

    def _fill_miss(self, key: tuple, nvm_read, victim) -> int:
        """Miss tail after :meth:`SetAssociativeCache.access_line` has
        filled ``key``: NVM fetch latency, the protocol's fill hook, and
        the lazy writeback of a displaced dirty victim."""
        cycles = nvm_read()
        hook = self._fill_hook
        if hook is not None:
            cycles += hook(key)
        if victim is not None and victim.dirty:
            cycles += self._writeback_metadata(victim.key)
        return cycles

    def _writeback_metadata(self, key: tuple) -> int:
        """Lazy writeback of a dirty metadata line on eviction (posted:
        it drains from the write queue off the critical path)."""
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
        """Functional mode: make NVM reflect the evicted line's value."""
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
        write (different NVM banks). Protocols charge this for the
        second and later persists of an *unordered* group — e.g. leaf
        persistence's HMAC line, which issues concurrently with its
        counter line. Ordered (tree-walk) persists pay full latency."""
        return self._posted_write_cycles

    def persist_counter_line(self, counter_index: int) -> int:
        """Write-through the counter line (crash-consistency persist)."""
        probe = self.fault_probe
        if probe is not None:
            # The persist window: this line is not yet durable, and
            # neither is anything enqueued since the last fence.
            probe.on_persist()
        cycles = self._persist_ctr_write()
        self._md_clean(self._counter_key(counter_index))
        if self.functional:
            self.tree.persist_counter(counter_index)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

    def persist_hmac_line(self, hmac_line: int) -> int:
        probe = self.fault_probe
        if probe is not None:
            probe.on_persist()
        cycles = self._persist_hmac_write()
        self._md_clean(self._hmac_key(hmac_line))
        if self.functional:
            first = hmac_line * MACS_PER_LINE
            for block in range(first, first + MACS_PER_LINE):
                mac = self._volatile_hmacs.pop(block, None)
                if mac is not None:
                    self.nvm.backend.write(MetadataRegion.HMACS, block, mac)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

    def persist_tree_node(self, node: NodeId) -> int:
        probe = self.fault_probe
        if probe is not None:
            probe.on_persist()
        cycles = self._persist_tree_write()
        self._md_clean(self._node_key(node))
        if self.functional:
            self.tree.persist_node(node)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

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
    # the read path
    # ------------------------------------------------------------------

    def read_block(self, paddr: int) -> int:
        """Authenticate-and-fetch one block; returns cycles.

        In functional mode the plaintext is available afterwards via
        :meth:`read_block_data`, which shares this code path.
        """
        cycles, _ = self._read_block_common(paddr)
        return cycles

    def read_block_data(self, paddr: int) -> bytes:
        """Functional read: authenticate, decrypt, return plaintext."""
        if not self.functional:
            raise RuntimeError("read_block_data requires functional mode")
        _, plaintext = self._read_block_common(paddr)
        return plaintext

    def _read_block_common(self, paddr: int) -> Tuple[int, bytes]:
        # Address decode and key lookup, inlined (bounds check + two
        # shifts + memo probes); the slow helpers run only on the first
        # touch of an index or for an out-of-range address.
        if 0 <= paddr < self._as_capacity:
            block_index = paddr >> self._block_shift
            counter_index = paddr >> self._page_shift
        else:
            block_index = self._block_index(paddr)  # raises AddressError
            counter_index = self._page_index(paddr)
        ctr_key = self._counter_keys.get(counter_index)
        if ctr_key is None:
            ctr_key = self._counter_key(counter_index)
        pairs = self._path_key_memo.get(counter_index)
        if pairs is None:
            pairs = self._ancestor_path_keys(counter_index)
        hmac_line = block_index // MACS_PER_LINE
        hkey = self._hmac_keys.get(hmac_line)
        if hkey is None:
            hkey = self._hmac_key(hmac_line)

        cycles = self._read_data()
        self._ctr_data_reads.value += 1

        md_access = self._md_access
        md_latency = self._md_latency
        result = md_access(ctr_key)
        cycles += md_latency
        if result is not True:
            cycles += self._fill_miss(ctr_key, self._read_ctr, result)

        # Verification walk: stop at the first trusted anchor. The
        # per-node register test only matters for protocols with NV
        # anchors (AMNT's subtree root, BMF's root set); the rest of
        # the lineup walks a branch-free loop.
        if self._check_trusted:
            trusted = self.protocol.trusted_register_node
            for node, key in pairs:
                if trusted(node, counter_index):
                    self._ctr_walk_register.value += 1
                    break
                result = md_access(key)
                if result is True:
                    cycles += md_latency
                    self._ctr_walk_cache.value += 1
                    break
                cycles += md_latency + self._fill_miss(
                    key, self._read_tree, result
                )
        else:
            for node, key in pairs:
                result = md_access(key)
                if result is True:
                    cycles += md_latency
                    self._ctr_walk_cache.value += 1
                    break
                cycles += md_latency + self._fill_miss(
                    key, self._read_tree, result
                )

        result = md_access(hkey)
        cycles += md_latency
        if result is not True:
            cycles += self._fill_miss(hkey, self._read_hmac, result)
        hook = self._read_auth_hook
        if hook is not None:
            cycles += hook(counter_index)

        plaintext = b""
        if self.functional:
            plaintext = self._verify_and_decrypt(
                paddr, block_index, counter_index
            )
        return cycles, plaintext

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

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

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
        on the critical path.
        """
        if 0 <= paddr < self._as_capacity:
            block_index = paddr >> self._block_shift
            counter_index = paddr >> self._page_shift
        else:
            block_index = self._block_index(paddr)  # raises AddressError
            counter_index = self._page_index(paddr)
        ctr_key = self._counter_keys.get(counter_index)
        if ctr_key is None:
            ctr_key = self._counter_key(counter_index)
        pairs = self._path_key_memo.get(counter_index)
        if pairs is None:
            pairs = self._ancestor_path_keys(counter_index)
        path = self._path_memo[counter_index]
        hmac_line = block_index // MACS_PER_LINE
        line_key = self._hmac_keys.get(hmac_line)
        if line_key is None:
            line_key = self._hmac_key(hmac_line)
        self._ctr_data_writes.value += 1
        probe = self.fault_probe
        if probe is not None:
            # The functional tree updates the NV root register atomically
            # with the counter bump, so a crash landing between that bump
            # and the protocol's persists would fabricate a torn state no
            # ADR machine can produce. Phase triggers inside the group are
            # therefore deferred to the commit below (the write completes
            # durably); triggers outside any group raise immediately.
            probe.begin_group()

        md_access = self._md_access
        md_latency = self._md_latency

        # 1. read-modify-write the counter.
        result = md_access(ctr_key, True)
        cycles = md_latency
        if result is not True:
            cycles += self._fill_miss(ctr_key, self._read_ctr, result)
        if self.functional:
            self._functional_counter_bump_and_store(
                paddr,
                self.address_space.block_base(paddr),
                block_index,
                counter_index,
                data,
            )

        # 2. update the HMAC line in cache.
        result = md_access(line_key, True)
        cycles += md_latency
        if result is not True:
            cycles += self._fill_miss(line_key, self._read_hmac, result)

        # 3. update the ancestor path in cache (protocols with an NV
        #    trust anchor stop the update below it).
        read_tree = self._read_tree
        if self._default_extent:
            for node, key in pairs:
                result = md_access(key, True)
                cycles += md_latency
                if result is not True:
                    cycles += self._fill_miss(key, read_tree, result)
        else:
            extent = self.protocol.path_update_extent(counter_index, path)
            node_key_of = self._node_key
            for node in extent:
                key = node_key_of(node)
                result = md_access(key, True)
                cycles += md_latency
                if result is not True:
                    cycles += self._fill_miss(key, read_tree, result)

        # 4. the data write itself (posted, unless under a fence).
        self._write_data()
        cycles += (
            self.nvm.write_latency_cycles if fenced else self._posted_write_cycles
        )

        # 5. protocol-specific persistence.
        cycles += self.protocol.on_data_write(
            counter_index, block_index, path, fenced=fenced
        )
        if self._wpq is not None:
            # ADR drain at the group's commit point (before the commit
            # callback, so a deferred crash finds the queue empty and
            # the write durable — matching write_committed=True).
            self._wpq.drain()
        if probe is not None:
            probe.commit_group()
        return cycles

    def _functional_counter_bump_and_store(
        self,
        paddr: int,
        block_base: int,
        block_index: int,
        counter_index: int,
        data: Optional[bytes],
        path: Optional[List[NodeId]] = None,
    ) -> None:
        block_bytes = self.config.security.block_bytes
        plaintext = data if data is not None else bytes(block_bytes)
        if len(plaintext) != block_bytes:
            raise ValueError(f"data must be exactly {block_bytes} bytes")
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
    # plan-driven replay (the sweep fast path, see repro.sim.plan)
    # ------------------------------------------------------------------

    def replay_plan_events(self, kinds, addrs, event_records) -> int:
        """Drive the full read/write datapath from pre-resolved metadata
        records; returns total cycles.

        ``event_records[i]`` is the :mod:`repro.sim.plan` runtime record
        for event ``i``: the interned counter/HMAC cache keys with their
        premixed set indices, the ``(node, key, mix)`` ancestor triples,
        and the shared ancestor-path list. Each iteration performs the
        same cache transitions, NVM accesses, stat bumps, hooks, and
        functional crypto as :meth:`read_block` / :meth:`write_block` in
        the same order — only the per-event address decode, key-memo
        probes, and set-index hashing are gone, because the plan
        compiler resolved them once per (trace, geometry). Bit identity
        with the direct path is enforced by ``tests/test_plan.py``
        across the protocol lineup and both integrity modes.

        The metadata-cache probe itself is inlined here rather than
        going through :meth:`SetAssociativeCache.access_line_premixed`
        — it is the single hottest operation of a sweep (several probes
        per event, ~1M per reference grid), and the method-call frame
        plus per-call attribute lookups dominate what remains after
        planning. The inline body is a transcription of
        ``access_line_premixed`` (same counters, same LRU transitions,
        same victim semantics), valid because ``build_cache`` gives the
        metadata cache default placement. A popped :class:`CacheLine`
        doubles as the victim record — ``_fill_miss`` reads only
        ``.key`` and ``.dirty``, which both classes carry.
        """
        # Hoists: everything the loop body touches, resolved once.
        inner = self.mdcache._cache
        sets = inner._sets
        set_mask = inner._set_mask
        assoc = inner.associativity
        md_hits = inner._hits
        md_misses = inner._misses
        md_fills = inner._fills
        md_evictions = inner._evictions
        md_dirty_evictions = inner._dirty_evictions
        line_cls = CacheLine
        md_access = self._md_access
        md_latency = self._md_latency
        fill_miss = self._fill_miss
        read_ctr = self._read_ctr
        read_tree = self._read_tree
        read_hmac = self._read_hmac
        read_data = self._read_data
        write_data = self._write_data
        data_reads = self._ctr_data_reads
        data_writes = self._ctr_data_writes
        walk_cache = self._ctr_walk_cache
        walk_register = self._ctr_walk_register
        trusted = (
            self.protocol.trusted_register_node if self._check_trusted else None
        )
        read_auth_hook = self._read_auth_hook
        default_extent = self._default_extent
        extent_of = self.protocol.path_update_extent
        node_key_of = self._node_key
        on_data_write = self.protocol.on_data_write
        wpq = self._wpq
        functional = self.functional
        block_shift = self._block_shift
        block_base_of = self.address_space.block_base
        bump_and_store = self._functional_counter_bump_and_store
        verify_and_decrypt = self._verify_and_decrypt
        posted_cycles = self._posted_write_cycles
        fenced_cycles = self.nvm.write_latency_cycles
        probe = self.fault_probe

        cycles = 0
        for kind, addr, rec in zip(kinds, addrs, event_records):
            ctr_key, ctr_mix, hkey, hmac_mix, triples, path, counter_index = rec
            if kind == 0:  # EVENT_FILL: the read path
                cycles += read_data()
                data_reads.value += 1
                # Counter line (clean reference).
                bucket = sets[ctr_mix & set_mask]
                line = bucket.get(ctr_key)
                cycles += md_latency
                if line is not None:
                    bucket.move_to_end(ctr_key)
                    md_hits.value += 1
                else:
                    md_misses.value += 1
                    victim = None
                    if len(bucket) >= assoc:
                        victim = bucket.popitem(last=False)[1]
                        md_evictions.value += 1
                        if victim.dirty:
                            md_dirty_evictions.value += 1
                    bucket[ctr_key] = line_cls(ctr_key)
                    md_fills.value += 1
                    cycles += fill_miss(ctr_key, read_ctr, victim)
                # BMT walk: climb until the first cached / trusted node.
                for node, key, mix in triples:
                    if trusted is not None and trusted(node, counter_index):
                        walk_register.value += 1
                        break
                    bucket = sets[mix & set_mask]
                    line = bucket.get(key)
                    if line is not None:
                        bucket.move_to_end(key)
                        md_hits.value += 1
                        cycles += md_latency
                        walk_cache.value += 1
                        break
                    md_misses.value += 1
                    victim = None
                    if len(bucket) >= assoc:
                        victim = bucket.popitem(last=False)[1]
                        md_evictions.value += 1
                        if victim.dirty:
                            md_dirty_evictions.value += 1
                    bucket[key] = line_cls(key)
                    md_fills.value += 1
                    cycles += md_latency + fill_miss(key, read_tree, victim)
                # HMAC line (clean reference).
                bucket = sets[hmac_mix & set_mask]
                line = bucket.get(hkey)
                cycles += md_latency
                if line is not None:
                    bucket.move_to_end(hkey)
                    md_hits.value += 1
                else:
                    md_misses.value += 1
                    victim = None
                    if len(bucket) >= assoc:
                        victim = bucket.popitem(last=False)[1]
                        md_evictions.value += 1
                        if victim.dirty:
                            md_dirty_evictions.value += 1
                    bucket[hkey] = line_cls(hkey)
                    md_fills.value += 1
                    cycles += fill_miss(hkey, read_hmac, victim)
                if read_auth_hook is not None:
                    cycles += read_auth_hook(counter_index)
                if functional:
                    verify_and_decrypt(addr, addr >> block_shift, counter_index)
            else:  # EVENT_WRITEBACK (posted) / EVENT_PERSIST (fenced)
                data_writes.value += 1
                if probe is not None:
                    probe.begin_group()
                # Counter line (dirtying reference).
                bucket = sets[ctr_mix & set_mask]
                line = bucket.get(ctr_key)
                cycles += md_latency
                if line is not None:
                    line.dirty = True
                    bucket.move_to_end(ctr_key)
                    md_hits.value += 1
                else:
                    md_misses.value += 1
                    victim = None
                    if len(bucket) >= assoc:
                        victim = bucket.popitem(last=False)[1]
                        md_evictions.value += 1
                        if victim.dirty:
                            md_dirty_evictions.value += 1
                    bucket[ctr_key] = line_cls(ctr_key, True)
                    md_fills.value += 1
                    cycles += fill_miss(ctr_key, read_ctr, victim)
                if functional:
                    bump_and_store(
                        addr,
                        block_base_of(addr),
                        addr >> block_shift,
                        counter_index,
                        None,
                        path=path,
                    )
                # HMAC line (dirtying reference).
                bucket = sets[hmac_mix & set_mask]
                line = bucket.get(hkey)
                cycles += md_latency
                if line is not None:
                    line.dirty = True
                    bucket.move_to_end(hkey)
                    md_hits.value += 1
                else:
                    md_misses.value += 1
                    victim = None
                    if len(bucket) >= assoc:
                        victim = bucket.popitem(last=False)[1]
                        md_evictions.value += 1
                        if victim.dirty:
                            md_dirty_evictions.value += 1
                    bucket[hkey] = line_cls(hkey, True)
                    md_fills.value += 1
                    cycles += fill_miss(hkey, read_hmac, victim)
                if default_extent:
                    for node, key, mix in triples:
                        bucket = sets[mix & set_mask]
                        line = bucket.get(key)
                        cycles += md_latency
                        if line is not None:
                            line.dirty = True
                            bucket.move_to_end(key)
                            md_hits.value += 1
                            continue
                        md_misses.value += 1
                        victim = None
                        if len(bucket) >= assoc:
                            victim = bucket.popitem(last=False)[1]
                            md_evictions.value += 1
                            if victim.dirty:
                                md_dirty_evictions.value += 1
                        bucket[key] = line_cls(key, True)
                        md_fills.value += 1
                        cycles += fill_miss(key, read_tree, victim)
                else:
                    for node in extent_of(counter_index, path):
                        key = node_key_of(node)
                        result = md_access(key, True)
                        cycles += md_latency
                        if result is not True:
                            cycles += fill_miss(key, read_tree, result)
                write_data()
                if kind == 2:
                    cycles += fenced_cycles
                    cycles += on_data_write(
                        counter_index, addr >> block_shift, path, fenced=True
                    )
                else:
                    cycles += posted_cycles
                    cycles += on_data_write(
                        counter_index, addr >> block_shift, path, fenced=False
                    )
                if wpq is not None:
                    wpq.drain()
                if probe is not None:
                    probe.commit_group()
        return cycles

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
