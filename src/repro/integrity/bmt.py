"""Functional Bonsai Merkle Tree over the simulated NVM.

This class maintains *two* views of every tree node and counter block,
mirroring the hardware state the paper reasons about:

* the **persisted** view — bytes in the non-volatile backend, which is
  all that survives a crash;
* the **current** view — a volatile overlay modeling dirty copies in
  the on-chip metadata cache. ``crash()`` discards the overlay.

Node format is the General BMT (§2.1, Figure 1): a 64 B node is the
concatenation of the 8-byte keyed hashes of its (up to 8) children;
slots for absent children (tree edge) are zero. The root's own hash
lives in a non-volatile on-chip register and is updated atomically with
every counter update, exactly the root-of-trust discipline every
protocol in the paper shares.

Never-written lines read as their *genesis* values — the node contents
a freshly zeroed memory implies — memoized per (level, child-count), so
an 8 GB (or 128 TB) tree is consistent from the first access without
materializing millions of nodes.

Two update modes share this class (``mode`` constructor argument):

* ``"eager"`` — every counter write recomputes the keyed hash of each
  ancestor immediately (the hardware-faithful default, and what every
  fault-injection entry point forces);
* ``"lazy"`` — counter writes only record *which child slot* of each
  ancestor is stale (:attr:`_lazy_slots`) and defer the digests. Real
  bytes are materialized on demand — any read of a dirty node's
  current value, the root register, ``crash()``, persists, recovery —
  and are bit-identical to the eager values by construction: a
  materialized node splices ``hash8(child's current value)`` into each
  recorded slot over the same base bytes the eager path started from
  (the base cannot change while slots are pending, because every
  backend writer of a TREE line clears the pending state first).
  Repeated writes to one path collapse to a single hash per node at
  materialization time, which is where functional sweeps win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.counters import ENCODED_BYTES, CounterBlock
from repro.crypto.engine import CryptoEngine
from repro.errors import CrashConsistencyError, IntegrityError
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.backend import MetadataRegion, SparseMemory

NODE_BYTES = 64
SLOT_BYTES = 8
#: A never-written counter line (decodes to the all-zero block).
_ZERO_COUNTER_LINE = bytes(ENCODED_BYTES)


@dataclass
class VerificationReport:
    """Outcome of a verification walk, for tests and recovery logs."""

    ok: bool
    #: Levels at which the stored slot mismatched the computed hash.
    mismatched_levels: List[int] = field(default_factory=list)
    root_matches: bool = True


class BonsaiMerkleTree:
    """The paper's BMT with persisted/current state separation."""

    def __init__(
        self,
        geometry: TreeGeometry,
        engine: CryptoEngine,
        backend: SparseMemory,
        mode: str = "eager",
    ) -> None:
        from repro.config import validate_integrity_mode

        validate_integrity_mode(mode)
        self.geometry = geometry
        self.engine = engine
        self.backend = backend
        self.mode = mode
        self.lazy = mode == "lazy"
        self._volatile_nodes: Dict[NodeId, bytes] = {}
        self._volatile_counters: Dict[int, CounterBlock] = {}
        #: Lazy mode: node -> child indices whose slot hash is deferred.
        #: A node is dirty iff it appears here or in ``_volatile_nodes``.
        self._lazy_slots: Dict[NodeId, Set[int]] = {}
        #: genesis node bytes memoized by (level, child_count).
        self._genesis_cache: Dict[Tuple[int, int], bytes] = {}
        #: Lazily-deferred nodes made real so far (telemetry only).
        self.materializations = 0
        #: Non-volatile on-chip root register (8 B), kept current in
        #: eager mode and recomputed on read when lazily stale.
        self._root_stale = False
        self._root_register: bytes = self._hash_node(
            self.current_node_bytes((1, 0))
        )

    @property
    def root_register(self) -> bytes:
        if self._root_stale:
            self._root_stale = False
            self._root_register = self._hash_node(
                self.current_node_bytes((1, 0))
            )
        return self._root_register

    @root_register.setter
    def root_register(self, value: bytes) -> None:
        self._root_register = value
        self._root_stale = False

    # ------------------------------------------------------------------
    # genesis values
    # ------------------------------------------------------------------

    def _child_count(self, node: NodeId) -> int:
        return sum(1 for _ in self.geometry.children(node))

    def _genesis_node_bytes(self, node: NodeId) -> bytes:
        """Node contents implied by an all-zero counter space."""
        level, _ = node
        child_count = self._child_count(node)
        cached = self._genesis_cache.get((level, child_count))
        if cached is not None:
            return cached
        slots = []
        for child in self.geometry.children(node):
            child_level, _ = child
            if child_level == self.geometry.counter_level:
                child_bytes = _ZERO_COUNTER_LINE
            else:
                child_bytes = self._genesis_node_bytes(child)
            slots.append(self.engine.hash8(child_bytes))
        value = b"".join(slots)
        value += bytes(NODE_BYTES - len(value))  # zero-fill edge slots
        # Genesis values depend only on (level, child_count) when every
        # descendant is also full or shares the same edge shape; edge
        # nodes at the same level with the same child count can still
        # differ if a *descendant* is partial, so only memoize the
        # common full-shape case.
        if child_count == self.geometry.arity:
            self._genesis_cache[(level, child_count)] = value
        return value

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------

    def persisted_counter_bytes(self, index: int) -> bytes:
        """The persisted counter line (zeros if never written).

        Raises ``ValueError`` for a stored line of the wrong length,
        exactly as :meth:`CounterBlock.decode` would.
        """
        raw = self.backend.read(MetadataRegion.COUNTERS, index, ENCODED_BYTES)
        if len(raw) != ENCODED_BYTES:
            raise ValueError(f"counter block must be {ENCODED_BYTES} bytes")
        return raw

    def current_counter_bytes(self, index: int) -> bytes:
        """The current counter line: the volatile block's encoding if
        dirty, else the persisted line."""
        block = self._volatile_counters.get(index)
        if block is not None:
            return block.encode()
        return self.persisted_counter_bytes(index)

    def persisted_counter(self, index: int) -> CounterBlock:
        return CounterBlock.decode(self.persisted_counter_bytes(index))

    def current_counter(self, index: int) -> CounterBlock:
        block = self._volatile_counters.get(index)
        if block is not None:
            return block
        return self.persisted_counter(index)

    def persisted_node_bytes(self, node: NodeId) -> bytes:
        if self.backend.contains(MetadataRegion.TREE, node):
            return self.backend.read(MetadataRegion.TREE, node, NODE_BYTES)
        return self._genesis_node_bytes(node)

    def current_node_bytes(self, node: NodeId) -> bytes:
        if self._lazy_slots and node in self._lazy_slots:
            return self._materialize_node(node)
        value = self._volatile_nodes.get(node)
        if value is not None:
            return value
        return self.persisted_node_bytes(node)

    def _materialize_node(self, node: NodeId) -> bytes:
        """Turn a lazily-dirty node into its real (eager) bytes.

        Splices ``hash8`` of each pending child's *current* value into
        the node's base bytes, recursing into child nodes that are
        themselves lazily dirty. Repeated counter writes to one path
        collapse into a single hash per node here.
        """
        pending = self._lazy_slots.pop(node, None)
        self.materializations += 1
        base = self._volatile_nodes.get(node)
        if base is None:
            base = self.persisted_node_bytes(node)
        if not pending:
            return base
        parent = bytearray(base)
        counter_level = self.geometry.counter_level
        arity = self.geometry.arity
        child_level = node[0] + 1
        children_are_counters = child_level == counter_level
        for child_index in pending:
            if children_are_counters:
                child_bytes = self.current_counter_bytes(child_index)
            else:
                child_bytes = self._materialize_node((child_level, child_index))
            slot = child_index % arity
            parent[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES] = (
                self._hash_node(child_bytes)
            )
        value = bytes(parent)
        self._volatile_nodes[node] = value
        return value

    def materialize_all(self) -> None:
        """Force every deferred digest real (no-op in eager mode).

        The root register read materializes the full dirty chain —
        every lazily-dirty node lies on some counter's ancestor path,
        all of which terminate in the root's pending slots.
        """
        _ = self.root_register
        for node in list(self._lazy_slots):
            self._materialize_node(node)

    def _hash_node(self, node_bytes: bytes) -> bytes:
        return self.engine.hash8(node_bytes)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def set_counter(
        self,
        index: int,
        block: CounterBlock,
        persist: bool = False,
        path: Optional[List[NodeId]] = None,
    ) -> None:
        """Install a new counter value and propagate the hash change.

        The ancestral path is recomputed into the *volatile* overlay
        (as the metadata cache would hold it) and the on-chip root
        register updated atomically. ``persist`` additionally writes
        the counter line through to NVM — what leaf persistence does on
        every data write. ``path`` optionally supplies the pre-resolved
        ancestor chain (plan-driven replays); it must equal
        ``geometry.ancestors_of_counter(index)``.
        """
        self._volatile_counters[index] = block
        if persist:
            self.persist_counter(index)
        self._update_path(index, path)

    def persist_counter(self, index: int) -> None:
        """Write the current counter line through to NVM."""
        block = self._volatile_counters.pop(index, None)
        if block is None:
            return  # already persisted and clean
        self.backend.write(MetadataRegion.COUNTERS, index, block.encode())

    def _recompute_node(self, node: NodeId) -> bytes:
        slots = []
        for child in self.geometry.children(node):
            child_level, child_index = child
            if child_level == self.geometry.counter_level:
                child_bytes = self.current_counter_bytes(child_index)
            else:
                child_bytes = self.current_node_bytes(child)
            slots.append(self._hash_node(child_bytes))
        value = b"".join(slots)
        return value + bytes(NODE_BYTES - len(value))

    def _update_path(
        self, counter_index: int, path: Optional[List[NodeId]] = None
    ) -> None:
        """Propagate a counter change along its ancestor path.

        Each parent gets *only the changed child's slot* spliced in —
        the hardware never re-reads or re-hashes siblings on an update,
        so a sibling corrupted in NVM can never be laundered into a
        freshly written parent (the audit in ``repro.core.audit`` and
        the splice tests rely on this).

        Lazy mode records the stale slot along the same path and defers
        every digest (and the root-register refresh) to materialization.
        """
        if path is None:
            path = self.geometry.ancestors_of_counter(counter_index)
        if self.lazy:
            lazy = self._lazy_slots
            child_index = counter_index
            for node in path:
                slots = lazy.get(node)
                if slots is None:
                    lazy[node] = {child_index}
                else:
                    slots.add(child_index)
                child_index = node[1]
            self._root_stale = True
            return
        child_bytes = self.current_counter_bytes(counter_index)
        child_index = counter_index
        for node in path:
            parent = bytearray(self.current_node_bytes(node))
            slot = child_index % self.geometry.arity
            parent[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES] = (
                self._hash_node(child_bytes)
            )
            parent_bytes = bytes(parent)
            self._volatile_nodes[node] = parent_bytes
            child_bytes = parent_bytes
            child_index = node[1]
        self.root_register = self._hash_node(self.current_node_bytes((1, 0)))

    def persist_node(self, node: NodeId) -> None:
        """Write the current node value through to NVM."""
        if self._lazy_slots and node in self._lazy_slots:
            self._materialize_node(node)
        value = self._volatile_nodes.pop(node, None)
        if value is None:
            return  # clean already
        self.backend.write(MetadataRegion.TREE, node, value)

    def persist_path(self, counter_index: int, persist_counter: bool = True) -> int:
        """Write-through the counter and its whole ancestral path.

        Returns the number of NVM lines written — what the strict
        persistence protocol charges per data write.
        """
        written = 0
        if persist_counter and counter_index in self._volatile_counters:
            self.persist_counter(counter_index)
            written += 1
        for node in self.geometry.ancestors_of_counter(counter_index):
            if node in self._volatile_nodes or node in self._lazy_slots:
                self.persist_node(node)
                written += 1
        return written

    def dirty_nodes(self) -> List[NodeId]:
        nodes = list(self._volatile_nodes.keys())
        if self._lazy_slots:
            seen = self._volatile_nodes
            nodes.extend(n for n in self._lazy_slots if n not in seen)
        return nodes

    def dirty_counters(self) -> List[int]:
        return list(self._volatile_counters.keys())

    # ------------------------------------------------------------------
    # crash and verification
    # ------------------------------------------------------------------

    def crash(self) -> Tuple[int, int]:
        """Power loss: the volatile overlay vanishes.

        Returns (lost_counter_lines, lost_node_lines) for reporting.
        The non-volatile root register survives by construction — in
        lazy mode it is materialized *before* the overlay is discarded,
        exactly the value the eager path would have maintained.
        """
        if self._lazy_slots or self._root_stale:
            self.materialize_all()
        lost = (len(self._volatile_counters), len(self._volatile_nodes))
        self._volatile_counters.clear()
        self._volatile_nodes.clear()
        return lost

    def verify_counter(self, index: int, persisted_only: bool = False) -> VerificationReport:
        """Authenticate one counter block against the root register.

        ``persisted_only`` verifies the post-crash NVM image (what
        recovery sees); otherwise the current (cached) view is used,
        which is what the MEE authenticates at runtime.
        """
        if persisted_only:
            counter_bytes = self.persisted_counter_bytes(index)
            node_bytes_of = self.persisted_node_bytes
        else:
            counter_bytes = self.current_counter_bytes(index)
            node_bytes_of = self.current_node_bytes

        report = VerificationReport(ok=True)
        child_bytes = counter_bytes
        child: NodeId = (self.geometry.counter_level, index)
        for node in self.geometry.ancestors_of_counter(index):
            parent_bytes = node_bytes_of(node)
            slot = child[1] % self.geometry.arity
            stored = parent_bytes[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES]
            if stored != self._hash_node(child_bytes):
                report.ok = False
                report.mismatched_levels.append(node[0])
            child_bytes = parent_bytes
            child = node
        if self._hash_node(child_bytes) != self.root_register:
            report.ok = False
            report.root_matches = False
        return report

    def authenticate_or_raise(self, index: int) -> None:
        """Runtime authentication: raise on any mismatch."""
        report = self.verify_counter(index)
        if not report.ok:
            raise IntegrityError(
                f"counter block {index} failed authentication at levels "
                f"{report.mismatched_levels or ['root']}"
            )

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------

    def subtree_value_from_persisted(self, subtree: NodeId) -> Tuple[bytes, int]:
        """Recompute ``subtree``'s node value bottom-up from persisted
        counters, writing every recomputed descendant back to NVM.

        Returns ``(subtree_node_bytes, nodes_recomputed)``. This is the
        recovery procedure's core: after a crash the in-subtree nodes
        are assumed stale and must be rebuilt from the (persisted)
        leaves before comparing against the trusted register.
        """
        level, _ = subtree
        arity = self.geometry.arity
        first, last = self.geometry.counter_range_of(subtree)
        hash_node = self._hash_node
        line_of = self.persisted_counter_bytes
        # Hashes of the current level's entries in index order, starting
        # at ``first_index`` (aligned to ``arity``, so every chunk of
        # ``arity`` digests is one parent's slots, left to right).
        digests = [hash_node(line_of(i)) for i in range(first, last)]
        first_index = first
        nodes_recomputed = 0
        write = self.backend.write
        for current_level in range(self.geometry.counter_level - 1, level - 1, -1):
            first_index //= arity
            parent_digests = []
            for offset in range(0, len(digests), arity):
                node_value = b"".join(digests[offset : offset + arity])
                node_value += bytes(NODE_BYTES - len(node_value))
                node_id: NodeId = (current_level, first_index + offset // arity)
                write(MetadataRegion.TREE, node_id, node_value)
                self._volatile_nodes.pop(node_id, None)
                self._lazy_slots.pop(node_id, None)
                parent_digests.append(hash_node(node_value))
            nodes_recomputed += len(parent_digests)
            digests = parent_digests
        subtree_bytes = self.persisted_node_bytes(subtree)
        return subtree_bytes, nodes_recomputed

    def recompute_and_persist(self, node: NodeId) -> bytes:
        """Recompute one node from its children's current values and
        write it through to NVM. Used by recovery procedures fixing the
        levels above an NV-registered subtree root (AMNT) or persistent
        root set (BMF)."""
        value = self._recompute_node(node)
        self.backend.write(MetadataRegion.TREE, node, value)
        self._volatile_nodes.pop(node, None)
        self._lazy_slots.pop(node, None)
        return value

    def rebuild_all_from_persisted(self) -> int:
        """Full-tree rebuild (leaf-persistence recovery). Returns node
        count recomputed; raises if the rebuilt root contradicts the
        non-volatile root register (tampering or torn persistence)."""
        root_bytes, count = self.subtree_value_from_persisted((1, 0))
        if self._hash_node(root_bytes) != self.root_register:
            raise CrashConsistencyError(
                "rebuilt tree root does not match the on-chip root register"
            )
        return count
