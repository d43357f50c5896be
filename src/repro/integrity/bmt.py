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
a freshly zeroed memory implies — memoized per level for complete
subtrees (and per node on the ragged right edge), so an 8 GB (or
128 TB) tree is consistent from the first access without materializing
millions of nodes.

Every counter write recomputes the keyed hash of each ancestor
immediately, so the current view and the root register are always
up to date — the hardware-faithful discipline the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.counters import ENCODED_BYTES, CounterBlock
from repro.crypto.engine import CryptoEngine
from repro.errors import CrashConsistencyError, IntegrityError
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.backend import MetadataRegion, SparseMemory
from repro.util.bitops import ceil_div

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
    ) -> None:
        self.geometry = geometry
        self.engine = engine
        self.backend = backend
        self._volatile_nodes: Dict[NodeId, bytes] = {}
        self._volatile_counters: Dict[int, CounterBlock] = {}
        #: Genesis node bytes and digests, keyed by ``_genesis_key``.
        #: Both are constants of the geometry, never of live content.
        self._genesis_nodes: Dict[NodeId, bytes] = {}
        self._genesis_digests: Dict[NodeId, bytes] = {}
        #: Per level, how many leading nodes cover a complete subtree
        #: (every counter line is complete); any node after them sits on
        #: the tree's ragged right edge. Index 0 is unused.
        self._complete_nodes: List[int] = [0] + [
            geometry.num_counter_blocks // geometry.counters_covered_by(level)
            for level in range(1, geometry.counter_level)
        ] + [geometry.num_counter_blocks]
        #: Non-volatile on-chip root register (8 B).
        self.root_register: bytes = self._hash_node(
            self.current_node_bytes((1, 0))
        )

    # ------------------------------------------------------------------
    # genesis values
    # ------------------------------------------------------------------

    def _genesis_key(self, node: NodeId) -> NodeId:
        """Memo key for ``node``'s genesis value.

        A complete subtree's genesis value depends on its level alone,
        so it shares the entry of its level's leftmost node. A partial
        one (on the tree's right edge) can differ from every other node
        at its level, even one with the same child count, because a
        descendant may be partial too; it is keyed by itself.
        """
        level, index = node
        if index < self._complete_nodes[level]:
            return (level, 0)
        return node

    def _genesis_node_bytes(self, node: NodeId) -> bytes:
        """Node contents implied by an all-zero counter space."""
        key = self._genesis_key(node)
        value = self._genesis_nodes.get(key)
        if value is None:
            value = b"".join(
                self._genesis_digest(child)
                for child in self.geometry.children(node)
            )
            value += bytes(NODE_BYTES - len(value))  # zero-fill edge slots
            self._genesis_nodes[key] = value
        return value

    def _genesis_digest(self, node: NodeId) -> bytes:
        """Keyed hash of the genesis value of a node or counter line."""
        key = self._genesis_key(node)
        digest = self._genesis_digests.get(key)
        if digest is None:
            if key[0] == self.geometry.counter_level:
                digest = self._hash_node(_ZERO_COUNTER_LINE)
            else:
                digest = self._hash_node(self._genesis_node_bytes(node))
            self._genesis_digests[key] = digest
        return digest

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
        value = self._volatile_nodes.get(node)
        if value is not None:
            return value
        return self.persisted_node_bytes(node)

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
        freshly written parent (the splice tests rely on this).
        """
        if path is None:
            path = self.geometry.ancestors_of_counter(counter_index)
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
            if node in self._volatile_nodes:
                self.persist_node(node)
                written += 1
        return written

    def dirty_nodes(self) -> List[NodeId]:
        return list(self._volatile_nodes.keys())

    def dirty_counters(self) -> List[int]:
        return list(self._volatile_counters.keys())

    # ------------------------------------------------------------------
    # crash and verification
    # ------------------------------------------------------------------

    def crash(self) -> Tuple[int, int]:
        """Power loss: the volatile overlay vanishes.

        Returns (lost_counter_lines, lost_node_lines) for reporting.
        The non-volatile root register survives by construction.
        """
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

        ``nodes_recomputed`` is the modeled hardware work: every node
        of the subtree. The host work follows the written footprint
        instead. Only the counter lines the backend stores are hashed,
        and only their ancestors plus the tree nodes the backend or the
        volatile overlay holds are recomputed and written back. Every
        other node has only unwritten counters below it and is neither
        stored nor dirty, so it already reads back as its genesis value,
        which is exactly what a full rebuild would write; its parent
        takes its genesis digest.
        """
        geometry = self.geometry
        level, index = subtree
        arity = geometry.arity
        counter_level = geometry.counter_level
        first, last = geometry.counter_range_of(subtree)
        hash_node = self._hash_node
        line_of = self.persisted_counter_bytes
        # Digests of the recomputed entries at the current level, by
        # index; counter lines first.
        digests = {
            i: hash_node(line_of(i))
            for i in self.backend.keys(MetadataRegion.COUNTERS)
            if first <= i < last
        }
        # Stored or dirty nodes inside the subtree, by level. A WPQ
        # rollback can leave a stored node above counters that are back
        # to unwritten; it is stale like any other and is rewritten.
        held: Dict[int, List[int]] = {}
        for node_level, node_index in chain(
            self.backend.keys(MetadataRegion.TREE), self._volatile_nodes
        ):
            if (
                level <= node_level < counter_level
                and node_index // arity ** (node_level - level) == index
            ):
                held.setdefault(node_level, []).append(node_index)
        genesis_digest = self._genesis_digest
        write = self.backend.write
        width = last - first
        nodes_recomputed = 0
        for current_level in range(counter_level - 1, level - 1, -1):
            width = ceil_div(width, arity)
            nodes_recomputed += width
            touched = {i // arity for i in digests}
            touched.update(held.get(current_level, ()))
            parent_digests = {}
            for node_index in sorted(touched):
                node_id: NodeId = (current_level, node_index)
                node_value = b"".join(
                    digests.get(child[1]) or genesis_digest(child)
                    for child in geometry.children(node_id)
                )
                node_value += bytes(NODE_BYTES - len(node_value))
                write(MetadataRegion.TREE, node_id, node_value)
                self._volatile_nodes.pop(node_id, None)
                parent_digests[node_index] = hash_node(node_value)
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
        return value

    def repair_ancestors(self, anchors: Iterable[NodeId]) -> int:
        """Recompute and persist the union of ``anchors``' strict
        ancestors, each node once, deepest level first, so every node
        reads its children's repaired values. The recovery step above
        AMNT's subtree registers and BMF's persistent root set. Returns
        the number of nodes recomputed."""
        geometry = self.geometry
        ancestors = set()
        for node in anchors:
            while node[0] > 1:
                node = geometry.parent(node)
                if node in ancestors:
                    break  # its own ancestors are in the set already
                ancestors.add(node)
        for node in sorted(ancestors, reverse=True):
            self.recompute_and_persist(node)
        return len(ancestors)

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
