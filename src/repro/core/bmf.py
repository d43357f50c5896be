"""Bonsai Merkle Forest (Freij et al., and §2.3/§7.3).

BMF extends the single NV root register into a small non-volatile
on-chip cache holding a *persistent root set*: an antichain of BMT
nodes that together cover every leaf. A data write persists its
counter, HMAC, and the tree nodes up to (but excluding) the nearest
persistent root — that root's value lives on-chip in NV storage and is
updated for free. Recovery is instant: nothing below a persistent root
can be stale.

The set adapts on an access-count interval: the hottest root is
**pruned** into its children (shortening persist paths under it, at the
cost of ``arity - 1`` extra NV entries), and cold full-sibling groups
are **merged** back into their parent to reclaim space. Because the set
must always cover *all* leaves, BMF cannot give any region true leaf
persistence — every write still write-throughs part of its path. That
full-coverage obligation is exactly why the paper finds BMF tracking
strict persistence on write-intensive workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.protocol import MetadataPersistencePolicy, register_protocol
from repro.errors import CrashConsistencyError, SimulationError
from repro.integrity.geometry import NodeId


@register_protocol
class BMFProtocol(MetadataPersistencePolicy):
    """Persistent-root-set persistence with prune/merge adaptation."""

    name = "bmf"

    def _on_bind(self) -> None:
        geometry = self.mee.geometry
        self._capacity = self.config.bmf.root_set_entries
        self._adjust_interval = self.config.bmf.adjust_interval
        self._writes_since_adjust = 0
        #: The persistent root set: node -> access count this interval.
        #: ``trusted_nodes()`` hands this dict to the engine, so it is
        #: only ever updated in place.
        self._root_counts: Dict[NodeId, int] = {(1, 0): 0}
        #: NV-cached node values (functional mode only).
        self._root_values: Dict[NodeId, bytes] = {}
        if self.mee.functional:
            self._root_values[(1, 0)] = self.mee.tree.current_node_bytes((1, 0))
        self._deepest_prunable = geometry.num_node_levels
        # Resolved on the first write, so a run without one reports no
        # zero-valued key.
        self._ctr_covered = None

    # ------------------------------------------------------------------
    # root set queries
    # ------------------------------------------------------------------

    def persistent_roots(self) -> List[NodeId]:
        return sorted(self._root_counts)

    def nearest_persistent_root(self, path: List[NodeId]) -> NodeId:
        """First ancestor (bottom-up) in the root set.

        The coverage invariant guarantees one exists on every path.
        """
        for node in path:
            if node in self._root_counts:
                return node
        raise SimulationError(
            "BMF coverage invariant violated: no persistent root on path"
        )

    def covers_all_leaves(self) -> bool:
        """Invariant check used by tests: the root set covers every
        counter block exactly once (it is an antichain cut)."""
        geometry = self.mee.geometry
        covered = 0
        spans = []
        for node in self._root_counts:
            first, last = geometry.counter_range_of(node)
            spans.append((first, last))
            covered += last - first
        spans.sort()
        previous_end = 0
        for first, last in spans:
            if first != previous_end:
                return False
            previous_end = last
        return previous_end == geometry.num_counter_blocks

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        root = self.nearest_persistent_root(path)
        cycles = mee.persist_leaf(counter_index, block_index)
        cycles += mee.persist_path(path, upto=path.index(root))
        self._root_counts[root] += 1
        if mee.functional:
            # The on-chip NV entry absorbs the root's new value.
            self._root_values[root] = mee.tree.current_node_bytes(root)
        counter = self._ctr_covered
        if counter is None:
            counter = self._ctr_covered = self.stats.counter("covered_persists")
        counter.value += 1
        self._writes_since_adjust += 1
        if self._writes_since_adjust >= self._adjust_interval:
            self._writes_since_adjust = 0
            self._adjust()
        return cycles

    def trusted_nodes(self) -> Dict[NodeId, int]:
        return self._root_counts

    def save_anchors(self):
        return dict(self._root_counts), dict(self._root_values)

    def restore_anchors(self, saved) -> None:
        counts, values = saved
        self._root_counts.clear()
        self._root_counts.update(counts)
        self._root_values.clear()
        self._root_values.update(values)

    # ------------------------------------------------------------------
    # prune / merge
    # ------------------------------------------------------------------

    def _adjust(self) -> None:
        """Interval maintenance: prune the hottest root (making space by
        merging the coldest full-sibling group if needed), then decay
        every counter."""
        hottest = max(self._root_counts, key=self._root_counts.get)
        total = sum(self._root_counts.values())
        # Only prune a root that is both meaningfully hot and prunable
        # (its children must be tree nodes, not counter blocks).
        if (
            self._root_counts[hottest] * 2 >= total > 0
            and hottest[0] < self._deepest_prunable
        ):
            needed = self.mee.geometry.arity - 1
            if len(self._root_counts) + needed > self._capacity:
                self._merge_coldest(exclude=hottest)
            if len(self._root_counts) + needed <= self._capacity:
                self._prune(hottest)
        for node in self._root_counts:
            self._root_counts[node] //= 2
        self.stats.add("adjust_intervals")

    def _prune(self, root: NodeId) -> None:
        """Replace ``root`` with its children in the set."""
        geometry = self.mee.geometry
        count = self._root_counts.pop(root)
        self._root_values.pop(root, None)
        children = list(geometry.children(root))
        share = count // max(1, len(children))
        for child in children:
            self._root_counts[child] = share
            if self.mee.functional:
                self._root_values[child] = self.mee.tree.current_node_bytes(child)
        # The nodes between the old root and its children (none — they
        # are direct children) need no fixing, but the old root's value
        # must now live in memory: persist it so the tree above stays
        # connected for verification walks that miss the register.
        self.mee.persist_tree_node(root)
        self.stats.add("prunes")

    def _merge_coldest(self, exclude: NodeId) -> None:
        """Merge the coldest full-sibling group into its parent."""
        geometry = self.mee.geometry
        by_parent: Dict[NodeId, List[NodeId]] = {}
        for node in self._root_counts:
            if node == (1, 0):
                continue
            by_parent.setdefault(geometry.parent(node), []).append(node)
        candidate: Optional[NodeId] = None
        candidate_heat = None
        for parent, members in by_parent.items():
            expected = sum(1 for _ in geometry.children(parent))
            if len(members) != expected or exclude in members:
                continue
            heat = sum(self._root_counts[m] for m in members)
            if candidate_heat is None or heat < candidate_heat:
                candidate, candidate_heat = parent, heat
        if candidate is None:
            return
        members = by_parent[candidate]
        merged_count = 0
        for member in members:
            merged_count += self._root_counts.pop(member)
            self._root_values.pop(member, None)
            # Children values move from NV cache into memory.
            self.mee.persist_tree_node(member)
        self._root_counts[candidate] = merged_count
        if self.mee.functional:
            self._root_values[candidate] = self.mee.tree.current_node_bytes(
                candidate
            )
        self.stats.add("merges")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        return 0.0  # full coverage: nothing below a persistent root is stale

    def recover(self, tree):
        """Restore root values from NV storage, fix the levels above."""
        from repro.core.recovery import RecoveryOutcome

        from repro.mem.backend import MetadataRegion

        for node, value in self._root_values.items():
            tree.backend.write(MetadataRegion.TREE, node, value)
        fixed = len(self._root_values) + tree.repair_ancestors(self._root_counts)
        root_bytes = tree.persisted_node_bytes((1, 0))
        if tree.engine.hash8(root_bytes) != tree.root_register:
            raise CrashConsistencyError(
                "BMF recovery: reconstructed root contradicts the register"
            )
        return RecoveryOutcome(
            protocol=self.name, ok=True, nodes_recomputed=fixed
        )

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------

    def area_overhead(self):
        from repro.core.area import AreaOverhead

        frequency_bits = (
            self.config.metadata_cache.num_lines
            * self.config.bmf.frequency_counter_bits
        )
        return AreaOverhead(
            protocol=self.name,
            nonvolatile_on_chip_bytes=self.config.bmf.root_set_bytes,
            volatile_on_chip_bytes=frequency_bits // 8,
            in_memory_bytes=0,
        )
