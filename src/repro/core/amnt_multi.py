"""Multi-subtree AMNT: the "per-core subtrees" alternative (§5).

The paper considers giving each core its own fast subtree to handle
multiprogram interference, and rejects it: "such a solution would
result in complex and large hardware requirements for devices with
hundreds of cores", choosing the AMNT++ software fix instead. This
module implements the rejected design so the trade-off can be measured
rather than asserted (see ``benchmarks/test_ablation_multi_subtree.py``).

``AMNTMultiProtocol`` maintains ``S = config.amnt.multi_subtrees``
non-volatile subtree registers. The history buffer is shared; at each
selection interval the top-``S`` regions by count become the fast set
(the incumbent set wins ties, subsets move incrementally). A write
inside *any* fast subtree gets leaf persistence; everything else is
strict. Recovery must rebuild all ``S`` regions — both the NV area and
the recovery bound scale linearly with ``S``, which is exactly the
hardware-cost objection quantified by ``area_overhead``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.amnt import AMNTProtocol
from repro.core.protocol import register_protocol
from repro.integrity.geometry import NodeId


class AMNTMultiProtocol(AMNTProtocol):
    """AMNT with ``S`` concurrent fast subtrees (hardware-heavy)."""

    name = "amnt-multi"
    benefits_from_modified_os = False  # the point: no OS change needed

    def _on_bind(self) -> None:
        super()._on_bind()
        self.num_subtrees = self.config.amnt.multi_subtrees
        #: region index -> NV register name; the single base-class
        #: register serves slot 0, extras are allocated here.
        self._active_regions: List[int] = []
        self._extra_registers = [
            self.mee.registers.allocate(f"amnt_subtree_root_{slot}", 64)
            for slot in range(1, self.num_subtrees)
        ]

    # ------------------------------------------------------------------
    # fast-set membership
    # ------------------------------------------------------------------

    @property
    def active_regions(self) -> List[int]:
        return list(self._active_regions)

    def in_subtree(self, counter_index: int) -> bool:
        return self.region_of_counter(counter_index) in self._active_regions

    def subtree_node(self) -> Optional[NodeId]:
        """The base-class hook: used for register updates on in-subtree
        writes; resolved per-write via the current counter's region in
        :meth:`path_update_extent`/:meth:`on_data_write`, so here we
        report the most recent region only (slot 0)."""
        if not self._active_regions:
            return None
        return (self.subtree_level, self._active_regions[0])

    def path_update_extent(
        self, counter_index: int, path: List[NodeId]
    ) -> List[NodeId]:
        level = self.subtree_level
        if path[-level][1] not in self._active_regions:
            return path
        return [node for node in path if node[0] > level]

    def trusted_register_node(self, node: NodeId, counter_index: int) -> bool:
        level, index = node
        return level == self.subtree_level and index in self._active_regions

    # ------------------------------------------------------------------
    # write path (region-aware register updates)
    # ------------------------------------------------------------------

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        region = path[-self.subtree_level][1]
        cycles = mee.persist_leaf(counter_index, block_index)
        if region in self._active_regions:
            if mee.functional:
                node = (self.subtree_level, region)
                self._register_for(region).write(
                    mee.engine.hash8(mee.tree.current_node_bytes(node)),
                    tag=node,
                )
            self._ctr_subtree_hits.value += 1
        else:
            for node in path:
                cycles += mee.persist_tree_node(node)
            self._ctr_subtree_misses.value += 1

        self.history.record(region)
        self._writes_since_selection += 1
        if self._writes_since_selection >= self._movement_interval:
            self._writes_since_selection = 0
            cycles += self._select_fast_set()
        return cycles

    def _register_for(self, region: int):
        slot = self._active_regions.index(region)
        if slot == 0:
            return self._register
        return self._extra_registers[slot - 1]

    # ------------------------------------------------------------------
    # selection: top-S regions, incumbents win ties
    # ------------------------------------------------------------------

    def _select_fast_set(self) -> int:
        counts: Dict[int, int] = {}
        for region, count in self.history.contents():
            counts[region] = counts.get(region, 0) + count
        head = self.history.head_region()
        self.history.reset_interval(keep_region=head)
        self.stats.add("selection_intervals")
        if not counts:
            return 0
        # Incumbents get a tie-break bonus so a stable fast set never
        # churns on noise.
        ranked = sorted(
            counts,
            key=lambda region: (
                -counts[region],
                region not in self._active_regions,
                region,
            ),
        )
        target = ranked[: self.num_subtrees]
        cycles = 0
        for region in list(self._active_regions):
            if region not in target:
                cycles += self._retire_region(region)
        for region in target:
            if region not in self._active_regions:
                if len(self._active_regions) >= self.num_subtrees:
                    break
                self._adopt_region(region)
        return cycles

    def _retire_region(self, region: int) -> int:
        """Old fast region becomes strict again: flush its interior and
        reconcile its path upward (same procedure as a base-class
        movement)."""
        mee = self.mee
        subtree = (self.subtree_level, region)
        cycles = 0
        dirty = mee.mdcache.dirty_nodes_matching(
            lambda level, index: self._node_in_subtree(level, index, subtree)
        )
        for level, index in dirty:
            cycles += mee.persist_tree_node((level, index))
            self.stats.add("movement_flushes")
        node = subtree
        cycles += mee.persist_tree_node(node)
        while node[0] > 1:
            node = mee.geometry.parent(node)
            cycles += mee.persist_tree_node(node)
        self._active_regions.remove(region)
        self.stats.add("movements")
        return cycles

    def _adopt_region(self, region: int) -> None:
        self._active_regions.append(region)
        node = (self.subtree_level, region)
        register = self._register_for(region)
        if self.mee.functional:
            register.write(
                self.mee.engine.hash8(self.mee.tree.current_node_bytes(node)),
                tag=node,
            )
        else:
            register.write(b"", tag=node)
        self.stats.add("adoptions")

    # ------------------------------------------------------------------
    # recovery: S regions are stale
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        level = self.config.amnt.subtree_level
        regions = self.config.security.tree_arity ** (level - 1)
        count = min(self.config.amnt.multi_subtrees, regions)
        return memory_bytes * count / regions

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        nodes = 0
        registers = [self._register] + self._extra_registers
        for register in registers:
            if register.tag is None:
                continue
            subtree = tuple(register.tag)
            rebuilt, count = tree.subtree_value_from_persisted(subtree)
            nodes += count
            if tree.engine.hash8(rebuilt) != register.read():
                return RecoveryOutcome(
                    protocol=self.name,
                    ok=False,
                    nodes_recomputed=nodes,
                    detail=f"subtree {subtree} contradicts its NV register",
                )
            node = subtree
            while node[0] > 1:
                node = tree.geometry.parent(node)
                tree.recompute_and_persist(node)
                nodes += 1
        root_bytes = tree.persisted_node_bytes((1, 0))
        ok = tree.engine.hash8(root_bytes) == tree.root_register
        return RecoveryOutcome(
            protocol=self.name,
            ok=ok,
            nodes_recomputed=nodes,
            detail="" if ok else "global root mismatch after repair",
        )

    # ------------------------------------------------------------------
    # the hardware-cost objection, quantified
    # ------------------------------------------------------------------

    def area_overhead(self):
        from repro.core.area import AreaOverhead

        return AreaOverhead(
            protocol=self.name,
            # One 64 B NV register per concurrent subtree.
            nonvolatile_on_chip_bytes=64 * self.num_subtrees,
            volatile_on_chip_bytes=self.history.area_bits // 8,
            in_memory_bytes=0,
        )


register_protocol(AMNTMultiProtocol)
