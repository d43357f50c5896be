"""A Midsummer Night's Tree (AMNT): the paper's contribution (§4).

AMNT splits the BMT into a *main tree* under strict persistence and one
dynamically chosen *fast subtree* under leaf persistence — a "tree
within a tree". The subtree root sits at a BIOS-configured level
(level 3 by default: 64 candidate regions of 128 MB each for 8 GB) and
its node value lives in a 64 B non-volatile on-chip register, making it
a second root of trust:

* **in-subtree writes** persist only the counter and HMAC; path nodes
  below the subtree root stay dirty in the metadata cache and the
  register absorbs the new subtree hash on-chip — leaf-persistence
  cost;
* **out-of-subtree writes** write the whole ancestral path through to
  NVM — strict-persistence cost, incurred rarely if the hot-region
  assumption holds;
* **reads** of in-subtree data verify only up to the subtree register,
  a shorter walk.

A 96-byte history buffer tracks which region receives the most writes;
every ``movement_interval`` writes the head region is adopted as the
new subtree. Movement first makes the old subtree strict-consistent:
the metadata cache's dirty bits identify exactly the in-subtree nodes
to flush (nothing else can be dirty under AMNT), and the path from the
old subtree root to the global root is recomputed and persisted.

After a crash only the current subtree region is stale; recovery
rebuilds it from the (always persisted) counters, checks the rebuilt
value against the NV subtree register, then repairs the levels above
and checks the global root — time bounded by the region size, i.e. by
the configured level (Table 4's AMNT rows).

Fidelity note: the functional tree overlay keeps *all* ancestors
current, so a strict write that persists a node above the live subtree
stores a value already reflecting in-subtree updates, which real AMNT
hardware would not compute until movement. This only makes persisted
state fresher than strictly required; recovery and timing behaviour
are unaffected (recovery recomputes those levels regardless).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.history_buffer import HistoryBuffer
from repro.core.protocol import MetadataPersistencePolicy, register_protocol
from repro.integrity.geometry import NodeId


class AMNTProtocol(MetadataPersistencePolicy):
    """Dynamic hybrid metadata persistence with hot-region tracking."""

    name = "amnt"
    benefits_from_modified_os = True
    has_trusted_registers = True

    def _on_bind(self) -> None:
        geometry = self.mee.geometry
        self.subtree_level = self.config.amnt.subtree_level
        self.num_regions = geometry.nodes_at_level(self.subtree_level)
        self.history = HistoryBuffer(self.config.amnt.history_buffer_entries)
        self._movement_interval = self.config.amnt.movement_interval_writes
        self._writes_since_selection = 0
        self._current_region: Optional[int] = None
        #: ``(subtree_level, current region)``, or None before the first
        #: adoption; :meth:`_move_to` retargets it with the region.
        self._subtree_node: Optional[NodeId] = None
        self._register = self.mee.registers.allocate("amnt_subtree_root", 64)
        # Per-memory-write counters, pre-resolved off the hot path.
        self._ctr_subtree_hits = self.stats.counter("subtree_hits")
        self._ctr_subtree_misses = self.stats.counter("subtree_misses")

    # ------------------------------------------------------------------
    # region arithmetic
    # ------------------------------------------------------------------

    def region_of_counter(self, counter_index: int) -> int:
        return self.mee.geometry.ancestor_at_level(
            counter_index, self.subtree_level
        )

    def region_of_frame(self, frame: int, page_bytes: int = 4096) -> int:
        """Subtree region of a physical frame — the mapping AMNT++'s
        allocator bias is expressed in."""
        region_bytes = self.mee.geometry.region_bytes(self.subtree_level)
        return (frame * page_bytes) // region_bytes

    @property
    def current_region(self) -> Optional[int]:
        return self._current_region

    def subtree_node(self) -> Optional[NodeId]:
        return self._subtree_node

    def in_subtree(self, counter_index: int) -> bool:
        return (
            self._current_region is not None
            and self.region_of_counter(counter_index) == self._current_region
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    #
    # The per-write hooks read a counter's region off the ancestor path
    # the engine hands them: ``path`` runs from the deepest level up to
    # the root, so ``path[-subtree_level]`` is the level-L ancestor —
    # the value :meth:`region_of_counter` derives, without re-deriving.

    def path_update_extent(
        self, counter_index: int, path: List[NodeId]
    ) -> List[NodeId]:
        if path[-self.subtree_level][1] != self._current_region:
            return path
        # Strictly below the subtree root: the register holds the
        # subtree root itself, and levels above are reconciled only on
        # movement.
        level = self.subtree_level
        return [node for node in path if node[0] > level]

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        region = path[-self.subtree_level][1]
        # Every write persists its leaf pair (counter + HMAC)...
        cycles = mee.persist_leaf(counter_index, block_index)
        if region == self._current_region:
            # ...which inside the fast subtree is all it persists.
            if mee.functional:
                subtree = self._subtree_node
                self._register.write(
                    mee.engine.hash8(mee.tree.current_node_bytes(subtree)),
                    tag=subtree,
                )
            self._ctr_subtree_hits.value += 1
        else:
            # Strict persistence outside it (ordered tree walk).
            for node in path:
                cycles += mee.persist_tree_node(node)
            self._ctr_subtree_misses.value += 1

        # The write's own persists are complete here; everything below
        # (history tracking, possible subtree movement) is separately
        # crashable maintenance, so injected failures in that tail must
        # find the write already durable.
        mee.commit_persist_group()

        # Hot-region tracking runs off the critical path (§4.2); its
        # buffer update costs no cycles here, only the rare movement
        # traffic does.
        self.history.record(region)
        self._writes_since_selection += 1
        if self._writes_since_selection >= self._movement_interval:
            self._writes_since_selection = 0
            cycles += self._select_subtree()
        return cycles

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def trusted_register_node(self, node: NodeId, counter_index: int) -> bool:
        return node == self._subtree_node

    # ------------------------------------------------------------------
    # subtree selection and movement
    # ------------------------------------------------------------------

    def _select_subtree(self) -> int:
        candidate = self.history.head_region()
        self.history.reset_interval(keep_region=candidate)
        self.stats.add("selection_intervals")
        if candidate is None or candidate == self._current_region:
            return 0
        return self._move_to(candidate)

    def _move_to(self, new_region: int) -> int:
        """Transition T -> T': persist T's interior and upper path,
        then retarget the register (§4.2)."""
        mee = self.mee
        cycles = 0
        old = self.subtree_node()
        self.fire_phase("amnt_movement")  # relocation begins
        if old is not None:
            # 1. Dirty-bit scan: under AMNT only in-subtree nodes can be
            #    dirty, so the scan yields exactly the lines to flush.
            dirty = mee.mdcache.dirty_nodes_matching(
                lambda level, index: self._node_in_subtree(level, index, old)
            )
            for level, index in dirty:
                self.fire_phase("amnt_movement")  # mid-flush window
                cycles += mee.persist_tree_node((level, index))
                self.stats.add("movement_flushes")
            # 2. Persist the old subtree root's value and the path from
            #    it to the global root.
            node = old
            cycles += mee.persist_tree_node(node)
            while node[0] > 1:
                node = mee.geometry.parent(node)
                # In functional mode the volatile overlay already holds
                # the up-to-date upper-path values (the tree propagates
                # every counter update), so persisting the line is the
                # whole reconciliation.
                cycles += mee.persist_tree_node(node)
        # Last crash window before the (atomic) register retarget: the
        # old subtree and its upper path are fully persisted, but the NV
        # register still anchors the old region.
        self.fire_phase("amnt_movement")
        self._current_region = new_region
        self._subtree_node = new_node = (self.subtree_level, new_region)
        if mee.functional:
            self._register.write(
                mee.engine.hash8(mee.tree.current_node_bytes(new_node)),
                tag=new_node,
            )
        else:
            self._register.write(b"", tag=new_node)
        self.stats.add("movements")
        return cycles

    def _node_in_subtree(self, level: int, index: int, subtree: NodeId) -> bool:
        subtree_level, subtree_index = subtree
        if level <= subtree_level:
            return False
        if level == self.mee.geometry.counter_level:
            span = self.mee.geometry.counters_covered_by(subtree_level)
        else:
            span = self.mee.geometry.arity ** (level - subtree_level)
        return index // span == subtree_index

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        """One subtree region: memory / arity**(level-1).

        Reads the level from the configuration (not the bound engine)
        so the analytic Table 4 model can query unbound protocols.
        """
        level = self.config.amnt.subtree_level
        regions = self.config.security.tree_arity ** (level - 1)
        return memory_bytes / regions

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        subtree = self._register.tag
        if subtree is None:
            return RecoveryOutcome(
                protocol=self.name, ok=True, nodes_recomputed=0,
                detail="no subtree selected; nothing stale",
            )
        subtree = tuple(subtree)
        rebuilt_bytes, nodes = tree.subtree_value_from_persisted(subtree)
        if tree.engine.hash8(rebuilt_bytes) != self._register.read():
            return RecoveryOutcome(
                protocol=self.name,
                ok=False,
                nodes_recomputed=nodes,
                detail="rebuilt subtree contradicts the NV subtree register",
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
            detail="" if ok else "global root mismatch after subtree repair",
        )

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------

    def area_overhead(self):
        from repro.core.area import AreaOverhead

        return AreaOverhead(
            protocol=self.name,
            nonvolatile_on_chip_bytes=64,  # the subtree root register
            volatile_on_chip_bytes=self.history.area_bits // 8,
            in_memory_bytes=0,
        )


register_protocol(AMNTProtocol)
register_protocol(AMNTProtocol, alias="amnt++", modified_os=True)
