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

The register is a *slot*: it holds one region from adoption to
retirement. :class:`AMNTProtocol` is written for ``S`` slots — a
selection (:meth:`~AMNTProtocol._select`) names the next fast set,
:meth:`~AMNTProtocol._retire` makes each leaving region strict and
frees its slot, :meth:`~AMNTProtocol._adopt` puts each joining region
in a free slot — and AMNT itself has ``S = 1``.
:class:`AMNTMultiProtocol` is the "per-core subtrees" alternative the
paper rejects in §5, with ``S`` slots and a top-``S`` selection; it is
here so the rejection can be measured rather than asserted.

After a crash only the regions in the slots are stale; recovery
rebuilds each from the (always persisted) counters, checks the rebuilt
value against its NV register, then repairs the levels above and checks
the global root — time bounded by the region size, i.e. by the
configured level (Table 4's AMNT rows), times ``S``.

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
    #: The counters an adoption and a retirement bump: AMNT's one
    #: register moves on each adoption, and the multi-subtree variant
    #: counts adoptions and retirements apart.
    adopt_stat = "movements"
    retire_stat: Optional[str] = None

    def subtree_count(self) -> int:
        """``S``: the fast subtrees, one NV register each."""
        return 1

    def _on_bind(self) -> None:
        self.subtree_level = self.config.amnt.subtree_level
        self.history = HistoryBuffer(self.config.amnt.history_buffer_entries)
        self._movement_interval = self.config.amnt.movement_interval_writes
        self._writes_since_selection = 0
        count = self.subtree_count()
        #: Slot ``s`` holds the subtree root ``(subtree_level, region)``
        #: register ``s`` anchors, from adoption to retirement, else
        #: None. The per-event membership tests read this list, and it
        #: is the container ``trusted_nodes()`` hands the engine, so it
        #: is only ever updated in place.
        self._slots: List[Optional[NodeId]] = [None] * count
        allocate = self.mee.registers.allocate
        self._registers = [allocate("amnt_subtree_root", 64)] + [
            allocate(f"amnt_subtree_root_{slot}", 64)
            for slot in range(1, count)
        ]
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
    def active_regions(self) -> List[int]:
        """The fast regions, in slot order."""
        return [node[1] for node in self._slots if node is not None]

    @property
    def current_region(self) -> Optional[int]:
        """The first slot's region: AMNT's one subtree."""
        node = self._slots[0]
        return None if node is None else node[1]

    def subtree_node(self) -> Optional[NodeId]:
        return self._slots[0]

    def in_subtree(self, counter_index: int) -> bool:
        node = (self.subtree_level, self.region_of_counter(counter_index))
        return node in self._slots

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    #
    # The engine has already dirtied the write's path below the first
    # node in ``trusted_nodes()``. Inside a fast subtree that node is the
    # subtree root, whose register absorbs the new value; the levels
    # above are reconciled only on retirement. ``path`` runs from the
    # deepest level up to the root, so ``path[-subtree_level]`` is the
    # level-L ancestor, ``(subtree_level, region_of_counter(...))``
    # without re-deriving.

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        subtree = path[-self.subtree_level]
        # Every write persists its leaf pair (counter + HMAC)...
        cycles = mee.persist_leaf(counter_index, block_index)
        if subtree in self._slots:
            # ...which inside a fast subtree is all it persists.
            if mee.functional:
                self._registers[self._slots.index(subtree)].write(
                    mee.engine.hash8(mee.tree.current_node_bytes(subtree)),
                    tag=subtree,
                )
            self._ctr_subtree_hits.value += 1
        else:
            # Strict persistence outside it (ordered tree walk).
            cycles += mee.persist_path(path)
            self._ctr_subtree_misses.value += 1

        # The write's own persists are complete here; everything below
        # (history tracking, possible subtree movement) is separately
        # crashable maintenance, so injected failures in that tail must
        # find the write already durable.
        mee.commit_persist_group()

        # Hot-region tracking runs off the critical path (§4.2); its
        # buffer update costs no cycles here, only the rare movement
        # traffic does.
        self.history.record(subtree[1])
        self._writes_since_selection += 1
        if self._writes_since_selection >= self._movement_interval:
            self._writes_since_selection = 0
            cycles += self._reselect()
        return cycles

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def trusted_nodes(self) -> List[Optional[NodeId]]:
        return self._slots

    def save_anchors(self) -> List[Optional[NodeId]]:
        return list(self._slots)

    def restore_anchors(self, saved: List[Optional[NodeId]]) -> None:
        self._slots[:] = saved

    # ------------------------------------------------------------------
    # subtree selection and movement
    # ------------------------------------------------------------------

    def _select(self) -> List[int]:
        """The next interval's fast regions: the history buffer's head
        (§4.2)."""
        return [self.history.head_region()]

    def _reselect(self) -> int:
        """End of a selection interval: retire the fast regions the
        selection drops, then adopt the ones it adds (§4.2)."""
        target = self._select()
        self.history.reset_interval(keep_region=self.history.head_region())
        self.stats.add("selection_intervals")
        active = self.active_regions
        leaving = [region for region in active if region not in target]
        joining = [region for region in target if region not in active]
        if not leaving and not joining:
            return 0
        self.fire_phase("amnt_movement")  # relocation begins
        cycles = 0
        for region in leaving:
            cycles += self._retire(region)
        for region in joining:
            self._adopt(region)
        # A slot no region took stops anchoring its retired one, whose
        # later strict writes would otherwise contradict the register.
        for slot, node in enumerate(self._slots):
            if node is None:
                self._registers[slot].tag = None
        return cycles

    def _retire(self, region: int) -> int:
        """Make ``region`` strict-consistent and free its slot: persist
        its dirty interior, then its root and the path from it to the
        global root. Its register keeps anchoring it until another
        region takes the slot."""
        mee = self.mee
        cycles = 0
        old = (self.subtree_level, region)
        # 1. Dirty-bit scan: under AMNT only fast-subtree nodes can be
        #    dirty, so the scan yields exactly the lines to flush.
        dirty = mee.mdcache.dirty_nodes_matching(
            lambda level, index: self._node_in_subtree(level, index, old)
        )
        for level, index in dirty:
            self.fire_phase("amnt_movement")  # mid-flush window
            cycles += mee.persist_tree_node((level, index))
            self.stats.add("movement_flushes")
        # 2. Persist the old subtree root's value and the path from it
        #    to the global root.
        node = old
        cycles += mee.persist_tree_node(node)
        while node[0] > 1:
            node = mee.geometry.parent(node)
            # In functional mode the volatile overlay already holds the
            # up-to-date upper-path values (the tree propagates every
            # counter update), so persisting the line is the whole
            # reconciliation.
            cycles += mee.persist_tree_node(node)
        self._slots[self._slots.index(old)] = None
        if self.retire_stat is not None:
            self.stats.add(self.retire_stat)
        return cycles

    def _adopt(self, region: int) -> None:
        """Put ``region`` in a free slot and point its register at it."""
        mee = self.mee
        # Last crash window before the (atomic) register retarget: a
        # region retired into this slot is fully persisted, but the NV
        # register still anchors it.
        self.fire_phase("amnt_movement")
        slot = self._slots.index(None)
        self._slots[slot] = node = (self.subtree_level, region)
        if mee.functional:
            value = mee.engine.hash8(mee.tree.current_node_bytes(node))
        else:
            value = b""
        self._registers[slot].write(value, tag=node)
        self.stats.add(self.adopt_stat)

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
        """``S`` subtree regions of memory / arity**(level-1) each.

        Reads the level from the configuration (not the bound engine)
        so the analytic Table 4 model can query unbound protocols.
        """
        level = self.config.amnt.subtree_level
        regions = self.config.security.tree_arity ** (level - 1)
        return memory_bytes * min(self.subtree_count(), regions) / regions

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        anchored = [r for r in self._registers if r.tag is not None]
        if not anchored:
            return RecoveryOutcome(
                protocol=self.name, ok=True, nodes_recomputed=0,
                detail="no subtree selected; nothing stale",
            )
        nodes = 0
        subtrees = []
        for register in anchored:
            subtree = tuple(register.tag)
            rebuilt_bytes, count = tree.subtree_value_from_persisted(subtree)
            nodes += count
            if tree.engine.hash8(rebuilt_bytes) != register.read():
                return RecoveryOutcome(
                    protocol=self.name,
                    ok=False,
                    nodes_recomputed=nodes,
                    detail="rebuilt subtree contradicts the NV subtree register",
                )
            subtrees.append(subtree)
        nodes += tree.repair_ancestors(subtrees)
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
            # One 64 B subtree root register per slot: linear in S, the
            # hardware-cost objection to the multi-subtree design.
            nonvolatile_on_chip_bytes=64 * self.subtree_count(),
            volatile_on_chip_bytes=self.history.area_bits // 8,
            in_memory_bytes=0,
        )


class AMNTMultiProtocol(AMNTProtocol):
    """AMNT with ``S = config.amnt.multi_subtrees`` fast subtrees (the
    hardware-heavy per-core alternative of §5; it needs no OS change)."""

    name = "amnt-multi"
    adopt_stat = "adoptions"
    retire_stat = "movements"

    def subtree_count(self) -> int:
        return self.config.amnt.multi_subtrees

    def _select(self) -> List[int]:
        """The top ``S`` regions by count; incumbents win ties, so a
        stable fast set never churns on noise."""
        counts = dict(self.history.contents())
        active = self.active_regions
        ranked = sorted(
            counts,
            key=lambda region: (-counts[region], region not in active, region),
        )
        return ranked[: self.subtree_count()]


register_protocol(AMNTProtocol)
register_protocol(AMNTProtocol, alias="amnt++", modified_os=True)
register_protocol(AMNTMultiProtocol)
