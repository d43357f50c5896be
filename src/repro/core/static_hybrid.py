"""Static comparators: Triad-NVM and Persist-Level Parallelism (§7.3).

The paper positions AMNT against two *static* designs:

* **Triad-NVM** (Awad et al.): "entire levels of the tree conform to a
  particular persistence protocol" — the counters, HMACs, and the
  deepest ``persist_levels`` integrity levels are written through on
  every data write; levels above stay lazy. Recovery rebuilds only the
  upper (lazy) levels from the persisted level — a static middle point
  between leaf and strict, applied to *all* addresses equally. The
  paper's critique: "these approaches miss out on potential performance
  benefits by treating all addresses the same" — measured head-to-head
  against AMNT in ``benchmarks/test_ablation_static_vs_dynamic.py``.

* **Persist-Level Parallelism** (Freij et al., MICRO'20): strict
  persistence whose path write-throughs are issued *in parallel* under
  conditions that preserve recoverability, instead of serially with
  barriers. Same persists, same (instant) recovery, much less critical
  path: one full write latency plus queue occupancy for the rest.
"""

from __future__ import annotations

from typing import List

from repro.core.protocol import MetadataPersistencePolicy, register_protocol
from repro.integrity.geometry import NodeId


@register_protocol
class TriadNVMProtocol(MetadataPersistencePolicy):
    """Static level-partitioned persistence (Triad-NVM)."""

    name = "triad"

    def _on_bind(self) -> None:
        geometry = self.mee.geometry
        persist_levels = self.config.triad.persist_levels
        #: Nodes at level >= this are written through; above is lazy.
        self.strict_above_level = max(
            2, geometry.num_node_levels - persist_levels + 1
        )
        # Resolved on the first write (no zero-valued key without one).
        self._ctr_level_persists = None

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        cycles = mee.persist_leaf(counter_index, block_index)
        # Ordered write-through of the deepest persist_levels levels
        # (the path runs bottom-up, one node per level).
        strict_nodes = len(path) - self.strict_above_level + 1
        cycles += mee.persist_path(path, upto=strict_nodes)
        counter = self._ctr_level_persists
        if counter is None:
            counter = self._ctr_level_persists = self.stats.counter(
                "level_persists"
            )
        counter.value += 1
        return cycles

    # ------------------------------------------------------------------
    # recovery: the lazy upper levels are stale
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        """All data is *covered* by stale upper levels, but rebuilding
        them only needs the persisted boundary level re-read: traffic
        is memory / arity**persist_levels of the leaf-persistence case.
        Expressed as equivalent stale data bytes for the bandwidth
        model."""
        shrink = self.config.security.tree_arity ** self.config.triad.persist_levels
        return memory_bytes / shrink

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        # Rebuild every level above the persisted boundary, bottom-up,
        # from the (consistent) persisted boundary level.
        geometry = tree.geometry
        rebuilt = 0
        for level in range(self.strict_above_level - 1, 0, -1):
            for index in range(geometry.nodes_at_level(level)):
                tree.recompute_and_persist((level, index))
                rebuilt += 1
        root_bytes = tree.persisted_node_bytes((1, 0))
        ok = tree.engine.hash8(root_bytes) == tree.root_register
        return RecoveryOutcome(
            protocol=self.name,
            ok=ok,
            nodes_recomputed=rebuilt,
            detail="" if ok else "upper-level rebuild contradicts the root",
        )


@register_protocol
class PLPProtocol(MetadataPersistencePolicy):
    """Persist-Level Parallelism: strict persists, parallel issue."""

    name = "plp"

    def _on_bind(self) -> None:
        # Resolved on the first write (no zero-valued key without one).
        self._ctr_parallel_persists = None

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        # All lines persist (same traffic and recovery as strict)...
        mee.persist_leaf(counter_index, block_index)
        mee.persist_path(path)
        # ...but issued in parallel: the critical path sees one full
        # write plus queue occupancy per extra line.
        extra_lines = 1 + len(path)  # hmac + nodes overlap the counter
        cycles = mee.nvm.write_latency_cycles
        cycles += extra_lines * mee.posted_write_cycles
        counter = self._ctr_parallel_persists
        if counter is None:
            counter = self._ctr_parallel_persists = self.stats.counter(
                "parallel_persists"
            )
        counter.value += 1
        return cycles

    def stale_data_bytes(self, memory_bytes: int) -> float:
        return 0.0  # everything persisted, as strict

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        return RecoveryOutcome(protocol=self.name, ok=True, nodes_recomputed=0)
