"""Anubis: shadow-table metadata tracking (Zubair & Awad, and §7.3).

Anubis leaves all metadata lazy in the volatile cache but mirrors the
cache's contents in an in-memory *shadow table*: one entry per metadata
cache line, holding the line's address and up-to-date value. After a
crash, only the (bounded, cache-sized) set of shadowed lines must be
repaired — recovery time is fixed at ~1.3 ms regardless of memory size
(Table 4).

The costs, as this paper characterizes them (§6.1, §7.3):

* every metadata cache **miss/fill** updates the shadow table — an NVM
  persist on the authentication critical path (the "slow path" that
  hurts low-locality workloads like *canneal*);
* every **update** to a cached metadata line (i.e. every data write's
  counter bump) must be reflected in its shadow entry atomically with
  the tree update — traffic that is issued on every write, though
  back-to-back updates of one line rewrite the same shadow entry and
  coalesce off the critical path;
* the shadow table itself lives in untrusted memory, so it is guarded
  by a shadow Merkle tree whose root needs one more NV on-chip register
  and which is cached *entirely on-chip* (37 kB of volatile area for
  the 64 kB metadata cache, Table 3) to avoid yet more traffic.
"""

from __future__ import annotations

from typing import List

from repro.core.protocol import MetadataPersistencePolicy, register_protocol
from repro.integrity.geometry import NodeId
from repro.mem.backend import MetadataRegion


@register_protocol
class AnubisProtocol(MetadataPersistencePolicy):
    """Shadow-table crash consistency."""

    name = "anubis"

    def _on_bind(self) -> None:
        # The extra NV register anchoring the shadow Merkle tree.
        self._shadow_root = self.mee.registers.allocate("anubis_shadow_root", 64)
        self._persist_shadow = self.mee.nvm.persister(MetadataRegion.SHADOW_TABLE)
        # Each counter is resolved on its first bump, not here, so a
        # run without that event reports no zero-valued key.
        self._ctr_updates = None
        self._ctr_fills = None
        self._ctr_retires = None

    # ------------------------------------------------------------------
    # runtime costs
    # ------------------------------------------------------------------

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        """Reflect the counter update in its shadow entry.

        Back-to-back updates to a cached line rewrite the *same* shadow
        entry, so they coalesce in the memory controller's write queue
        and stay off the authentication critical path — Anubis's cost
        lives in the miss-driven events (:meth:`on_metadata_fill` /
        :meth:`on_metadata_writeback`), as §6.1 characterizes. The
        shadow write is still issued (it appears in NVM write counters)
        but contributes no critical-path cycles — *except* under an
        application persistence fence, where the shadow entry must be
        durable before the fence retires (coalescing across the fence
        would leave an acknowledged write unrecoverable), so a fenced
        write pays the shadow persist synchronously.
        """
        mee = self.mee
        self._persist_shadow(1)
        fence_cycles = mee.nvm.write_latency_cycles if fenced else 0
        if mee.wear_tracker is not None:
            mee.wear_tracker.record(
                MetadataRegion.SHADOW_TABLE, ("ctr", counter_index)
            )
        counter = self._ctr_updates
        if counter is None:
            counter = self._ctr_updates = self.stats.counter("shadow_updates")
        counter.value += 1
        if mee.functional:
            # Shadow entries carry the up-to-date values of the cached
            # lines (counter and HMAC), so recovery can restore them
            # even though the lines themselves stay dirty in the
            # volatile cache.
            mee.nvm.backend.write(
                MetadataRegion.SHADOW_TABLE,
                ("ctr", counter_index),
                mee.tree.current_counter_bytes(counter_index),
            )
            mac = mee._volatile_hmacs.get(block_index)
            if mac is not None:
                mee.nvm.backend.write(
                    MetadataRegion.SHADOW_TABLE, ("hmac", block_index), mac
                )
        return fence_cycles

    def on_metadata_fill(self, key: tuple) -> int:
        """The slow path: a cache fill changes which lines are shadowed,
        so the shadow table is updated in NVM before the fill's data can
        be trusted (and there may be several such updates on a single
        authentication — one per missing level).

        With the on-chip shadow cache disabled
        (``config.anubis.shadow_cache_on_chip = False``), every shadow
        update must also read-modify-write the shadow Merkle tree in
        untrusted memory — the configuration the original work pays
        37 kB of SRAM to avoid."""
        counter = self._ctr_fills
        if counter is None:
            counter = self._ctr_fills = self.stats.counter("shadow_fills")
        counter.value += 1
        cycles = self._persist_shadow(1)
        if self.mee.wear_tracker is not None:
            self.mee.wear_tracker.record(MetadataRegion.SHADOW_TABLE, key)
        if not self.config.anubis.shadow_cache_on_chip:
            cycles += self.mee.nvm.read_access(MetadataRegion.SHADOW_TREE)
            cycles += self.mee.nvm.write_access(
                MetadataRegion.SHADOW_TREE, persist=True
            )
            self.stats.add("shadow_tree_walks")
        return cycles

    def on_metadata_writeback(self, key: tuple) -> int:
        """Evicting a dirty line rewrites the same shadow entry the
        fill that displaces it writes; the traffic is issued but the
        entry update coalesces with the fill's (charged there)."""
        counter = self._ctr_retires
        if counter is None:
            counter = self._ctr_retires = self.stats.counter("shadow_retires")
        counter.value += 1
        self._persist_shadow(1)
        if self.mee.wear_tracker is not None:
            self.mee.wear_tracker.record(MetadataRegion.SHADOW_TABLE, key)
        return 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        # Stale state is bounded by the metadata cache, not memory.
        return 0.0

    def recovery_ms(self, model, memory_bytes: int) -> float:
        """Fixed-size repair: read the shadow table, rewrite the lines
        it names, and fix their ancestor paths. Traffic per shadowed
        line is a path of node reads/writes; the constant below is
        calibrated to the paper's 1.30 ms (Table 4) for the 1024-line
        metadata cache and documented in EXPERIMENTS.md."""
        shadow_entries = self.config.metadata_cache.num_lines
        per_entry_recovery_bytes = 16_360  # calibrated; ~a path of nodes
        return model.fixed_traffic_ms(shadow_entries * per_entry_recovery_bytes)

    def recover(self, tree):
        """Restore shadowed counter values, then repair the tree."""
        from repro.core.recovery import RecoveryOutcome

        backend = self.mee.nvm.backend
        restored = 0
        for key in sorted(backend.keys(MetadataRegion.SHADOW_TABLE)):
            kind, index = key
            if kind == "ctr":
                value = backend.read(MetadataRegion.SHADOW_TABLE, key, 64)
                backend.write(MetadataRegion.COUNTERS, index, value)
            else:  # "hmac"
                value = backend.read(
                    MetadataRegion.SHADOW_TABLE, key, self.mee.engine.mac_bytes
                )
                backend.write(MetadataRegion.HMACS, index, value)
            restored += 1
        nodes = tree.rebuild_all_from_persisted()
        return RecoveryOutcome(
            protocol=self.name,
            ok=True,
            nodes_recomputed=nodes,
            detail=f"{restored} shadow entries restored",
        )

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------

    def area_overhead(self):
        from repro.core.area import AreaOverhead

        shadow_bytes = (
            self.config.metadata_cache.num_lines
            * self.config.anubis.shadow_entry_bytes
        )
        on_chip = self.config.anubis.shadow_cache_on_chip
        return AreaOverhead(
            protocol=self.name,
            nonvolatile_on_chip_bytes=64,  # shadow Merkle tree root
            # The on-chip shadow MT cache is the optional 37 kB; without
            # it the volatile area vanishes and the runtime pays
            # shadow-tree walks to memory instead.
            volatile_on_chip_bytes=shadow_bytes if on_chip else 0,
            in_memory_bytes=shadow_bytes,  # the shadow table itself
        )
