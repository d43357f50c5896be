"""The three reference protocols: volatile, strict, and leaf.

* **volatile** — ordinary writeback secure memory with no persistence
  obligations. It is *not crash consistent* (dirty metadata dies with
  the caches) and exists as the normalization baseline every figure in
  the paper divides by.
* **strict** — every metadata line touched by a write (counter, HMAC,
  whole BMT ancestor path) is written through to NVM immediately.
  Trivial recovery, brutal runtime (the paper measures ~2.4x single-
  program average).
* **leaf** — only the counter and HMAC persist with the data; tree
  nodes stay lazy in the metadata cache. Near-baseline runtime, but on
  a crash *every* inner node is presumed stale, so recovery rebuilds
  the whole tree (Table 4's linear-in-memory-size row).
"""

from __future__ import annotations

from typing import List

from repro.core.protocol import (
    MetadataPersistencePolicy,
    register_protocol,
)
from repro.errors import CrashConsistencyError
from repro.integrity.geometry import NodeId


@register_protocol
class VolatileProtocol(MetadataPersistencePolicy):
    """Writeback secure memory: the normalization baseline."""

    name = "volatile"
    is_crash_consistent = False

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        # Nothing persists; dirty lines drain lazily on eviction.
        return 0

    def stale_data_bytes(self, memory_bytes: int) -> float:
        # Meaningless for an unrecoverable scheme; report everything.
        return float(memory_bytes)

    def recover(self, tree):
        """A volatile scheme cannot recover: dirty counters died in the
        cache, so the persisted image contradicts the root register."""
        from repro.core.recovery import RecoveryOutcome

        try:
            nodes = tree.rebuild_all_from_persisted()
        except CrashConsistencyError as error:
            return RecoveryOutcome(
                protocol=self.name, ok=False, nodes_recomputed=0,
                detail=str(error),
            )
        # Only consistent if no metadata happened to be dirty at the
        # crash (e.g. nothing was ever written).
        return RecoveryOutcome(
            protocol=self.name, ok=True, nodes_recomputed=nodes
        )


@register_protocol
class StrictPersistenceProtocol(MetadataPersistencePolicy):
    """Write-through everything: zero recovery, maximal write cost."""

    name = "strict"

    def _on_bind(self) -> None:
        self._ctr_paths = self.stats.counter("write_through_paths")

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        # Counter and HMAC issue concurrently (unordered pair)...
        cycles = mee.persist_leaf(counter_index, block_index)
        # ...but the tree walk is ordered: each level's write-through
        # must be durable before its parent's (persist barriers), which
        # is what puts strict persistence on the critical path. Its
        # phase fires inside the write's persist group, so injected
        # crashes defer to the group commit: ADR drains the queued
        # write-throughs, making the walk all-or-nothing.
        cycles += mee.persist_path(path, "strict_write_through")
        self._ctr_paths.value += 1
        return cycles

    def stale_data_bytes(self, memory_bytes: int) -> float:
        return 0.0

    def recover(self, tree):
        from repro.core.recovery import RecoveryOutcome

        # Nothing is stale; the persisted image already matches the
        # root register.
        return RecoveryOutcome(protocol=self.name, ok=True, nodes_recomputed=0)


@register_protocol
class LeafPersistenceProtocol(MetadataPersistencePolicy):
    """Persist counter + HMAC with the data; tree nodes stay lazy."""

    name = "leaf"

    def _on_bind(self) -> None:
        self._ctr_leaf_persists = self.stats.counter("leaf_persists")

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        # Counter and HMAC persist atomically with the data write.
        cycles = self.mee.persist_leaf(counter_index, block_index)
        self._ctr_leaf_persists.value += 1
        return cycles

    def stale_data_bytes(self, memory_bytes: int) -> float:
        return float(memory_bytes)

    # recover(): base-class behaviour — full rebuild against the root
    # register — is exactly leaf persistence's recovery procedure.
