"""Osiris: stop-loss counter persistence (Ye et al., and §2.3/§7.3).

Osiris relaxes leaf persistence further: a counter line is written
through only every *n*-th update (the stop-loss interval), so a
persisted counter is never more than ``n-1`` bumps stale. The data MAC
is co-located with the data's ECC bits and persists with every data
write, which is what makes recovery possible: for each block, recovery
probes candidate counters ``persisted .. persisted + n - 1`` until the
stored MAC verifies, restoring the exact pre-crash counter.

The price is recovery time — the probing pass touches data blocks, not
just counters, which is why Osiris's Table 4 row dwarfs even plain leaf
persistence.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.protocol import MetadataPersistencePolicy, register_protocol
from repro.crypto.hmac import data_mac
from repro.errors import CrashConsistencyError
from repro.integrity.geometry import NodeId
from repro.mem.backend import MetadataRegion


@register_protocol
class OsirisProtocol(MetadataPersistencePolicy):
    """Stop-loss metadata persistence."""

    name = "osiris"

    def _on_bind(self) -> None:
        self._updates_since_persist: Dict[int, int] = {}
        self._interval = self.config.osiris.stop_loss_interval

    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        mee = self.mee
        # The MAC rides the data write's ECC bits: persistent, no extra
        # NVM transaction (Osiris's key trick) — model as a dedicated
        # persist of the HMAC line only in functional mode, charged 0
        # timing cycles.
        cycles = 0
        pending = self._updates_since_persist.get(counter_index, 0) + 1
        stop_loss = pending >= self._interval
        if mee.functional or stop_loss:
            ctr_line, hmac_line = mee.leaf_lines(counter_index, block_index)
            if mee.functional:
                mee.write_through(mee.hmac_persister, (hmac_line,))
            if stop_loss:
                cycles += mee.write_through(mee.counter_persister, (ctr_line,))
                pending = 0
                self.stats.add("stop_loss_persists")
        self._updates_since_persist[counter_index] = pending
        return cycles

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        return float(memory_bytes)

    def recovery_ms(self, model, memory_bytes: int) -> float:
        """Full-tree rebuild plus the counter-probing pass.

        Probing reads data blocks to test candidate counters against
        their stored MACs. With a stop-loss of *n*, on average
        ``blocks_per_page / n`` data-block reads per page are needed to
        pin each page's minors down, plus one line of slack — counter
        recovery traffic is roughly ``counters * (blocks_per_page/n + 1)``
        lines. This reproduces the ~8x-leaf scaling of Table 4.
        """
        rebuild = model.rebuild_milliseconds(float(memory_bytes))
        blocks_per_page = self.config.security.counters_per_block
        interval = self.config.osiris.stop_loss_interval
        probe_lines_per_counter = blocks_per_page / interval + 1
        probe_bytes = model.counter_bytes(float(memory_bytes)) * probe_lines_per_counter
        probe_ms = probe_bytes / model.read_bandwidth_bytes_per_s * 1e3
        return rebuild + probe_ms

    def recover(self, tree):
        """Probe each touched page's counters back to their pre-crash
        values using the persisted MACs, then rebuild the tree."""
        from repro.core.recovery import RecoveryOutcome

        mee = self.mee
        backend = mee.nvm.backend
        blocks_per_page = self.config.security.counters_per_block
        probes = 0
        # Probe every page that holds data: pages written fewer than n
        # times never had their counter line persisted at all (their
        # persisted counter is the zero genesis value), and pages with
        # a persisted line may still be up to n-1 bumps stale.
        touched = sorted(
            {
                block // blocks_per_page
                for block in backend.keys(MetadataRegion.DATA)
            }
            | set(backend.keys(MetadataRegion.COUNTERS))
        )
        for counter_index in touched:
            counter = tree.persisted_counter(counter_index)
            recovered = counter.copy()
            changed = False
            first_block = counter_index * blocks_per_page
            for offset in range(blocks_per_page):
                block_index = first_block + offset
                if not backend.contains(MetadataRegion.DATA, block_index):
                    continue
                if not backend.contains(MetadataRegion.HMACS, block_index):
                    continue
                ciphertext = backend.read(
                    MetadataRegion.DATA,
                    block_index,
                    self.config.security.block_bytes,
                )
                stored_mac = backend.read(
                    MetadataRegion.HMACS, block_index, mee.engine.mac_bytes
                )
                block_base = mee.address_space.addr_of_block(block_index)
                found = False
                base_minor = recovered.minors[offset]
                for trial in range(self._interval):
                    candidate = base_minor + trial
                    if candidate > 127:  # minor overflow inside the
                        break            # window: handled by major probe
                    probes += 1
                    mac = data_mac(
                        mee.engine,
                        ciphertext,
                        block_base,
                        recovered.major,
                        candidate,
                    )
                    if mac == stored_mac:
                        if candidate != recovered.minors[offset]:
                            recovered.minors[offset] = candidate
                            changed = True
                        found = True
                        break
                if not found:
                    raise CrashConsistencyError(
                        f"Osiris probing failed for block {block_index}: "
                        f"counter drifted beyond the stop-loss window"
                    )
            if changed:
                backend.write(
                    MetadataRegion.COUNTERS, counter_index, recovered.encode()
                )
        nodes = tree.rebuild_all_from_persisted()
        return RecoveryOutcome(
            protocol=self.name,
            ok=True,
            nodes_recomputed=nodes,
            detail=f"{probes} MAC probes",
        )
