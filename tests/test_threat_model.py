"""Adversarial scenarios from the paper's threat model (§3).

The attacker has physical access to everything off-chip: they can snoop
(confidentiality), splice (move valid blocks), spoof (inject forged
blocks), and replay (restore stale-but-once-valid state) — including
while the machine is powered off, which is the new exposure SCM adds.
On-chip state (registers, caches) is trusted and, for the NV registers,
survives power loss.

Each test stages one concrete attack against the functional engine and
asserts it is detected. These complement the per-module tamper tests by
attacking *coherent combinations* of state (data + MAC + counter
together), which naive implementations miss.
"""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import CrashInjector
from repro.errors import IntegrityError
from repro.mem.backend import MetadataRegion
from repro.util.units import MB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine(config, protocol="leaf"):
    return MemoryEncryptionEngine(
        config, make_protocol(protocol, config), functional=True
    )


def snapshot_block_state(mee, block_index, counter_index):
    """Capture the full off-chip state an attacker can record."""
    backend = mee.nvm.backend
    return {
        "data": backend.read(MetadataRegion.DATA, block_index),
        "mac": backend.read(MetadataRegion.HMACS, block_index, 8),
        "counter": backend.read(MetadataRegion.COUNTERS, counter_index),
    }


def restore_block_state(mee, block_index, counter_index, snapshot):
    backend = mee.nvm.backend
    backend.write(MetadataRegion.DATA, block_index, snapshot["data"])
    backend.write(MetadataRegion.HMACS, block_index, snapshot["mac"])
    backend.write(MetadataRegion.COUNTERS, counter_index, snapshot["counter"])


class TestConfidentiality:
    def test_plaintext_never_stored_off_chip(self, config):
        mee = engine(config)
        secret = b"API-KEY-0123456789abcdef".ljust(64, b"\x00")
        mee.write_block(0, data=secret)
        stored = mee.nvm.backend.read(MetadataRegion.DATA, 0)
        assert secret not in stored
        assert b"API-KEY" not in stored


class TestCoherentReplay:
    def test_full_block_state_rollback_detected(self, config):
        """The attacker replays data + MAC + counter *together* — a
        self-consistent stale triple. Only the BMT (rooted on-chip)
        exposes it."""
        mee = engine(config)
        mee.write_block(0, data=b"v1".ljust(64, b"\x00"))
        mee.protocol.mee.persist_counter_line(0)  # ensure v1 on media
        stale = snapshot_block_state(mee, 0, 0)
        mee.write_block(0, data=b"v2".ljust(64, b"\x00"))
        restore_block_state(mee, 0, 0, stale)
        # The cached (trusted, on-chip) counter still wins at runtime;
        # force the engine to see the replayed off-chip state.
        mee.mdcache.drop_all()
        mee.tree._volatile_counters.clear()
        mee._volatile_hmacs.clear()
        with pytest.raises(IntegrityError):
            mee.read_block_data(0)

    def test_powered_off_rollback_caught_at_recovery(self, config):
        """Same attack staged across a power cycle: recovery's rebuild
        contradicts the NV root register."""
        from repro.errors import CrashConsistencyError

        mee = engine(config)
        mee.write_block(0, data=b"v1".ljust(64, b"\x00"))
        stale = snapshot_block_state(mee, 0, 0)
        mee.write_block(0, data=b"v2".ljust(64, b"\x00"))
        injector = CrashInjector(mee)
        injector.crash_only()
        restore_block_state(mee, 0, 0, stale)
        with pytest.raises(CrashConsistencyError):
            injector.recover()


class TestSplicing:
    def test_cross_page_splice_detected(self, config):
        """Move a coherent (data, MAC) pair to a different page whose
        counter happens to hold the same value — address binding in the
        MAC must catch it."""
        mee = engine(config)
        mee.write_block(0, data=b"\x41" * 64)          # page 0, counter 1
        mee.write_block(4096, data=b"\x42" * 64)       # page 1, counter 1
        backend = mee.nvm.backend
        source_block = 0
        target_block = 4096 // 64
        backend.write(
            MetadataRegion.DATA,
            target_block,
            backend.read(MetadataRegion.DATA, source_block),
        )
        backend.write(
            MetadataRegion.HMACS,
            target_block,
            backend.read(MetadataRegion.HMACS, source_block, 8),
        )
        mee._volatile_hmacs.clear()
        with pytest.raises(IntegrityError):
            mee.read_block_data(4096)


class TestSpoofing:
    def test_forged_block_with_forged_mac_detected(self, config):
        """An attacker without the key cannot mint a verifying MAC."""
        mee = engine(config)
        mee.write_block(0, data=b"\x01" * 64)
        backend = mee.nvm.backend
        backend.write(MetadataRegion.DATA, 0, b"\xee" * 64)
        backend.write(MetadataRegion.HMACS, 0, b"\xbb" * 8)
        mee._volatile_hmacs.clear()
        with pytest.raises(IntegrityError):
            mee.read_block_data(0)

    def test_forged_tree_node_detected_after_crash(self, config):
        mee = engine(config, protocol="strict")
        mee.write_block(0, data=b"\x01" * 64)
        injector = CrashInjector(mee)
        injector.crash_only()
        node = mee.geometry.ancestors_of_counter(0)[0]
        mee.nvm.backend.write(MetadataRegion.TREE, node, b"\xcc" * 64)
        with pytest.raises(IntegrityError):
            mee.read_block_data(0)


class TestAMNTSpecificSurface:
    def test_subtree_register_defeats_in_subtree_replay(self, config):
        """AMNT's fast subtree nodes are lazy in the cache — the NV
        subtree register is the only thing standing between a crash and
        an in-subtree replay. Verify it does its job."""
        mee = engine(config, protocol="amnt")
        interval = config.amnt.movement_interval_writes
        for _ in range(interval + 1):
            mee.write_block(0, data=b"old".ljust(64, b"\x00"))
        stale = snapshot_block_state(mee, 0, 0)
        mee.write_block(0, data=b"new".ljust(64, b"\x00"))
        injector = CrashInjector(mee)
        injector.crash_only()
        restore_block_state(mee, 0, 0, stale)
        outcome = injector.recover()
        assert not outcome.ok
        assert "register" in outcome.detail

    def test_out_of_subtree_state_is_never_stale(self, config):
        """Strictly persisted regions verify directly from media after
        a crash — no recovery needed, nothing for an attacker to race."""
        mee = engine(config, protocol="amnt")
        interval = config.amnt.movement_interval_writes
        for _ in range(interval + 1):  # settle the subtree on region 0
            mee.write_block(0, data=b"\x01" * 64)
        outside_page = mee.geometry.counters_covered_by(3) * 2
        mee.write_block(outside_page * 4096, data=b"\x07" * 64)
        mee.crash()
        report = mee.tree.verify_counter(outside_page, persisted_only=False)
        assert report.mismatched_levels == []
