"""Bonsai Merkle Forest: coverage invariant, prune/merge, recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import CrashInjector
from repro.mem.backend import MetadataRegion
from repro.mem.bandwidth import RecoveryBandwidthModel
from repro.sim.engine import simulate
from repro.sim.machine import build_machine
from repro.util.units import MB, TB
from repro.workloads.storage import generate_storage_trace, storage_profile


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, functional=False):
    return MemoryEncryptionEngine(
        config, make_protocol("bmf", config), functional=functional
    )


class TestRootSet:
    def test_starts_with_global_root(self, config):
        mee = engine_for(config)
        assert mee.protocol.persistent_roots() == [(1, 0)]

    def test_initial_coverage_is_total(self, config):
        mee = engine_for(config)
        assert mee.protocol.covers_all_leaves()

    def test_nearest_root_is_global_initially(self, config):
        mee = engine_for(config)
        path = mee.geometry.ancestors_of_counter(0)
        assert mee.protocol.nearest_persistent_root(path) == (1, 0)

    def test_roots_act_as_read_trust_anchors(self, config):
        mee = engine_for(config)
        assert (1, 0) in mee.protocol.trusted_nodes()
        assert (2, 0) not in mee.protocol.trusted_nodes()


class TestWriteCosts:
    def test_initial_writes_are_near_strict(self, config):
        bmf = engine_for(config)
        strict = MemoryEncryptionEngine(config, make_protocol("strict", config))
        # With only the global root, BMF persists the whole path except
        # the root itself.
        bmf.write_block(0)
        strict.write_block(0)
        levels = bmf.geometry.num_node_levels
        assert bmf.nvm.persists(MetadataRegion.TREE) == levels - 1
        assert strict.nvm.persists(MetadataRegion.TREE) == levels

    def test_counter_and_hmac_always_persist(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1

    def test_nearest_root_is_found_once_per_write(self, config):
        """The engine's path update stops at the first trusted node by
        itself, so ``on_data_write`` is the only root lookup a write
        makes, prunes included."""
        machine = build_machine(config, "bmf")
        protocol = machine.mee.protocol
        lookup = protocol.nearest_persistent_root
        calls = []

        def counted(path):
            calls.append(path)
            return lookup(path)

        protocol.nearest_persistent_root = counted
        trace = generate_storage_trace(
            storage_profile("kvstore"), seed=2024, accesses=3000
        )
        result = simulate(machine, trace, seed=2024)
        writes = result.mee_stats["mee.data_writes"]
        assert writes > 0
        assert result.protocol_stats["protocol.bmf.prunes"] > 0
        assert len(calls) == writes


class TestAdaptation:
    def run_hot_writes(self, mee, writes):
        # Hammer one page so the hot path dominates the interval count.
        for i in range(writes):
            mee.write_block((i % 4) * 4096)

    def test_pruning_shortens_hot_persist_path(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        self.run_hot_writes(mee, interval + 1)
        assert mee.protocol.stats.get("prunes") >= 1
        roots = mee.protocol.persistent_roots()
        assert (1, 0) not in roots
        # The root was replaced by its children (the 64 MB tree's root
        # has 4 children, fewer than the arity).
        assert roots == list(mee.geometry.children((1, 0)))

    def test_coverage_invariant_survives_adaptation(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        self.run_hot_writes(mee, 6 * interval)
        assert mee.protocol.covers_all_leaves()

    def test_persist_path_shrinks_after_prunes(self, config):
        mee = engine_for(config)
        interval = config.bmf.adjust_interval
        before = mee.write_block(0)
        self.run_hot_writes(mee, 6 * interval)
        after = mee.write_block(0)
        assert after < before

    def test_root_set_respects_capacity(self, config):
        mee = engine_for(config)
        self.run_hot_writes(mee, 12 * config.bmf.adjust_interval)
        assert len(mee.protocol.persistent_roots()) <= config.bmf.root_set_entries


class TestRecovery:
    def test_instant_recovery_model(self, config):
        model = RecoveryBandwidthModel(config.pcm)
        protocol = make_protocol("bmf", config)
        assert protocol.recovery_ms(model, 2 * TB) == 0.0

    def test_functional_recovery_with_default_root(self, config):
        mee = engine_for(config, functional=True)
        payload = b"bmf".ljust(64, b"\x00")
        mee.write_block(0, data=payload)
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok
        assert mee.read_block_data(0) == payload

    def test_functional_recovery_after_pruning(self, config):
        mee = engine_for(config, functional=True)
        interval = config.bmf.adjust_interval
        for i in range(interval + 8):
            mee.write_block((i % 4) * 4096, data=bytes([i % 251]) * 64)
        assert mee.protocol.stats.get("prunes") >= 1
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok
        assert mee.read_block_data(0) is not None


class TestRecoveryCount:
    @settings(max_examples=20, deadline=None)
    @given(prunes=st.lists(st.integers(min_value=0), max_size=8))
    def test_roots_restored_then_their_ancestors_once(self, prunes):
        """Recovery restores every NV root value, then recomputes the
        union of the root set's strict ancestors, each node once."""
        mee = engine_for(default_config(capacity_bytes=64 * MB), functional=True)
        protocol = mee.protocol
        geometry = mee.geometry
        deepest = geometry.num_node_levels
        for choice in prunes:
            candidates = [
                node for node in protocol.persistent_roots() if node[0] < deepest
            ]
            if not candidates:
                break
            protocol._prune(candidates[choice % len(candidates)])
        mee.write_block(0, data=b"bmf".ljust(64, b"\x00"))
        ancestors = set()
        for node in protocol.persistent_roots():
            while node[0] > 1:
                node = geometry.parent(node)
                ancestors.add(node)
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok, outcome.detail
        assert len(protocol._root_values) == len(protocol.persistent_roots())
        assert outcome.nodes_recomputed == (
            len(protocol._root_values) + len(ancestors)
        )


class TestArea:
    def test_table3_numbers(self, config):
        mee = engine_for(config)
        area = mee.protocol.area_overhead()
        assert area.nonvolatile_on_chip_bytes == 4 * 1024
        assert area.volatile_on_chip_bytes == 768
        assert area.in_memory_bytes == 0
