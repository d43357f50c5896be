"""Persistence-aware storage workloads and the flush datapath."""

from dataclasses import replace

import pytest

from repro.config import DataCacheConfig, default_config
from repro.sim.engine import simulate
from repro.sim.machine import build_machine
from repro.util.units import MB
from repro.workloads.storage import (
    STORAGE_PROFILES,
    StorageProfile,
    generate_storage_trace,
    persisted_write_count,
    storage_names,
    storage_profile,
)
from repro.workloads.synthetic import WorkloadProfile


@pytest.fixture
def config():
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base, llc=DataCacheConfig(capacity_bytes=64 * 1024, associativity=16)
    )


def small_profile(persist_fraction=1.0):
    return StorageProfile(
        base=WorkloadProfile(
            name="unit-store",
            footprint_bytes=1 * MB,
            num_accesses=3000,
            write_fraction=0.5,
            think_cycles=4,
        ),
        persist_fraction=persist_fraction,
    )


class TestProfiles:
    def test_registry_contents(self):
        assert storage_names() == ["kvstore", "logger", "oltp"]

    def test_lookup_and_error(self):
        assert storage_profile("kvstore").name == "kvstore"
        with pytest.raises(KeyError, match="unknown storage"):
            storage_profile("nope")

    def test_persist_fraction_validated(self):
        with pytest.raises(ValueError):
            small_profile(persist_fraction=1.5)

    def test_all_profiles_persist_something(self):
        for profile in STORAGE_PROFILES.values():
            assert profile.persist_fraction > 0


class TestGeneration:
    def test_flush_tags_only_writes(self):
        trace = generate_storage_trace(small_profile(), seed=1)
        for access in trace:
            if access.flush:
                assert access.is_write

    def test_persist_fraction_respected(self):
        trace = generate_storage_trace(small_profile(0.5), seed=1)
        writes = sum(1 for access in trace if access.is_write)
        assert persisted_write_count(trace) == pytest.approx(
            writes * 0.5, rel=0.15
        )

    def test_address_stream_matches_plain_variant(self):
        """The flush marking must not perturb the address stream."""
        from repro.workloads.synthetic import generate_trace

        profile = small_profile()
        flushed = generate_storage_trace(profile, seed=9)
        plain = generate_trace(profile.base, seed=9)
        assert [a.vaddr for a in flushed] == [a.vaddr for a in plain]

    def test_accesses_override(self):
        trace = generate_storage_trace(small_profile(), seed=1, accesses=123)
        assert len(trace) == 123

    @pytest.mark.parametrize("seed", [2024, 4242])
    @pytest.mark.parametrize("name", ["kvstore", "oltp", "logger"])
    def test_matches_a_record_wise_reference(self, name, seed):
        """The column-wise marking equals rebuilding the base trace one
        record at a time, drawing once per write."""
        from repro.util.rng import make_rng
        from repro.workloads.synthetic import generate_trace
        from repro.workloads.trace import MemoryAccess

        profile = storage_profile(name)
        base = profile.base.scaled(accesses=4000)
        rng = make_rng(f"{seed}/flush/{name}/0")
        reference = [
            MemoryAccess(
                access.vaddr,
                access.is_write,
                access.pid,
                access.think_cycles,
                flush=True,
            )
            if access.is_write and rng.random() < profile.persist_fraction
            else access
            for access in generate_trace(base, seed=seed)
        ]
        trace = generate_storage_trace(profile, seed=seed, accesses=4000)
        assert trace.name == name
        assert list(trace) == reference
        assert 0 < persisted_write_count(trace) < len(trace)


class TestFlushDatapath:
    def test_flushes_force_memory_writes(self, config):
        """With every write persisted, memory writes track application
        writes instead of waiting for evictions."""
        flushed_trace = generate_storage_trace(small_profile(1.0), seed=2)
        from repro.workloads.synthetic import generate_trace

        lazy_trace = generate_trace(small_profile(1.0).base, seed=2)
        flushed = simulate(build_machine(config, "volatile"), flushed_trace, seed=2)
        lazy = simulate(build_machine(config, "volatile"), lazy_trace, seed=2)
        assert (
            flushed.mee_stats["mee.data_writes"]
            > lazy.mee_stats["mee.data_writes"] * 1.4
        )

    def test_persist_path_on_commit_path_hurts_strict_most(self, config):
        """The paper's motivating claim: explicit persistence puts the
        metadata protocol on the application's commit path, where
        strict persistence is most expensive and AMNT is near leaf."""
        trace = generate_storage_trace(small_profile(1.0), seed=3)
        cycles = {}
        for name in ("volatile", "leaf", "strict", "amnt"):
            machine = build_machine(config, name, seed=3)
            cycles[name] = simulate(machine, trace, seed=3).cycles
        assert cycles["strict"] > cycles["leaf"] * 1.3
        assert cycles["amnt"] < cycles["strict"]
        assert cycles["amnt"] <= cycles["leaf"] * 1.1

    def test_functional_flush_data_verifies(self, config):
        trace = generate_storage_trace(small_profile(1.0), seed=4)
        machine = build_machine(config, "amnt", functional=True, seed=4)
        simulate(machine, trace, seed=4)
        from repro.core.recovery import CrashInjector
        from repro.mem.backend import MetadataRegion

        outcome = CrashInjector(machine.mee).crash_and_recover()
        assert outcome.ok, outcome.detail
        backend = machine.mee.nvm.backend
        for block in list(backend.keys(MetadataRegion.DATA))[:32]:
            machine.mee.read_block_data(block * 64)
