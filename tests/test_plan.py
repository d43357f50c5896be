"""Metadata-plan compilation: planned replay == direct simulation.

The plan compiler (repro.sim.plan) resolves the runtime record of every
event a boundary stream holds — counter line, HMAC line, BMT ancestor
path, premixed cache-set indices — once per (trace, geometry). Its
correctness claim is the same as the replay layer's one level up:
*bit identity* with the direct path. These tests check that claim
three ways: full-result equality across the protocol lineup, a
randomized-geometry property test that recomputes every record from
first principles, and cache-contract tests (geometry change
recompiles; a metadata-cache-only change shares the compiled pair).
"""

import random
from dataclasses import replace

import pytest

from repro.cache.cache import mix_of
from repro.cache.metadata_cache import counter_key, hmac_key, node_key
from repro.config import default_config
from repro.core.mee import MACS_PER_LINE, MetadataRegion
from repro.core.protocol import protocol_names, protocol_uses_modified_os
from repro.integrity.geometry import TreeGeometry
from repro.mem.address import AddressSpace
from repro.sim.engine import simulate, simulate_from_plan
from repro.sim.machine import build_machine
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    precompile_streams,
    run_cell,
    stream_spec_for,
)
from repro.sim.plan import MetadataPlan, compile_metadata_plan
from repro.sim.replay import compile_boundary_stream
from repro.sim.runner import run_protocol_sweep
from repro.util.units import MB
from repro.workloads.registry import (
    compiled_cache_clear,
    compiled_cache_size,
    materialize_compiled,
    materialize_trace,
    profile_spec,
)


@pytest.fixture(autouse=True)
def _clean_caches():
    compiled_cache_clear()
    yield
    compiled_cache_clear()


def machine_tree_state(machine):
    tree = machine.mee.tree
    if tree is None:
        return None
    region = MetadataRegion.TREE
    return (
        tree.root_register,
        {key: tree.backend.read(region, key) for key in tree.backend.keys(region)},
    )


class TestPlanBitIdentity:
    """Every registered protocol, real crypto: the plan-driven replay
    must end in exactly the direct path's state — timing result and
    persisted tree bytes alike."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_plan_matches_direct(self, small_config, protocol):
        trace = materialize_trace(profile_spec("parsec", "blackscholes", 600, 7))
        modified = protocol_uses_modified_os(protocol)

        direct_machine = build_machine(
            small_config, protocol, functional=True, seed=7
        )
        direct = simulate(direct_machine, trace, seed=7)

        stream = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=modified
        )
        plan = compile_metadata_plan(stream, small_config)
        plan_machine = build_machine(
            small_config, protocol, functional=True, seed=7
        )
        planned = simulate_from_plan(stream, plan, plan_machine.mee)

        assert planned == direct
        assert machine_tree_state(plan_machine) == machine_tree_state(
            direct_machine
        )

    def test_plan_matches_direct_timing_only(self, small_config):
        """Timing-only machines (no functional crypto) on the
        pointer-chasing profile."""
        trace = materialize_trace(profile_spec("parsec", "canneal", 800, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        plan = compile_metadata_plan(stream, small_config)
        for protocol in ("volatile", "strict", "amnt"):
            direct = simulate(
                build_machine(small_config, protocol, seed=7), trace, seed=7
            )
            planned = simulate_from_plan(
                stream, plan, build_machine(small_config, protocol, seed=7).mee
            )
            assert planned == direct, protocol


GEOMETRY_CHOICES = {
    # (page_bytes, block_bytes) pairs; counters_per_block follows.
    "page_block": [(4096, 64), (2048, 64), (1024, 32), (4096, 128)],
    "arity": [4, 8, 16],
    "capacity_mb": [16, 64, 256],
}


def _random_geometry_config(rng):
    page_bytes, block_bytes = rng.choice(GEOMETRY_CHOICES["page_block"])
    base = default_config(
        capacity_bytes=rng.choice(GEOMETRY_CHOICES["capacity_mb"]) * MB
    )
    return replace(
        base,
        security=replace(
            base.security,
            block_bytes=block_bytes,
            page_bytes=page_bytes,
            counters_per_block=page_bytes // block_bytes,
            tree_arity=rng.choice(GEOMETRY_CHOICES["arity"]),
        ),
    )


class TestPlanContentsProperty:
    """The property test: every plan record must equal the value
    recomputed on the fly from the stream's addresses and the tree
    geometry — across randomized line sizes, arities, counter ratios,
    and footprints."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_columns_match_recomputation(self, seed):
        rng = random.Random(seed)
        config = _random_geometry_config(rng)
        accesses = rng.choice([300, 700, 1200])
        trace = materialize_trace(
            profile_spec("parsec", "bodytrack", accesses, seed)
        )
        stream = compile_boundary_stream(trace, config, seed=seed)
        plan = compile_metadata_plan(stream, config)

        geometry = TreeGeometry.from_config(config)
        space = AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        )
        block_shift = space._block_shift
        page_shift = space._page_shift
        arity = geometry.arity

        assert len(plan) == len(stream.addr)
        records = plan.event_records()
        pairs = set()
        for i, addr in enumerate(stream.addr):
            counter = addr >> page_shift
            hline = (addr >> block_shift) // MACS_PER_LINE
            pairs.add((counter, hline))
            expected_path = geometry.ancestors_of_counter(counter)
            ctr_key, ctr_mix, hkey, hmac_mix, triples, path, rec_counter = (
                records[i]
            )
            assert rec_counter == counter
            assert ctr_key == counter_key(counter)
            assert ctr_mix == mix_of(ctr_key)
            assert hkey == hmac_key(hline)
            assert hmac_mix == mix_of(hkey)
            assert path == expected_path
            assert [t[0] for t in triples] == expected_path
            for node, key, mix in triples:
                assert key == node_key(*node)
                assert mix == mix_of(key)
        assert plan.num_records() == len(pairs)
        assert plan.num_paths() == len({counter // arity for counter, _ in pairs})

    def test_records_count_pairs_when_a_line_spans_pages(self):
        """With 256 B pages of four 64 B blocks, one HMAC line spans two
        pages: the compile keys its table by block, and still counts
        each distinct (counter, HMAC line) record and path once."""
        base = default_config(capacity_bytes=16 * MB)
        config = replace(
            base,
            security=replace(
                base.security, page_bytes=256, counters_per_block=4
            ),
        )
        trace = materialize_trace(profile_spec("parsec", "bodytrack", 600, 3))
        stream = compile_boundary_stream(trace, config, seed=3)
        plan = compile_metadata_plan(stream, config)
        pairs = {(addr >> 8, addr >> 9) for addr in stream.addr}
        blocks = {addr >> 6 for addr in stream.addr}
        assert len(pairs) < len(blocks)
        assert plan.num_records() == len(pairs)
        arity = TreeGeometry.from_config(config).arity
        assert plan.num_paths() == len({counter // arity for counter, _ in pairs})
        for addr, record in zip(stream.addr, plan.event_records()):
            assert record[6] == addr >> 8
            assert record[2] == hmac_key(addr >> 9)

    def test_sibling_counters_share_one_path_object(self, small_config):
        trace = materialize_trace(profile_spec("parsec", "canneal", 2000, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        plan = compile_metadata_plan(stream, small_config)
        by_head = {}
        for rec in plan.event_records():
            path = rec[5]
            head = path[0]
            if head in by_head:
                assert by_head[head] is path
            else:
                by_head[head] = path


class TestPlanCache:
    def test_same_spec_returns_same_object(self, small_config):
        spec = stream_spec_for(
            SweepCell(
                protocol="strict",
                trace=profile_spec("parsec", "blackscholes", 400, 7),
                seed=7,
                replay=True,
            ),
            small_config,
        )
        first = materialize_compiled(spec, small_config)
        second = materialize_compiled(spec, small_config)
        assert isinstance(first[1], MetadataPlan)
        assert first is second
        assert compiled_cache_size() == 1

    def test_geometry_change_forces_recompile(self, small_config):
        cell = SweepCell(
            protocol="strict",
            trace=profile_spec("parsec", "blackscholes", 400, 7),
            seed=7,
            replay=True,
        )
        bigger = default_config(
            capacity_bytes=small_config.pcm.capacity_bytes * 4
        )
        base_spec = stream_spec_for(cell, small_config)
        resized_spec = stream_spec_for(cell, bigger)
        assert base_spec != resized_spec
        first = materialize_compiled(base_spec, small_config)
        second = materialize_compiled(resized_spec, bigger)
        assert first[0] is not second[0]
        assert first[1] is not second[1]
        assert compiled_cache_size() == 2

    def test_metadata_cache_change_shares_the_plan(self, small_config):
        """A config differing only in metadata-cache capacity maps to
        the same compiled entry — neither the stream nor the plan
        depends on cache shape."""
        cell = SweepCell(
            protocol="strict",
            trace=profile_spec("parsec", "blackscholes", 400, 7),
            seed=7,
            replay=True,
        )
        resized_cache = replace(
            small_config,
            metadata_cache=replace(
                small_config.metadata_cache,
                capacity_bytes=small_config.metadata_cache.capacity_bytes * 2,
            ),
        )
        base_spec = stream_spec_for(cell, small_config)
        other_spec = stream_spec_for(cell, resized_cache)
        assert base_spec == other_spec
        first = materialize_compiled(base_spec, small_config)
        second = materialize_compiled(other_spec, resized_cache)
        assert first is second
        assert compiled_cache_size() == 1

    def test_precompile_counts_distinct_plans(self, small_config):
        cells = [
            SweepCell(
                protocol=name,
                trace=profile_spec("parsec", "blackscholes", 400, 7),
                seed=7,
                replay=True,
            )
            for name in ("volatile", "leaf", "amnt", "amnt++")
        ]
        # Three stock-OS protocols share one plan; amnt++ gets its own.
        assert precompile_streams(cells, small_config) == 2
        assert compiled_cache_size() == 2


class TestSweepPaths:
    def test_run_protocol_sweep_plan_matches_direct(self, small_config):
        trace_spec = profile_spec("parsec", "bodytrack", 800, 7)
        protocols = ("volatile", "strict", "amnt", "amnt++")
        planned = run_protocol_sweep(trace_spec, small_config, protocols, seed=7)
        direct = {
            name: run_cell(
                SweepCell(protocol=name, trace=trace_spec, seed=7), small_config
            )
            for name in protocols
        }
        assert planned == direct
        # Spec sweeps share the process-wide compiled-artifact cache:
        # one stream and plan per OS variant.
        assert compiled_cache_size() == 2

    def test_parallel_plan_matches_serial_direct(self, small_config, cold_leg):
        cells = [
            SweepCell(
                protocol=name,
                trace=profile_spec("parsec", "bodytrack", 800, 7),
                seed=7,
                replay=True,
            )
            for name in ("volatile", "strict", "amnt")
        ]
        # Direct and plan cells share fingerprints, so a warm tier would
        # hand back a direct result here: the leg must replay.
        parallel = cold_leg(
            lambda: ParallelSweepRunner(workers=2).run(cells, small_config),
            len(cells),
        )
        serial = [
            run_cell(replace(cell, replay=False), small_config)
            for cell in cells
        ]
        assert parallel == serial

    def test_fault_campaigns_stay_unplanned(self):
        """Fault cells go through drive_memory_boundary, never the
        planned replay — the crash oracles need live per-access state."""
        import inspect

        from repro.faults import campaign

        source = inspect.getsource(campaign)
        assert "simulate_from_plan" not in source
