"""Boundary-event compilation: compiled replay == direct simulation.

The replay pipeline (repro.sim.replay) simulates the protocol-agnostic
data side once and replays the resulting boundary-event stream, with
its metadata plan, into every protocol's MEE. Its entire correctness
claim is *bit-identity* with the direct path, so these tests compare
full :class:`SimulationResult` objects — and, for functional machines,
the persisted tree bytes and root registers left behind — never
summaries.
"""

from dataclasses import replace

import pytest

from repro.config import DataCacheConfig, default_config
from repro.core.mee import MetadataRegion
from repro.core.protocol import protocol_names, protocol_uses_modified_os
from repro.sim.engine import simulate, simulate_from_plan
from repro.sim.machine import build_machine
from repro.sim.parallel import (
    SweepCell,
    precompile_streams,
    run_cell,
    stream_spec_for,
)
from repro.sim.replay import (
    EVENT_FILL,
    EVENT_PERSIST,
    EVENT_WRITEBACK,
    BoundaryStream,
    compile_boundary_stream,
)
from repro.sim.runner import reference_cells, run_protocol_sweep
from repro.util.units import KB, MB
from repro.workloads.registry import (
    boundary_stream_spec,
    compiled_cache_clear,
    compiled_cache_size,
    materialize_compiled,
    materialize_trace,
    profile_spec,
)


@pytest.fixture(autouse=True)
def _clean_stream_cache():
    compiled_cache_clear()
    yield
    compiled_cache_clear()


def machine_tree_state(machine):
    """The integrity state a functional run leaves behind: the root
    register plus every persisted tree node byte-for-byte."""
    tree = machine.mee.tree
    if tree is None:
        return None
    region = MetadataRegion.TREE
    return (
        tree.root_register,
        {key: tree.backend.read(region, key) for key in tree.backend.keys(region)},
    )


class TestFunctionalEquivalence:
    """Every registered protocol, real crypto: the replayed MEE must
    end in the same state the direct walk does. These replays take the
    stream and plan from the process-wide compiled-artifact cache (as
    sweep cells do). A 4 KB, 4-way LLC makes the 600 accesses evict
    dirty lines mid-run, so both paths write data blocks as well as
    read them."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_replay_matches_direct(self, small_config, protocol):
        config = replace(
            small_config,
            llc=DataCacheConfig(capacity_bytes=4 * KB, associativity=4),
        )
        trace_spec = profile_spec("parsec", "blackscholes", 600, 7)
        trace = materialize_trace(trace_spec)

        direct_machine = build_machine(config, protocol, functional=True, seed=7)
        direct = simulate(direct_machine, trace, seed=7)

        stream_spec = boundary_stream_spec(
            trace_spec, config, seed=7,
            modified_os=protocol_uses_modified_os(protocol),
        )
        stream, plan = materialize_compiled(stream_spec, config)
        replay_machine = build_machine(config, protocol, functional=True, seed=7)
        replayed = simulate_from_plan(stream, plan, replay_machine.mee)

        assert direct.mee_stats["mee.data_writes"] > 0
        assert replayed == direct
        assert machine_tree_state(replay_machine) == machine_tree_state(
            direct_machine
        )


class TestStreamContents:
    def test_event_kinds_and_flush_tail(self, small_config):
        trace = materialize_trace(profile_spec("parsec", "canneal", 600, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        assert isinstance(stream, BoundaryStream)
        assert stream.accesses == 600
        assert set(stream.kind) <= {EVENT_FILL, EVENT_WRITEBACK, EVENT_PERSIST}
        # No end-of-run flush tail: every compiled event is replayed.
        assert stream.main_events == len(stream)

    def test_modified_os_changes_placement(self, small_config):
        """amnt++'s allocator restructuring must show up in the compiled
        physical addresses — one stream per OS variant, never shared."""
        trace = materialize_trace(profile_spec("parsec", "canneal", 2000, 7))
        stock = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=False
        )
        modified = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=True
        )
        assert list(stock.addr) != list(modified.addr)


class TestStreamCache:
    def test_same_spec_returns_same_object(self, small_config):
        spec = boundary_stream_spec(
            profile_spec("parsec", "blackscholes", 400, 7), small_config, seed=7
        )
        first = materialize_compiled(spec, small_config)
        second = materialize_compiled(spec, small_config)
        assert first is second
        assert compiled_cache_size() == 1

    def test_geometry_change_forces_recompile(self, small_config):
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)
        base = boundary_stream_spec(trace_spec, small_config, seed=7)
        bigger_llc = replace(
            small_config,
            llc=replace(
                small_config.llc,
                capacity_bytes=small_config.llc.capacity_bytes * 2,
            ),
        )
        resized = boundary_stream_spec(trace_spec, bigger_llc, seed=7)
        assert resized != base
        first = materialize_compiled(base, small_config)
        second = materialize_compiled(resized, bigger_llc)
        assert first[0] is not second[0]
        assert compiled_cache_size() == 2

    def test_metadata_geometry_is_not_in_the_key(self, small_config):
        """Configs differing only on the MEE side share one stream —
        the data side cannot observe the metadata-cache shape."""
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)
        other = replace(
            small_config,
            metadata_cache=replace(
                small_config.metadata_cache,
                capacity_bytes=small_config.metadata_cache.capacity_bytes * 2,
            ),
        )
        assert boundary_stream_spec(
            trace_spec, small_config, seed=7
        ) == boundary_stream_spec(trace_spec, other, seed=7)

    def test_metadata_cache_change_hits_the_compiled_entry(self, small_config):
        """A metadata-cache-only config change is a cache hit on the
        compiled (stream, plan) pair, and replaying the shared pair on
        the resized machine still equals that machine's direct run."""
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)
        resized = replace(
            small_config,
            metadata_cache=replace(
                small_config.metadata_cache,
                capacity_bytes=small_config.metadata_cache.capacity_bytes // 4,
            ),
        )
        base = materialize_compiled(
            boundary_stream_spec(trace_spec, small_config, seed=7), small_config
        )
        hit = materialize_compiled(
            boundary_stream_spec(trace_spec, resized, seed=7), resized
        )
        assert hit is base
        assert compiled_cache_size() == 1
        stream, plan = hit
        replayed = simulate_from_plan(
            stream, plan, build_machine(resized, "strict", seed=7).mee
        )
        direct = simulate(
            build_machine(resized, "strict", seed=7),
            materialize_trace(trace_spec),
            seed=7,
        )
        assert replayed == direct

    def test_stock_os_streams_share_across_subtree_levels(self, small_config):
        """Only the modified OS maps pages to subtree regions, so a
        stock-OS cell at any level replays one compiled pair while
        amnt++ compiles its own per level; every replay still equals
        its cell's direct run."""
        trace_spec = profile_spec("parsec", "bodytrack", 800, 7)
        compiled = {}
        for level in (3, 5):
            config = small_config.with_amnt(subtree_level=level)
            for protocol in ("strict", "amnt", "amnt++"):
                cell = SweepCell(
                    protocol=protocol, trace=trace_spec, seed=7, replay=True
                )
                compiled[protocol, level] = materialize_compiled(
                    stream_spec_for(cell, config), config
                )
                assert run_cell(cell, config) == run_cell(
                    replace(cell, replay=False), config
                ), (protocol, level)
        stock = compiled["strict", 3]
        assert compiled["amnt", 3] is stock
        assert compiled["strict", 5] is stock and compiled["amnt", 5] is stock
        assert compiled["amnt++", 3] is not compiled["amnt++", 5]
        assert compiled_cache_size() == 3

    def test_precompile_counts_distinct_data_sides(self, small_config):
        cells = [
            SweepCell(
                protocol=name,
                trace=profile_spec("parsec", "blackscholes", 400, 7),
                seed=7,
                replay=True,
            )
            for name in ("volatile", "leaf", "amnt", "amnt++")
        ]
        # Three stock-OS protocols share one stream; amnt++ gets its own.
        assert precompile_streams(cells, small_config) == 2
        assert compiled_cache_size() == 2


class TestSweepPaths:
    def test_run_protocol_sweep_replay_default_matches_direct(self, small_config):
        """A raw trace's sweep-local compile against one direct
        simulate() per protocol."""
        trace = materialize_trace(profile_spec("parsec", "bodytrack", 800, 7))
        protocols = ("volatile", "strict", "amnt", "amnt++")
        replayed = run_protocol_sweep(trace, small_config, protocols, seed=7)
        direct = {
            name: simulate(build_machine(small_config, name, seed=7), trace, seed=7)
            for name in protocols
        }
        assert replayed == direct
        # Raw traces compile sweep-locally, not into the shared cache.
        assert compiled_cache_size() == 0

    def test_stream_spec_keys_off_protocol_os_variant(self, small_config):
        trace_spec = profile_spec("parsec", "bodytrack", 800, 7)
        amnt = SweepCell(protocol="amnt", trace=trace_spec, seed=7, replay=True)
        amntpp = SweepCell(
            protocol="amnt++", trace=trace_spec, seed=7, replay=True
        )
        leaf = SweepCell(protocol="leaf", trace=trace_spec, seed=7, replay=True)
        assert stream_spec_for(amnt, small_config) == stream_spec_for(
            leaf, small_config
        )
        assert stream_spec_for(amnt, small_config) != stream_spec_for(
            amntpp, small_config
        )


@pytest.mark.slow
class TestReferenceGridProperty:
    """The acceptance property: every cell of the full reference grid
    (3 benchmarks x 6 figure protocols, 20k accesses) is bit-identical
    through the compiled-replay path."""

    def test_full_grid_bit_identical(self):
        config = default_config()
        cells = reference_cells()
        assert len(cells) == 18
        for cell in cells:
            direct = run_cell(cell, config)
            replayed = run_cell(replace(cell, replay=True), config)
            assert replayed == direct, (
                f"replay diverged for {cell.protocol}/{cell.trace.label()}"
            )
