"""The result tier behind ``ParallelSweepRunner.run``: each distinct
cell simulates once per process, and a hit reads back as a fresh,
equal object."""

from dataclasses import replace

import pytest

from repro import telemetry
from repro.bench.experiments import (
    MULTIPROGRAM_SCATTER_CHUNKS,
    fig5_multiprogram,
    fig6_fig7_level_sweep,
)
from repro.config import MetadataCacheConfig
from repro.sim.parallel import MEMORY_TIER, ParallelSweepRunner, SweepCell
from repro.store import ResultStore, cell_fingerprint
from repro.util.units import KB
from repro.workloads.registry import (
    apply_cache_limit,
    effective_cache_limits,
    literal_spec,
    materialize_trace,
    multiprogram_spec,
    profile_spec,
    result_cache_clear,
    result_cache_size,
    set_compiled_cache_limit,
    set_trace_cache_limit,
)

PAIR = ("bodytrack", "fluidanimate")
SEED = 2024


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Counters start at zero in every test, with collection on."""
    prev = telemetry.enabled()
    telemetry.set_enabled(True)
    telemetry.reset()
    yield
    telemetry.set_enabled(prev)
    telemetry.reset()


def cells_of(protocols, trace=None):
    trace = trace or profile_spec("parsec", "canneal", 600, SEED)
    return [SweepCell(protocol=name, trace=trace, seed=SEED) for name in protocols]


def computed():
    """Cells simulated so far in this test (``sweep.cells``)."""
    return telemetry.get_registry().counter("sweep.cells").value


class TestRepeatedGrid:
    def test_second_run_hits_without_aliasing(self, small_config, tier_misses):
        cells = cells_of(("volatile", "amnt"))
        runner = ParallelSweepRunner(workers=1)
        cold = runner.run(cells, small_config)
        warm = runner.run(cells, small_config)
        assert computed() == len(cells)
        assert tier_misses() == len(cells)
        assert warm == cold
        assert all(w is not c for w, c in zip(warm, cold))
        # A caller mutating a result cannot reach the tier's copy.
        warm[0].cycles += 1
        warm[0].mee_stats["mee.data_reads"] = -1
        again = runner.run(cells, small_config)
        assert again == cold
        assert computed() == len(cells)

    def test_direct_and_plan_cells_share_entries(self, small_config):
        cells = cells_of(("volatile", "leaf"))
        runner = ParallelSweepRunner(workers=1)
        direct = runner.run(cells, small_config)
        planned = runner.run(
            [replace(cell, replay=True) for cell in cells], small_config
        )
        assert computed() == len(cells)
        assert planned == direct


class TestFigureOverlap:
    def test_fig6_reuses_fig5_level3_cells(self, tier_misses):
        """Figure 5 runs volatile, amnt and amnt++ at the default level
        3; Figure 6 at levels (3, 5) then only simulates its level-5
        cells: 7 + 2 = 9 simulations, not 7 + 5 = 12."""
        kwargs = dict(pairs=[PAIR], accesses_each=1_000, seed=SEED)
        fig5 = fig5_multiprogram(**kwargs)
        fig6 = fig6_fig7_level_sweep(levels=(3, 5), **kwargs)
        assert computed() == 9
        assert tier_misses() == 9
        result_cache_clear()
        assert fig5_multiprogram(**kwargs) == fig5
        result_cache_clear()
        assert fig6_fig7_level_sweep(levels=(3, 5), **kwargs) == fig6
        assert computed() == 9 + 7 + 5


class TestFingerprintSensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            lambda cell, config: replace(
                cell, config=config.with_amnt(subtree_level=5)
            ),
            lambda cell, config: replace(
                cell,
                config=replace(
                    config,
                    metadata_cache=MetadataCacheConfig(capacity_bytes=32 * KB),
                ),
            ),
            lambda cell, config: replace(cell, seed=cell.seed + 1),
        ],
        ids=["subtree-level-5", "metadata-cache-32k", "seed"],
    )
    def test_changed_input_misses(self, small_config, tier_misses, change):
        cell = SweepCell(
            protocol="amnt",
            trace=multiprogram_spec("parsec", PAIR, 300, SEED),
            seed=SEED,
            scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
        )
        runner = ParallelSweepRunner(workers=1)
        runner.run([cell], small_config)
        runner.run([change(cell, small_config)], small_config)
        assert tier_misses() == 2
        assert result_cache_size() == 2


class TestDuplicateCells:
    def test_duplicate_in_one_grid_computes_once(self, small_config):
        cells = cells_of(("leaf", "volatile", "leaf"))
        results = ParallelSweepRunner(workers=2).run(cells, small_config)
        assert computed() == 2
        assert results[0] == results[2]
        assert results[0] is not results[2]
        assert [r.protocol for r in results] == ["leaf", "volatile", "leaf"]

    def test_duplicate_with_disk_store_puts_once(self, small_config, tmp_path):
        cells = cells_of(("leaf", "volatile", "leaf"))
        store = ResultStore(tmp_path / "store")
        results = ParallelSweepRunner(workers=1).run(
            cells, small_config, store=store
        )
        assert computed() == 2
        assert store.session["puts"] == 2
        assert len(store.fingerprints()) == 2
        assert results[0] == results[2]
        assert results[0] is not results[2]
        # The disk store is the tier: nothing lands in memory.
        assert result_cache_size() == 0


class TestLiteralSpecs:
    def test_literal_cells_bypass_the_memory_tier(
        self, small_config, tier_misses
    ):
        trace = materialize_trace(profile_spec("parsec", "canneal", 400, SEED))
        cells = cells_of(("volatile", "leaf"), trace=literal_spec(trace))
        runner = ParallelSweepRunner(workers=1)
        first = runner.run(cells, small_config)
        second = runner.run(cells, small_config)
        assert second == first
        assert computed() == 2 * len(cells)
        assert tier_misses() == 0
        assert result_cache_size() == 0


    def test_tier_keys(self, small_config):
        """The memory tier keys spec cells by the store's fingerprint
        and leaves literal cells unkeyed; the disk store keys both."""
        spec_cell = cells_of(("amnt",))[0]
        trace = materialize_trace(profile_spec("parsec", "canneal", 400, SEED))
        literal_cell = cells_of(("amnt",), trace=literal_spec(trace))[0]
        assert MEMORY_TIER.key(spec_cell, small_config) == cell_fingerprint(
            spec_cell, small_config
        )
        assert MEMORY_TIER.key(literal_cell, small_config) is None
        for cell in (spec_cell, literal_cell):
            assert ResultStore.key(cell, small_config) == cell_fingerprint(
                cell, small_config
            )


class TestCacheLimit:
    def test_apply_cache_limit_bounds_the_tier(self, small_config):
        before = effective_cache_limits()
        try:
            apply_cache_limit(2)
            assert effective_cache_limits() == {
                "trace": 2, "compiled": 2, "result": 2,
            }
            cells = cells_of(("volatile", "leaf", "strict"))
            ParallelSweepRunner(workers=1).run(cells, small_config)
            assert result_cache_size() == 2
            # The least recently used entry (volatile) was evicted.
            start = computed()
            ParallelSweepRunner(workers=1).run(cells[:1], small_config)
            assert computed() - start == 1
        finally:
            set_trace_cache_limit(before["trace"])
            set_compiled_cache_limit(before["compiled"])
            MEMORY_TIER.cache.set_limit(before["result"])
