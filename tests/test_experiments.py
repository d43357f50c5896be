"""Experiment definitions return sane, paper-shaped structures.

These run at miniature sizes (a few thousand accesses, two benchmarks)
to stay fast; the full-size shapes are exercised by the benchmark
harness in ``benchmarks/``.
"""

from dataclasses import replace

import pytest

from repro.bench.experiments import (
    fig3_hotness,
    fig4_single_program,
    fig5_multiprogram,
    fig6_fig7_level_sweep,
    fig8_spec,
    table2_os_cost,
    table3_area,
    table4_recovery,
)
from repro.config import DataCacheConfig, default_config
from repro.util.units import KB, MB


@pytest.fixture(scope="module")
def config():
    """A smaller machine (and LLC) keeps the miniature experiments
    quick while preserving the protocols' relative behaviour."""
    base = default_config(capacity_bytes=512 * MB)
    return replace(
        base, llc=DataCacheConfig(capacity_bytes=64 * KB, associativity=16)
    )


class TestFig3:
    def test_multiprogram_disperses_accesses(self, config):
        data = fig3_hotness(accesses=4000, seed=1, config=config)
        single = data["lbm (single)"]
        multi = data["perlbench+lbm (multi)"]
        assert 0 < single["top_region_share"] <= 1.0
        # Co-running over an aged allocator spreads accesses across at
        # least as many regions as a single fresh program.
        assert multi["touched_regions"] >= single["touched_regions"]


class TestFig4:
    def test_structure_and_baseline(self, config):
        figure = fig4_single_program(
            benchmarks=["fluidanimate"],
            protocols=("volatile", "leaf", "strict", "amnt"),
            accesses=4000,
            config=config,
        )
        row = figure["fluidanimate"]
        assert row["volatile"] == 1.0
        assert row["strict"] >= row["leaf"] >= 1.0
        assert row["amnt"] >= 1.0


class TestFig5:
    def test_pairs_labelled_like_paper(self, config):
        figure = fig5_multiprogram(
            pairs=[("bodytrack", "fluidanimate")],
            protocols=("volatile", "leaf", "amnt"),
            accesses_each=3000,
            config=config,
        )
        assert list(figure) == ["bodyt and fluida"]


class TestFig6Fig7:
    def test_sweep_structure(self, config):
        sweep = fig6_fig7_level_sweep(
            pairs=[("bodytrack", "fluidanimate")],
            levels=(2, 3),
            accesses_each=3000,
            config=config,
        )
        series = sweep["bodyt and fluida"]
        assert set(series) == {
            "amnt_cycles", "amnt++_cycles", "amnt_hitrate", "amnt++_hitrate",
        }
        assert set(series["amnt_cycles"]) == {2, 3}
        for rate in series["amnt_hitrate"].values():
            assert 0.0 <= rate <= 1.0


    def test_volatile_baseline_is_level_independent(self, config):
        from repro.bench.experiments import MULTIPROGRAM_SCATTER_CHUNKS
        from repro.sim.parallel import SweepCell, run_cell
        from repro.workloads.registry import multiprogram_spec

        cell = SweepCell(
            protocol="volatile",
            trace=multiprogram_spec(
                "parsec", ("bodytrack", "fluidanimate"), 3000, 2024
            ),
            seed=2024,
            scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
        )
        results = [
            run_cell(
                replace(cell, config=config.with_amnt(subtree_level=level)),
                config,
            )
            for level in (2, 3, 5, 7)
        ]
        assert all(result == results[0] for result in results[1:])

    def test_one_baseline_per_pair_matches_one_per_level(self, config):
        """The sweep's single volatile run per pair normalizes exactly as
        a volatile run at every level would."""
        from repro.bench.experiments import MULTIPROGRAM_SCATTER_CHUNKS
        from repro.sim.parallel import SweepCell, run_cell
        from repro.workloads.registry import multiprogram_spec

        pair, levels, seed = ("bodytrack", "fluidanimate"), (2, 4), 2024
        spec = multiprogram_spec("parsec", pair, 3000, seed)
        expected = {
            "amnt_cycles": {},
            "amnt++_cycles": {},
            "amnt_hitrate": {},
            "amnt++_hitrate": {},
        }
        for level in levels:
            level_config = config.with_amnt(subtree_level=level)

            def run(protocol):
                cell = SweepCell(
                    protocol=protocol,
                    trace=spec,
                    seed=seed,
                    scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
                    config=level_config,
                )
                return run_cell(cell, config)

            baseline = run("volatile")
            for protocol in ("amnt", "amnt++"):
                result = run(protocol)
                expected[f"{protocol}_cycles"][level] = (
                    result.cycles / baseline.cycles
                )
                hit_rate = result.subtree_hit_rate()
                expected[f"{protocol}_hitrate"][level] = (
                    hit_rate if hit_rate is not None else 1.0
                )

        sweep = fig6_fig7_level_sweep(
            pairs=[pair],
            levels=levels,
            accesses_each=3000,
            seed=seed,
            config=config,
        )
        assert sweep == {"bodyt and fluida": expected}


class TestFig8:
    def test_structure(self, config):
        figure = fig8_spec(
            benchmarks=["xz"],
            protocols=("volatile", "leaf", "strict"),
            accesses=4000,
            config=config,
        )
        assert figure["xz"]["strict"] > figure["xz"]["leaf"]


class TestTable2:
    def test_columns(self, config):
        rows = table2_os_cost(
            pairs=[("bodytrack", "fluidanimate")],
            accesses_each=3000,
            config=config,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["workload"] == "bodyt and fluida"
        assert row["normalized_performance"] > 0
        assert row["instruction_overhead"] >= 1.0


class TestTables3And4:
    def test_table3(self):
        rows = table3_area()
        assert {row.protocol for row in rows} == {"bmf", "anubis", "amnt"}

    def test_table4(self):
        rows = table4_recovery()
        by_label = {row["protocol"]: row for row in rows}
        assert by_label["leaf"]["2.00TB"] == pytest.approx(6222.21, rel=1e-4)
        assert by_label["AMNT L3"]["2.00TB"] == pytest.approx(97.22, rel=1e-3)
        assert by_label["strict"]["128.00TB"] == 0.0
