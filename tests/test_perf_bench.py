"""The reference wall-clock benchmark: interleaved best-of-N legs."""

import pytest

from repro.bench.perf import format_report, run_reference_bench
from repro.sim.parallel import default_workers


@pytest.fixture(scope="module")
def report():
    """Tiny grid, two interleaved rounds, every applicable leg."""
    return run_reference_bench(
        workers=1,
        benchmarks=("blackscholes",),
        protocols=("leaf", "strict"),
        accesses=300,
        output=None,
        rounds=2,
    )


class TestInterleavedLegs:
    def test_every_leg_sampled_every_round(self, report):
        samples = report["samples_seconds"]
        expected = {
            "serial_uncached",
            "serial",
            "serial_telemetry",
            "serial_plan",
            "store_cold",
            "warm_sweep",
        }
        if report["legs"].get("parallel") == "measured":
            expected.add("parallel")
        assert set(samples) == expected
        assert all(len(values) == 2 for values in samples.values())

    def test_headline_is_best_of_rounds(self, report):
        for leg, values in report["samples_seconds"].items():
            assert report["timings_seconds"][leg] == pytest.approx(
                min(values), abs=1e-4
            )

    def test_timing_method_recorded(self, report):
        assert report["timing_method"] == {
            "strategy": "interleaved-best-of",
            "rounds": 2,
        }

    def test_speedups_derive_from_best(self, report):
        timings = report["timings_seconds"]
        assert report["speedups"]["trace_cache"] == pytest.approx(
            timings["serial_uncached"] / timings["serial"]
        )
        assert report["speedups"]["plan_vs_serial"] == pytest.approx(
            timings["serial"] / timings["serial_plan"]
        )

    def test_skip_uncached_drops_leg(self):
        report = run_reference_bench(
            workers=1,
            benchmarks=("blackscholes",),
            protocols=("leaf",),
            accesses=300,
            output=None,
            include_uncached=False,
            rounds=1,
        )
        assert report["timings_seconds"]["serial_uncached"] is None
        assert "serial_uncached" not in report["samples_seconds"]
        assert report["speedups"]["trace_cache"] is None

    def test_skip_plan_drops_leg(self):
        report = run_reference_bench(
            workers=1,
            benchmarks=("blackscholes",),
            protocols=("leaf",),
            accesses=300,
            output=None,
            include_uncached=False,
            include_plan=False,
            rounds=1,
        )
        assert report["timings_seconds"]["serial_plan"] is None
        assert "serial_plan" not in report["samples_seconds"]
        assert report["speedups"]["plan_vs_serial"] is None

    def test_skip_store_drops_legs(self):
        report = run_reference_bench(
            workers=1,
            benchmarks=("blackscholes",),
            protocols=("leaf",),
            accesses=300,
            output=None,
            include_uncached=False,
            include_store=False,
            rounds=1,
        )
        assert report["timings_seconds"]["store_cold"] is None
        assert report["timings_seconds"]["warm_sweep"] is None
        assert "store_cold" not in report["samples_seconds"]
        assert report["speedups"]["warm_vs_cold"] is None
        assert "store" not in report

    def test_store_legs_cold_then_all_hits(self, report):
        """Cold computes + writes every cell; warm replays the same
        round's store with zero misses."""
        cells = report["grid"]["cells"]
        store = report["store"]
        assert store["cold_session"]["misses"] == cells
        assert store["cold_session"]["puts"] == cells
        assert store["warm_session"]["hits"] == cells
        assert store["warm_session"]["misses"] == 0
        assert report["speedups"]["warm_vs_cold"] == pytest.approx(
            report["timings_seconds"]["store_cold"]
            / report["timings_seconds"]["warm_sweep"]
        )

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            run_reference_bench(
                benchmarks=("blackscholes",),
                protocols=("leaf",),
                accesses=300,
                output=None,
                rounds=0,
            )

    def test_format_report_shows_samples(self, report):
        text = format_report(report)
        assert "best of 2 interleaved round(s)" in text
        assert "samples:" in text

    def test_history_appends_and_returns_previous(self, tmp_path):
        from repro.bench.perf import format_history_delta
        from repro.util.atomicio import read_jsonl

        log = tmp_path / "BENCH_history.jsonl"
        kwargs = dict(
            workers=1,
            benchmarks=("blackscholes",),
            protocols=("leaf",),
            accesses=300,
            output=None,
            include_uncached=False,
            include_telemetry=False,
            rounds=1,
            history=log,
        )
        first = run_reference_bench(**kwargs)
        assert first["history"]["previous"] is None
        assert "first recorded run" in format_history_delta(
            first, first["history"]["previous"]
        )
        second = run_reference_bench(**kwargs)
        previous = second["history"]["previous"]
        assert previous is not None
        assert previous["timings_seconds"]["serial"] == pytest.approx(
            first["timings_seconds"]["serial"], abs=1e-4
        )
        entries = read_jsonl(log)
        assert len(entries) == 2
        for entry in entries:
            assert entry["recorded_at"]
            assert entry["grid"]["cells"] == 1
        delta = format_history_delta(second, previous)
        assert "vs previous run" in delta
        assert "serial" in delta

    def test_parallel_leg_honest_on_single_cpu(self, report):
        """A pool on one visible core measures fork overhead, not the
        runner — the leg must be skipped and say so, never recorded as
        a sub-1.0x 'speedup'."""
        if default_workers() > 1:
            assert report["legs"]["parallel"] == "measured"
            assert report["timings_seconds"]["parallel"] is not None
        else:
            assert report["legs"]["parallel"] == "skipped_single_cpu"
            assert report["timings_seconds"]["parallel"] is None
            assert report["speedups"]["parallel_vs_serial"] is None
            assert "parallel" not in report["samples_seconds"]
            assert "skipped" in format_report(report)
