"""Plain-text table rendering for the benchmark harness."""

from repro.bench.reporting import (
    derive_hit_ratios,
    format_metrics,
    format_series,
    format_table,
)


class TestFormatTable:
    def test_empty(self):
        assert "(empty)" in format_table([])

    def test_title_and_alignment(self):
        rows = [
            {"protocol": "amnt", "norm": 1.1604},
            {"protocol": "strict", "norm": 2.39},
        ]
        text = format_table(rows, title="Figure 4")
        lines = text.splitlines()
        assert lines[0] == "Figure 4"
        assert "protocol" in lines[1]
        assert "1.160" in text
        assert "2.390" in text

    def test_column_subset_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_missing_cells_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 9}]
        text = format_table(rows)
        assert text  # renders without KeyError

    def test_precision(self):
        text = format_table([{"x": 1.23456}], precision=1)
        assert "1.2" in text and "1.23" not in text


class TestDerivedHitRatios:
    def test_pairs_become_ratio_rows(self):
        counters = {
            "trace_cache.hits": 3,
            "trace_cache.misses": 1,
            "compiled_cache.hits": 0,
            "compiled_cache.misses": 2,
            "other_cache.hits": 5,  # no .misses twin -> no ratio
            "events.total": 9,
        }
        ratios = derive_hit_ratios(counters)
        assert ratios == {
            "trace_cache.hit_ratio": 0.75,
            "compiled_cache.hit_ratio": 0.0,
        }

    def test_idle_pairs_are_omitted(self):
        assert derive_hit_ratios({"c.hits": 0, "c.misses": 0}) == {}

    def test_format_metrics_renders_ratio_table(self):
        document = {
            "metrics": {
                "counters": {
                    "compiled_cache.hits": 9,
                    "compiled_cache.misses": 3,
                }
            }
        }
        text = format_metrics(document, source="run")
        assert "derived hit ratios" in text
        assert "compiled_cache.hit_ratio" in text
        assert "0.750" in text

    def test_format_metrics_without_pairs_has_no_ratio_table(self):
        document = {"metrics": {"counters": {"events.total": 4}}}
        assert "derived hit ratios" not in format_metrics(document)


class TestFormatSeries:
    def test_series_grid(self):
        series = {
            "canneal": {"leaf": 1.0, "anubis": 2.4},
            "lbm": {"leaf": 1.1, "anubis": 1.3},
        }
        text = format_series(series, title="Fig")
        assert "canneal" in text
        assert "workload" in text
        assert "2.400" in text
