"""Protocol sweeps and summary helpers."""

import pytest

from dataclasses import replace

from repro.config import DataCacheConfig, default_config
from repro.sim.runner import (
    FIGURE_PROTOCOLS,
    geometric_mean,
    run_protocol_sweep,
    sweep_normalized,
)
from repro.util.units import MB
from repro.workloads.synthetic import WorkloadProfile, generate_trace


@pytest.fixture
def config():
    # A small LLC so short unit traces actually generate memory
    # writebacks (the traffic the persistence protocols differ on).
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base,
        llc=DataCacheConfig(capacity_bytes=64 * 1024, associativity=16),
    )


@pytest.fixture
def trace():
    profile = WorkloadProfile(
        name="sweep-unit",
        footprint_bytes=2 * MB,
        num_accesses=3000,
        write_fraction=0.4,
        think_cycles=5,
    )
    return generate_trace(profile, seed=3)


class TestSweep:
    def test_runs_each_protocol_once(self, config, trace):
        results = run_protocol_sweep(
            trace, config, ("volatile", "leaf"), seed=1
        )
        assert set(results) == {"volatile", "leaf"}
        assert results["leaf"].protocol == "leaf"

    def test_default_lineup_matches_figures(self):
        assert FIGURE_PROTOCOLS == (
            "volatile", "leaf", "strict", "anubis", "bmf", "amnt",
        )

    def test_normalized_includes_baseline_implicitly(self, config, trace):
        normalized = sweep_normalized(
            trace, config, protocols=("leaf", "strict"), seed=1
        )
        assert normalized["volatile"] == 1.0
        assert normalized["strict"] > normalized["leaf"]

    def test_protocol_ordering_story(self, config, trace):
        """The paper's headline ordering on a write-heavy workload:
        leaf <= amnt << strict, with anubis and bmf in between."""
        normalized = sweep_normalized(
            trace,
            config,
            protocols=("leaf", "strict", "anubis", "bmf", "amnt"),
            seed=1,
        )
        assert normalized["amnt"] <= normalized["bmf"]
        assert normalized["amnt"] < normalized["strict"]
        assert normalized["leaf"] < normalized["strict"]


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_long_tiny_sweep_does_not_underflow(self):
        # A running product of 500 values ~1e-3 underflows a double to
        # 0.0; the log-sum form keeps full precision.
        assert geometric_mean([1e-3] * 500) == pytest.approx(1e-3)

    def test_long_huge_sweep_does_not_overflow(self):
        assert geometric_mean([1e300] * 10) == pytest.approx(1e300, rel=1e-9)

    def test_mixed_extremes(self):
        values = [1e200, 1e-200] * 50
        assert geometric_mean(values) == pytest.approx(1.0)


class TestSweepValidation:
    """run_protocol_sweep fails fast on a malformed grid, before any
    machine is built (serial and parallel paths alike)."""

    def test_unknown_protocol_rejected_up_front(self, config, trace):
        from repro.errors import ConfigValidationError

        with pytest.raises(ConfigValidationError) as excinfo:
            run_protocol_sweep(trace, config, protocols=("volatile", "typo"))
        assert excinfo.value.field == "cell.protocol"
        assert "typo" in str(excinfo.value)

    def test_bad_churn_interval_rejected_up_front(self, config, trace):
        from repro.errors import ConfigValidationError

        with pytest.raises(ConfigValidationError) as excinfo:
            run_protocol_sweep(
                trace, config, protocols=("volatile",), churn_interval=0
            )
        assert excinfo.value.field == "cell.churn_interval"

    def test_malformed_spec_rejected_up_front(self, config):
        from repro.errors import ConfigValidationError
        from repro.workloads.registry import profile_spec

        spec = profile_spec("parsec", "blackscholes", 0, 1)
        with pytest.raises(ConfigValidationError) as excinfo:
            run_protocol_sweep(spec, config, protocols=("volatile",))
        assert excinfo.value.field == "trace.accesses"

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"protocols": ("volatile", "typo")}, "cell.protocol"),
            ({"churn_interval": 0}, "cell.churn_interval"),
            ({"scatter_span_chunks": -1}, "cell.scatter_span_chunks"),
        ],
    )
    @pytest.mark.parametrize("source", ("trace", "spec"))
    def test_raw_trace_and_spec_sweeps_reject_alike(
        self, config, source, kwargs, field
    ):
        """A raw trace's sweep-local path and a spec's runner path run
        the same cell checks."""
        from repro.errors import ConfigValidationError
        from repro.workloads.registry import materialize_trace, profile_spec

        spec = profile_spec("parsec", "canneal", 500, 2024)
        swept = materialize_trace(spec) if source == "trace" else spec
        kwargs = {"protocols": ("volatile", "leaf"), **kwargs}
        with pytest.raises(ConfigValidationError) as excinfo:
            run_protocol_sweep(swept, config, **kwargs)
        assert excinfo.value.field == field


class TestReplayBuildsNoDataSide:
    """Plan replay drives engines alone: the data side (LLC and buddy
    allocator) is built by the stream compiler once per compiled
    stream, one per OS variant, however many protocols replay it."""

    @pytest.mark.parametrize("lineup", ("two", "all"))
    @pytest.mark.parametrize("source", ("trace", "spec"))
    def test_one_data_side_per_stream(self, monkeypatch, config, source, lineup):
        import repro.sim.machine as machine_module
        import repro.sim.replay as replay_module
        from repro.core.protocol import protocol_names
        from repro.workloads.registry import (
            compiled_cache_clear,
            materialize_trace,
            profile_spec,
        )

        built = []
        original = machine_module.build_data_side

        def counted(*args, **kwargs):
            built.append(kwargs["modified_os"])
            return original(*args, **kwargs)

        monkeypatch.setattr(machine_module, "build_data_side", counted)
        monkeypatch.setattr(replay_module, "build_data_side", counted)
        protocols = (
            ("volatile", "amnt++") if lineup == "two" else tuple(protocol_names())
        )
        assert "amnt++" in protocols
        spec = profile_spec("parsec", "canneal", 500, 2024)
        swept = materialize_trace(spec) if source == "trace" else spec
        compiled_cache_clear()
        results = run_protocol_sweep(swept, config, protocols, seed=2024)
        assert list(results) == list(protocols)
        assert sorted(built) == [False, True]
