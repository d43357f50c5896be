"""The parallel sweep runner, trace specs, and result serialization."""

import json
import pickle

import pytest

from dataclasses import replace

from repro.config import DataCacheConfig, default_config
from repro.sim import parallel
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    default_workers,
    run_cell,
)
from repro.sim.results import SimulationResult
from repro.sim.runner import run_protocol_sweep
from repro.util.units import MB
from repro.workloads.registry import (
    TraceSpec,
    literal_spec,
    materialize_trace,
    multiprogram_spec,
    profile_spec,
    trace_cache_clear,
    trace_cache_size,
)
from repro.workloads.synthetic import WorkloadProfile, generate_trace

#: Grid kept deliberately small: 2 workloads x 3 protocols x 2k accesses
#: runs in seconds even on one core while still exercising both the
#: strict (tree-walk) and volatile (lazy) extremes.
GRID_PROTOCOLS = ("volatile", "leaf", "strict")
GRID_ACCESSES = 2_000
GRID_SEED = 2024


@pytest.fixture
def config():
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base,
        llc=DataCacheConfig(capacity_bytes=64 * 1024, associativity=16),
    )


def grid_cells():
    return [
        SweepCell(
            protocol=protocol,
            trace=profile_spec("parsec", name, GRID_ACCESSES, GRID_SEED),
            seed=GRID_SEED,
        )
        for name in ("blackscholes", "canneal")
        for protocol in GRID_PROTOCOLS
    ]


class TestTraceSpec:
    def test_profile_spec_matches_direct_generation(self):
        from repro.workloads.parsec import parsec_profile

        spec = profile_spec("parsec", "bodytrack", 500, seed=7)
        direct = generate_trace(
            parsec_profile("bodytrack").scaled(accesses=500), seed=7
        )
        assert materialize_trace(spec, cache=False).accesses == direct.accesses

    def test_multiprogram_spec_matches_direct_generation(self):
        from repro.workloads.multiprogram import multiprogram_trace
        from repro.workloads.parsec import parsec_profile

        spec = multiprogram_spec(
            "parsec", ("bodytrack", "fluidanimate"), 400, seed=7
        )
        direct = multiprogram_trace(
            [parsec_profile("bodytrack"), parsec_profile("fluidanimate")],
            seed=7,
            accesses_each=400,
        )
        assert materialize_trace(spec, cache=False).accesses == direct.accesses

    def test_literal_spec_round_trips(self):
        profile = WorkloadProfile(
            name="lit", footprint_bytes=1 * MB, num_accesses=200,
            write_fraction=0.3,
        )
        trace = generate_trace(profile, seed=5)
        rebuilt = materialize_trace(literal_spec(trace), cache=False)
        assert rebuilt.name == trace.name
        assert rebuilt.accesses == trace.accesses

    def test_cache_returns_same_object(self):
        trace_cache_clear()
        spec = profile_spec("parsec", "swaptions", 300, seed=1)
        first = materialize_trace(spec)
        assert materialize_trace(spec) is first
        assert trace_cache_size() == 1
        trace_cache_clear()
        assert trace_cache_size() == 0

    def test_spec_is_picklable_and_hashable(self):
        spec = profile_spec("spec", "lbm", 100, seed=3)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, profile_spec("spec", "lbm", 100, seed=3)}) == 1

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError, match="unknown workload suite"):
            materialize_trace(
                profile_spec("nope", "lbm", 100, seed=3), cache=False
            )


class TestParallelEquivalence:
    def test_parallel_matches_serial_cell_for_cell(self, config, cold_leg):
        """workers=4 must be bit-identical to workers=1, per cell."""
        cells = grid_cells()
        serial = cold_leg(
            lambda: ParallelSweepRunner(workers=1).run(cells, config), len(cells)
        )
        parallel = cold_leg(
            lambda: ParallelSweepRunner(workers=4).run(cells, config), len(cells)
        )
        assert len(serial) == len(parallel) == len(cells)
        for cell, s, p in zip(cells, serial, parallel):
            assert s == p, f"cell {cell.protocol}/{cell.trace.label()} diverged"
            assert s.cycles == p.cycles
            assert s.llc_hit_rate == p.llc_hit_rate

    def test_two_parallel_runs_agree(self, config, cold_leg):
        """Same seed, same grid: scheduling must not leak into results."""
        cells = grid_cells()
        first, second = (
            cold_leg(
                lambda: ParallelSweepRunner(workers=4).run(cells, config),
                len(cells),
            )
            for _ in range(2)
        )
        assert first == second

    def test_results_arrive_in_cell_order(self, config):
        cells = grid_cells()
        results = ParallelSweepRunner(workers=4).run(cells, config)
        assert [r.protocol for r in results] == [c.protocol for c in cells]

    def test_run_protocol_sweep_workers_match(self, config, cold_leg):
        spec = profile_spec("parsec", "blackscholes", GRID_ACCESSES, GRID_SEED)
        serial, parallel = (
            cold_leg(
                lambda: run_protocol_sweep(
                    spec, config, GRID_PROTOCOLS, seed=GRID_SEED, workers=workers
                ),
                len(GRID_PROTOCOLS),
            )
            for workers in (1, 4)
        )
        assert serial == parallel

    def test_sweep_accepts_materialized_trace_with_workers(self, config):
        trace = materialize_trace(
            profile_spec("parsec", "blackscholes", GRID_ACCESSES, GRID_SEED)
        )
        serial = run_protocol_sweep(
            trace, config, ("volatile", "leaf"), seed=GRID_SEED, workers=1
        )
        parallel = run_protocol_sweep(
            trace, config, ("volatile", "leaf"), seed=GRID_SEED, workers=2
        )
        assert serial == parallel

    def test_per_cell_config_override(self, config):
        other = config.with_amnt(subtree_level=4)
        cell = SweepCell(
            protocol="amnt",
            trace=profile_spec("parsec", "blackscholes", 1_000, GRID_SEED),
            seed=GRID_SEED,
            config=other,
        )
        overridden = run_cell(cell, config)
        plain = run_cell(replace(cell, config=None), config)
        assert overridden.protocol == plain.protocol == "amnt"


class TestFallback:
    def test_workers_one_never_builds_a_pool(self, config, monkeypatch):
        import multiprocessing

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool built for workers=1")

        monkeypatch.setattr(multiprocessing, "get_context", explode)
        cells = grid_cells()[:2]
        results = ParallelSweepRunner(workers=1).run(cells, config)
        assert len(results) == 2

    def test_broken_pool_falls_back_in_process(
        self, config, monkeypatch, cold_leg
    ):
        runner = ParallelSweepRunner(workers=4)
        monkeypatch.setattr(
            parallel,
            "pool_context",
            lambda: (_ for _ in ()).throw(
                OSError("no fork for you")
            ),
        )
        cells = grid_cells()[:2]
        fallback = cold_leg(lambda: runner.run(cells, config), 2)
        serial = cold_leg(
            lambda: ParallelSweepRunner(workers=1).run(cells, config), 2
        )
        assert fallback == serial

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestResultSerialization:
    def _one_result(self, config) -> SimulationResult:
        return run_cell(grid_cells()[0], config)

    def test_pickle_round_trip(self, config):
        result = self._one_result(config)
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.nvm_stats == result.nvm_stats
        assert clone.protocol_stats == result.protocol_stats
        assert clone.mee_stats == result.mee_stats

    def test_json_round_trip(self, config):
        result = self._one_result(config)
        clone = SimulationResult.from_json(result.to_json())
        assert clone == result

    def test_json_dict_is_plain_builtins(self, config):
        payload = self._one_result(config).to_json_dict()
        json.dumps(payload)  # would raise on any non-builtin leaf
        assert isinstance(payload["nvm_stats"], dict)

    def test_from_json_dict_ignores_unknown_keys(self, config):
        payload = self._one_result(config).to_json_dict()
        payload["added_in_a_future_version"] = 42
        clone = SimulationResult.from_json_dict(payload)
        assert clone.cycles == payload["cycles"]

    def test_derived_metrics_survive_round_trip(self, config):
        result = self._one_result(config)
        clone = SimulationResult.from_json(result.to_json())
        assert clone.cycles_per_access() == result.cycles_per_access()
        assert clone.persist_traffic() == result.persist_traffic()
        assert clone.metadata_write_amplification() == (
            result.metadata_write_amplification()
        )


class TestEdgeCases:
    """Degenerate grids the runner must handle without a pool."""

    def test_empty_grid_returns_empty(self, config, monkeypatch):
        import multiprocessing

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool built for an empty grid")

        monkeypatch.setattr(multiprocessing, "get_context", explode)
        assert ParallelSweepRunner(workers=4).run([], config) == []
        assert ParallelSweepRunner(workers=4).map(run_cell, []) == []

    def test_single_cell_runs_in_process(self, config, monkeypatch):
        import multiprocessing

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool built for a single cell")

        monkeypatch.setattr(multiprocessing, "get_context", explode)
        cells = grid_cells()[:1]
        results = ParallelSweepRunner(workers=8).run(cells, config)
        assert len(results) == 1

    def test_pool_never_larger_than_grid(self, config, cold_leg, monkeypatch):
        import multiprocessing

        built = []
        real_get_context = multiprocessing.get_context

        class Recorder:
            def __init__(self, context):
                self._context = context

            def Pool(self, processes, **kwargs):
                built.append(processes)
                return self._context.Pool(processes, **kwargs)

        runner = ParallelSweepRunner(workers=64)
        monkeypatch.setattr(
            parallel,
            "pool_context",
            lambda: Recorder(real_get_context("fork")),
        )
        cells = grid_cells()[:2]
        results = cold_leg(lambda: runner.run(cells, config), 2)
        assert len(results) == 2
        assert built == [2]


class TestGridValidation:
    """validate_cells: typo'd grids die at planning time."""

    def test_unknown_protocol_named_in_error(self, config):
        from repro.errors import ConfigValidationError
        from repro.sim.parallel import validate_cells

        cells = grid_cells()[:1] + [
            replace(grid_cells()[0], protocol="made-up")
        ]
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_cells(cells)
        assert excinfo.value.field == "cell.protocol"
        assert "made-up" in str(excinfo.value)

    def test_unknown_protocol_rejected_before_any_work(self, config):
        from repro.errors import ConfigValidationError

        cells = [replace(grid_cells()[0], protocol="nope")]
        with pytest.raises(ConfigValidationError):
            ParallelSweepRunner(workers=1).run(cells, config)

    def test_bad_churn_interval_rejected(self, config):
        from repro.errors import ConfigValidationError
        from repro.sim.parallel import validate_cells

        cells = [replace(grid_cells()[0], churn_interval=0)]
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_cells(cells)
        assert excinfo.value.field == "cell.churn_interval"

    def test_negative_scatter_rejected(self, config):
        from repro.errors import ConfigValidationError
        from repro.sim.parallel import validate_cells

        cells = [replace(grid_cells()[0], scatter_span_chunks=-1)]
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_cells(cells)
        assert excinfo.value.field == "cell.scatter_span_chunks"


class TestTraceSpecValidation:
    """validate_trace_spec: field-level errors for malformed specs."""

    def test_unknown_profile_name(self):
        from repro.errors import ConfigValidationError
        from repro.workloads.registry import validate_trace_spec

        spec = profile_spec("parsec", "blackscholes", 1000, 1)
        bad = replace(spec, names=("not-a-benchmark",))
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_trace_spec(bad)
        assert excinfo.value.field == "trace.names"

    def test_unknown_suite(self):
        from repro.errors import ConfigValidationError
        from repro.workloads.registry import validate_trace_spec

        spec = profile_spec("parsec", "blackscholes", 1000, 1)
        bad = replace(spec, suite="not-a-suite")
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_trace_spec(bad)
        assert excinfo.value.field == "trace.suite"

    def test_nonpositive_accesses(self):
        from repro.errors import ConfigValidationError
        from repro.workloads.registry import validate_trace_spec

        spec = profile_spec("parsec", "blackscholes", 1000, 1)
        bad = replace(spec, accesses=0)
        with pytest.raises(ConfigValidationError) as excinfo:
            validate_trace_spec(bad)
        assert excinfo.value.field == "trace.accesses"

    def test_valid_specs_pass(self):
        from repro.workloads.registry import validate_trace_spec

        validate_trace_spec(profile_spec("parsec", "canneal", 500, 7))
        validate_trace_spec(
            multiprogram_spec("parsec", ("canneal", "dedup"), 500, 7)
        )
