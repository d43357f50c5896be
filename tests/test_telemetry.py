"""Telemetry subsystem: registry, spans, events, export, LRU caches,
and the bit-identity contract.

The load-bearing guarantee is the last class: a simulation produces the
exact same :class:`SimulationResult` with telemetry enabled or disabled
— the subsystem observes runs, it never participates in them.
"""

import json
from collections import Counter

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.config import default_config
from repro.sim.parallel import ParallelSweepRunner, SweepCell, run_cell
from repro.sim.runner import run_resilient_sweep
from repro.sim.supervisor import SupervisionPolicy
from repro.telemetry.events import EventSink, install_sink, load_events, set_sink
from repro.telemetry.export import (
    METRICS_SCHEMA,
    build_metrics_document,
    render_prometheus,
    validate_metrics_document,
    write_metrics_artifact,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer
from repro.util.units import MB
from repro.workloads import registry as workloads
from repro.workloads.registry import profile_spec

SEED = 2024
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.02)

#: Small functional trace shared by the bit-identity grid.
TRACE = profile_spec("parsec", "blackscholes", 400, SEED)

#: The paper's figure protocols — all six, per the acceptance bar.
PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt")


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with pristine global telemetry."""
    prev = telemetry.enabled()
    telemetry.reset()
    yield
    telemetry.set_enabled(prev)
    telemetry.reset()
    set_sink(None)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").add(4)
        reg.gauge("g").set(2.5)
        reg.gauge("g").inc(0.5)
        hist = reg.histogram("h", (1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 5.0, 99.0):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 3.0
        assert snap["histograms"]["h"]["buckets"] == [1.0, 5.0]
        # le (<=) semantics: 0.5 and 1.0 land in the first bucket,
        # 3.0 and 5.0 in the second, 99.0 overflows.
        assert snap["histograms"]["h"]["counts"] == [2, 2, 1]
        assert snap["histograms"]["h"]["count"] == 5
        assert snap["histograms"]["h"]["sum"] == pytest.approx(108.5)

    def test_lookup_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h", (1.0,)) is reg.histogram("h", (1.0,))

    def test_diff_drops_zero_deltas(self):
        reg = MetricsRegistry()
        reg.counter("touched").inc()
        reg.counter("idle").inc()
        before = reg.snapshot()
        reg.counter("touched").add(2)
        delta = reg.diff(before)
        assert delta["counters"] == {"touched": 2}

    def test_merge_snapshot_adds_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", (1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.counter("c").add(10)
        other.counter("new").inc()
        other.histogram("h", (1.0,)).observe(9.0)
        reg.merge_snapshot(other.snapshot())
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 11, "new": 1}
        assert snap["histograms"]["h"]["counts"] == [1, 1]
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_snapshot_rejects_bucket_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            reg.merge_snapshot(other.snapshot())

    def test_disabled_handles_are_noops(self):
        telemetry.set_enabled(False)
        telemetry.counter("ghost").inc()
        telemetry.gauge("ghost").set(1)
        telemetry.histogram("ghost", (1.0,)).observe(0.5)
        telemetry.set_enabled(True)
        snap = telemetry.get_registry().snapshot()
        assert "ghost" not in snap["counters"]
        assert "ghost" not in snap["gauges"]
        assert "ghost" not in snap["histograms"]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished()
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert inner["duration_s"] >= 0.0
        assert outer["duration_s"] >= inner["duration_s"]

    def test_ring_is_bounded(self):
        tracer = SpanTracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        finished = tracer.finished()
        assert len(finished) == 4
        assert [s["name"] for s in finished] == ["s6", "s7", "s8", "s9"]

    def test_adopted_spans_nest_under_the_open_span(self):
        worker = SpanTracer()
        with worker.span("before"):
            pass
        mark = worker.mark()
        with worker.span("cell"):
            with worker.span("phase"):
                pass
        shipped = worker.finished_since(mark)
        assert [s["name"] for s in shipped] == ["phase", "cell"]

        parent = SpanTracer()
        with parent.span("sweep") as sweep_id:
            parent.adopt(shipped)
        phase, cell, sweep = parent.finished()
        assert sweep["name"] == "sweep"
        assert cell["parent"] == sweep_id
        assert phase["parent"] == cell["id"]
        assert len({phase["id"], cell["id"], sweep["id"]}) == 3
        assert cell["duration_s"] == shipped[1]["duration_s"]

    def test_module_span_is_noop_when_disabled(self):
        telemetry.set_enabled(False)
        with telemetry.span("invisible"):
            pass
        telemetry.set_enabled(True)
        assert telemetry.get_tracer().finished() == []


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------


class TestEvents:
    def test_round_trip_and_sequencing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path, flush_every=2)
        sink.emit("alpha", key="a")
        sink.emit("beta", key="b")  # auto-flush on the second event
        events = load_events(path)
        assert [e["kind"] for e in events] == ["alpha", "beta"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all("t" in e for e in events)
        sink.close()

    def test_load_tolerates_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path)
        sink.emit("ok", key="a")
        sink.flush()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "kind": "torn"')  # no newline, torn
        events = load_events(path)
        assert [e["kind"] for e in events] == ["ok"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_events(tmp_path / "absent.jsonl") == []

    def test_close_creates_file_even_when_empty(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventSink(path).close()
        assert path.exists()
        assert load_events(path) == []

    def test_install_sink_routes_emit_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        install_sink(path)
        telemetry.emit_event("probe", value=7)
        telemetry.get_sink().flush()
        events = load_events(path)
        assert events[0]["kind"] == "probe"
        assert events[0]["value"] == 7


# ----------------------------------------------------------------------
# export: metrics document + Prometheus rendering
# ----------------------------------------------------------------------


class TestExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("sim.runs").add(3)
        reg.gauge("sweep.workers").set(2)
        reg.histogram("sweep.cell_seconds", (0.1, 1.0)).observe(0.05)
        reg.histogram("sweep.cell_seconds", (0.1, 1.0)).observe(5.0)
        return reg

    def test_document_builds_valid(self):
        doc = build_metrics_document(
            self._registry(), run={"kind": "test"}, spans=[]
        )
        assert doc["schema"] == METRICS_SCHEMA
        assert validate_metrics_document(doc) == []

    def test_validation_catches_corruption(self):
        doc = build_metrics_document(self._registry(), run={"kind": "test"})
        doc["metrics"]["histograms"]["sweep.cell_seconds"]["counts"] = [1]
        assert validate_metrics_document(doc)
        assert validate_metrics_document({"schema": "bogus/v9"})
        assert validate_metrics_document([])

    def test_prometheus_rendering(self):
        text = render_prometheus(self._registry().snapshot())
        assert "repro_sim_runs 3" in text
        assert "repro_sweep_workers 2" in text
        # Cumulative buckets: 0.05 <= 0.1, 5.0 only under +Inf.
        assert 'repro_sweep_cell_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_sweep_cell_seconds_bucket{le="1"} 1' in text
        assert 'repro_sweep_cell_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_sweep_cell_seconds_count 2" in text
        assert "# TYPE repro_sim_runs counter" in text

    def test_write_metrics_artifact(self, tmp_path):
        path = tmp_path / "METRICS.json"
        write_metrics_artifact(path, self._registry(), run={"kind": "test"})
        doc = json.loads(path.read_text())
        assert validate_metrics_document(doc) == []
        assert doc["run"] == {"kind": "test"}


# ----------------------------------------------------------------------
# bounded workload caches (satellite: LRU + cache telemetry)
# ----------------------------------------------------------------------


class TestWorkloadCaches:
    def test_trace_cache_is_lru_bounded(self):
        prev = workloads.trace_cache_limit()
        workloads.trace_cache_clear()
        telemetry.get_registry().reset()
        try:
            workloads.set_trace_cache_limit(2)
            specs = [
                profile_spec("parsec", "blackscholes", n, SEED)
                for n in (100, 110, 120)
            ]
            for spec in specs:
                workloads.materialize_trace(spec)
            assert workloads.trace_cache_size() == 2
            # The oldest entry was evicted: re-materializing it misses.
            workloads.materialize_trace(specs[0])
            snap = telemetry.get_registry().snapshot()
            assert snap["counters"]["trace_cache.misses"] == 4
            assert snap["counters"]["trace_cache.evictions"] >= 1
            assert snap["gauges"]["trace_cache.size"] == 2
            # A warm entry hits.
            workloads.materialize_trace(specs[0])
            snap = telemetry.get_registry().snapshot()
            assert snap["counters"]["trace_cache.hits"] == 1
        finally:
            workloads.set_trace_cache_limit(prev)
            workloads.trace_cache_clear()

    def test_cache_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            workloads.set_trace_cache_limit(0)
        with pytest.raises(ValueError):
            workloads.set_compiled_cache_limit(-1)

    def test_shrinking_limit_evicts_overflow(self):
        prev = workloads.effective_cache_limits()["compiled"]
        try:
            workloads.set_compiled_cache_limit(8)
            assert workloads.effective_cache_limits()["compiled"] == 8
            workloads.set_compiled_cache_limit(1)
            assert workloads.compiled_cache_size() <= 1
        finally:
            workloads.set_compiled_cache_limit(prev)

    def test_shrinking_limit_emits_eviction_events(self, tmp_path):
        """A shrunken limit reports its evictions on the event stream
        exactly as an overflowing put does."""
        prev = workloads.trace_cache_limit()
        workloads.trace_cache_clear()
        path = tmp_path / "events.jsonl"
        install_sink(path)
        try:
            for accesses in (100, 110, 120):
                workloads.materialize_trace(
                    profile_spec("parsec", "blackscholes", accesses, SEED)
                )
            workloads.set_trace_cache_limit(1)
            telemetry.get_sink().flush()
            evictions = [
                event
                for event in load_events(path)
                if event["kind"] == "trace_cache_eviction"
            ]
            assert [event["size"] for event in evictions] == [2, 1]
            counters = telemetry.get_registry().snapshot()["counters"]
            assert counters["trace_cache.evictions"] == 2
        finally:
            workloads.set_trace_cache_limit(prev)
            workloads.trace_cache_clear()


# ----------------------------------------------------------------------
# the contract: telemetry never changes simulation results
# ----------------------------------------------------------------------


def _run_grid(config):
    results = {}
    for protocol in PROTOCOLS:
        cell = SweepCell(
            protocol=protocol, trace=TRACE, seed=SEED, functional=True
        )
        results[protocol] = run_cell(cell, config)
    return results


class TestBitIdentity:
    def test_results_identical_with_telemetry_on_and_off(self, small_config):
        telemetry.set_enabled(False)
        off = _run_grid(small_config)
        telemetry.set_enabled(True)
        telemetry.reset()
        on = _run_grid(small_config)
        assert on == off
        # And the enabled run actually recorded something.
        snap = telemetry.get_registry().snapshot()
        assert snap["counters"]["sim.runs"] == len(PROTOCOLS)
        assert snap["counters"]["sweep.cells"] == len(PROTOCOLS)
        for protocol in PROTOCOLS:
            assert snap["counters"][f"sim.runs.{protocol}"] == 1

    def test_pool_merge_counts_each_cell_once(self, small_config):
        telemetry.set_enabled(True)
        telemetry.reset()
        cells = [
            SweepCell(protocol=protocol, trace=TRACE, seed=SEED)
            for protocol in ("volatile", "leaf")
        ]
        # workers=2 exercises the pool path (or its in-process
        # fallback); either way each cell must land exactly once.
        results = ParallelSweepRunner(workers=2).run(cells, small_config)
        assert len(results) == 2
        snap = telemetry.get_registry().snapshot()
        assert snap["counters"]["result_cache.misses"] == 2
        assert snap["counters"]["sim.runs"] == 2
        assert snap["counters"]["sweep.cells"] == 2
        assert snap["gauges"]["sweep.workers"] == 2

    def test_pooled_journaled_sweep_counts_each_cell_once(self, tmp_path):
        """A supervised pool ships its workers' metrics back, as the
        plain runner's does: every cell lands exactly once."""
        telemetry.set_enabled(True)
        telemetry.reset()
        outcome = run_resilient_sweep(
            tmp_path / "run",
            benchmarks=("blackscholes",),
            accesses=300,
            seed=SEED,
            workers=2,
            policy=SupervisionPolicy(**FAST),
        )
        assert outcome["completed"] == outcome["cells"] == 6
        counters = telemetry.get_registry().snapshot()["counters"]
        assert counters["sweep.cells"] == counters["sim.runs"] == 6

    def test_sweep_cells_counts_computed_cells_only(self, small_config):
        telemetry.set_enabled(True)
        telemetry.reset()
        cells = [
            SweepCell(protocol=protocol, trace=TRACE, seed=SEED)
            for protocol in ("volatile", "leaf")
        ]
        runner = ParallelSweepRunner(workers=1)
        cold = runner.run(cells, small_config)
        warm = runner.run(cells, small_config)
        assert warm == cold
        counters = telemetry.get_registry().snapshot()["counters"]
        assert counters["sweep.cells"] == counters["sim.runs"] == 2
        assert counters["result_cache.misses"] == 2
        assert counters["result_cache.hits"] == 2


class TestPooledMetricsDocument:
    """A pooled sweep's metrics document says what the in-process one
    says: the workers ship their spans and every counter they
    registered, zero-valued ones included, with their deltas."""

    #: Each process's own artifact caches: a pool looks an artifact up
    #: once per unit and worker, so these values follow the partition.
    #: Their names still must match.
    PER_PROCESS = ("trace_cache.", "compiled_cache.")

    @staticmethod
    def document(tmp_path, workers, journaled):
        workloads.trace_cache_clear()
        workloads.compiled_cache_clear()
        workloads.result_cache_clear()
        path = tmp_path / f"metrics-{workers}.json"
        argv = ["sweep", "blackscholes", "--accesses", "300"]
        argv += ["--workers", str(workers), "--metrics-out", str(path)]
        if journaled:
            argv += ["--run-dir", str(tmp_path / f"run-{workers}")]
        assert cli_main(argv) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("journaled", [False, True], ids=["plain", "run-dir"])
    def test_one_and_two_workers_write_the_same_document(
        self, tmp_path, journaled
    ):
        serial = self.document(tmp_path, 1, journaled)
        pooled = self.document(tmp_path, 2, journaled)

        def counters(doc):
            return {
                name: None if name.startswith(self.PER_PROCESS) else value
                for name, value in doc["metrics"]["counters"].items()
            }

        def spans(doc):
            return Counter(span["name"] for span in doc["spans"])

        assert counters(pooled) == counters(serial)
        assert serial["metrics"]["counters"]["mee.data_writes"] == 0
        assert spans(pooled) == spans(serial)
        assert sum(spans(serial).values()) >= 6


# ----------------------------------------------------------------------
# supervised runs: event log is a faithful superset of the journal
# ----------------------------------------------------------------------


class TestSupervisedEvents:
    SWEEP_KW = dict(
        benchmarks=("blackscholes",),
        protocols=("volatile", "leaf"),
        accesses=300,
        seed=SEED,
        workers=1,
    )

    def test_resumed_event_log_supersets_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        events_path = tmp_path / "events.jsonl"
        telemetry.set_enabled(True)
        install_sink(events_path)

        with pytest.raises(KeyboardInterrupt):
            run_resilient_sweep(
                run_dir,
                policy=SupervisionPolicy(die_after_flushes=1, **FAST),
                **self.SWEEP_KW,
            )
        # The sink flushed at the checkpoint *before* the injected kill,
        # so the first cell's journal_record survived the crash.
        crashed = load_events(events_path)
        assert any(e["kind"] == "journal_record" for e in crashed)

        run_resilient_sweep(
            run_dir,
            resume=True,
            policy=SupervisionPolicy(**FAST),
            **self.SWEEP_KW,
        )
        telemetry.get_sink().flush()

        journal_keys = set()
        with open(run_dir / "journal.jsonl", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                if entry.get("status") in ("done", "failed"):
                    journal_keys.add(entry["key"])
        events = load_events(events_path)
        event_keys = {
            e["key"]
            for e in events
            if e["kind"] in ("journal_record", "journal_restored")
        }
        assert journal_keys
        assert journal_keys <= event_keys
        # The resumed leg re-announced the restored cell.
        assert any(e["kind"] == "journal_restored" for e in events)
        assert any(e["kind"] == "checkpoint_flush" for e in events)
