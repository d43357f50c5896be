"""Unified telemetry: metrics registry, span tracing, event sink.

The package keeps simulation hot loops untouched: instead of per-access
instrumentation, :func:`record_simulation` folds a finished run's
component stat registries into the process-global metrics registry once
per simulation. Combined with pre-resolved no-op handles (see
``metrics.py``) this makes the telemetry-off and telemetry-on paths
execute the same simulation code, preserving bit-identical
``SimulationResult``s either way.
"""

from __future__ import annotations

import os

from repro.telemetry import events, metrics, spans
from repro.telemetry.events import (
    EventSink,
    NULL_SINK,
    emit_event,
    get_sink,
    install_sink,
    load_events,
    set_sink,
)
from repro.telemetry.export import (
    METRICS_SCHEMA,
    build_metrics_document,
    render_prometheus,
    validate_metrics_document,
    write_metrics_artifact,
)
from repro.telemetry.metrics import (
    MetricsRegistry,
    NULL_METRIC,
    counter,
    enabled,
    gauge,
    get_registry,
    histogram,
    set_enabled,
)
from repro.telemetry.spans import SpanTracer, get_tracer, span

#: Cell wall-clock histogram bounds (seconds) — sized for the reference
#: grids, where a cell runs tens of milliseconds to a few seconds.
CELL_SECONDS_BUCKETS = (
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def with_metrics_delta(func, payload):
    """``func(payload)`` with the telemetry it recorded here: returns
    ``(result, (pid, delta, spans))`` — the registry delta, and the
    spans ``func`` finished, tagged with this process's pid — or
    ``(result, None)`` with telemetry off. A runner's pool task runs
    through it, and the parent hands each return to
    :func:`merge_metrics_delta`.

    The delta keeps every counter this process has registered, at zero
    when ``func`` did not move it, so a pooled run names the counters
    an in-process run names (``MetricsRegistry.diff`` drops them)."""
    if not enabled():
        return func(payload), None
    registry = get_registry()
    tracer = get_tracer()
    before = registry.snapshot()
    mark = tracer.mark()
    result = func(payload)
    delta = registry.diff(before)
    moved = delta["counters"]
    delta["counters"] = {name: moved.get(name, 0) for name in registry.counters}
    return result, (os.getpid(), delta, tracer.finished_since(mark))


def merge_metrics_delta(tagged):
    """The result of a :func:`with_metrics_delta` return, its delta
    merged into this process's registry and its spans into this
    process's tracer, unless there are none or this process recorded
    them: an in-process fallback already wrote them here, and merging
    again would double count."""
    result, tagged_delta = tagged
    if tagged_delta is not None:
        pid, delta, finished = tagged_delta
        if pid != os.getpid():
            get_registry().merge_snapshot(delta)
            get_tracer().adopt(finished)
    return result


def reset() -> None:
    """Clear metrics and spans (the event sink is left installed)."""
    metrics.reset()
    spans.reset()


def record_simulation(result, mee, llc_hits: int, llc_misses: int) -> None:
    """Fold one finished simulation's aggregates into global metrics.

    Called once per run from ``sim/engine.py`` — never inside the access
    loop — so enabling telemetry adds a fixed per-run cost independent
    of trace length.
    """
    if not metrics.enabled():
        return
    reg = metrics.get_registry()
    counters = reg.counter
    counters("sim.runs").value += 1
    counters("sim.accesses").value += result.accesses
    counters("sim.cycles").value += result.cycles
    counters("sim.page_faults").value += result.page_faults
    counters("llc.hits").value += llc_hits
    counters("llc.misses").value += llc_misses
    mee_stats = mee.stats
    counters("mee.data_reads").value += mee_stats.get("data_reads")
    counters("mee.data_writes").value += mee_stats.get("data_writes")
    counters("mee.metadata_writebacks").value += mee_stats.get(
        "metadata_writebacks"
    )
    counters("mee.walk_stopped_at_register").value += mee_stats.get(
        "walk_stopped_at_register"
    )
    counters("mee.walk_stopped_at_cache").value += mee_stats.get(
        "walk_stopped_at_cache"
    )
    md_stats = mee.mdcache.stats
    counters("mdcache.hits").value += md_stats.get("hits")
    counters("mdcache.misses").value += md_stats.get("misses")
    counters("mdcache.evictions").value += md_stats.get("evictions")
    nvm_persists = result.nvm_stats.get("nvm.persists.total", 0)
    counters("nvm.persists.total").value += nvm_persists
    counters("nvm.writes.total").value += result.nvm_stats.get(
        "nvm.writes.total", 0
    )
    counters(f"sim.persists.{result.protocol}").value += nvm_persists
    counters(f"sim.runs.{result.protocol}").value += 1


def record_fault_outcomes(outcomes) -> None:
    """Fold fault-campaign verdict counts into global metrics.

    Called parent-side on the assembled outcome list so counts are
    complete regardless of which worker (or the in-process fallback)
    ran each cell, and are never double counted.
    """
    if not metrics.enabled():
        return
    reg = metrics.get_registry()
    for outcome in outcomes:
        reg.counter("faults.cells").value += 1
        reg.counter(f"faults.verdict.{outcome.verdict}").value += 1
        if outcome.crash_phase:
            reg.counter(f"faults.crash_phase.{outcome.crash_phase}").value += 1
        # Crash-state coverage (WPQ persist model); the getattr guards
        # keep older journaled outcome shapes replayable.
        reg.counter("faults.crash_states.explored").value += getattr(
            outcome, "crash_states_explored", 0
        )
        reg.counter("faults.crash_states.sampled").value += getattr(
            outcome, "crash_states_sampled", 0
        )
        reg.counter("faults.crash_states.skipped").value += getattr(
            outcome, "crash_states_skipped", 0
        )


__all__ = [
    "CELL_SECONDS_BUCKETS",
    "EventSink",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_SINK",
    "SpanTracer",
    "build_metrics_document",
    "counter",
    "emit_event",
    "enabled",
    "events",
    "gauge",
    "get_registry",
    "get_sink",
    "get_tracer",
    "histogram",
    "install_sink",
    "load_events",
    "merge_metrics_delta",
    "metrics",
    "record_fault_outcomes",
    "record_simulation",
    "render_prometheus",
    "reset",
    "set_enabled",
    "set_sink",
    "span",
    "spans",
    "validate_metrics_document",
    "with_metrics_delta",
    "write_metrics_artifact",
]
