"""Performance benchmark: the reference sweep and its trajectory.

``repro perf`` times one fixed, deterministic sweep grid three ways —
serial without the trace cache (every cell regenerates its trace, the
pre-optimization behaviour), serial with the shared cache, and parallel
over the process pool — and writes the measurements to
``BENCH_sweep.json``. Committing that file after perf-relevant PRs
gives the repository a wall-clock trajectory the same way the figure
harnesses give it a numbers trajectory.

The grid is real work (three PARSEC profiles spanning cache-friendly to
pointer-chasing, times the full Figure-4 protocol lineup), so the
timings move when — and only when — the simulator's hot paths move.

Legs are *interleaved best-of-N*: each round runs every leg once, in
order, and the reported figure per leg is the minimum across rounds
(raw samples are recorded alongside). Back-to-back single-shot legs
measured different machine states — the first leg paid interpreter and
allocator warm-up that later legs inherited for free, which once drove
the recorded trace-cache "speedup" below 1.0 (0.897 in an earlier
BENCH_sweep.json). Interleaving gives every leg the same mix of warm
and cold rounds, and best-of-N is the standard low-noise estimator for
deterministic workloads.
"""

from __future__ import annotations

import platform
import sys
import time
from datetime import datetime, timezone
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.config import SystemConfig, default_config
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    _pool_entry,
    default_workers,
    precompile_streams,
    run_cell,
    validate_cells,
)
from repro.sim.results import SimulationResult
from repro.sim.runner import FIGURE_PROTOCOLS
from repro.sim.supervisor import (
    CellFailure,
    RunJournal,
    SupervisedRunner,
    SupervisionPolicy,
    build_manifest,
    split_outcomes,
)
from repro.util.atomicio import (
    atomic_append_jsonl,
    atomic_write_json,
    read_jsonl,
)
from repro.util.rng import Seed
from repro.workloads.registry import (
    boundary_stream_cache_clear,
    materialize_trace,
    metadata_plan_cache_clear,
    profile_spec,
    trace_cache_clear,
)

#: Deterministic per-cell results artifact of a resilient sweep.
SWEEP_RESULTS_NAME = "SWEEP_results.json"

#: Append-only trend log: one JSONL entry per ``repro perf`` run.
BENCH_HISTORY_NAME = "BENCH_history.jsonl"

#: Cache-resident, balanced, and pointer-chasing — three distinct
#: hot-path mixes so the reference number is not hostage to one regime.
REFERENCE_BENCHMARKS = ("blackscholes", "bodytrack", "canneal")
REFERENCE_ACCESSES = 20_000
REFERENCE_SEED = 2024

#: Interleaved rounds per leg; the reported time is the per-leg best.
REFERENCE_ROUNDS = 3

#: Acceptance budget for telemetry: the telemetry-enabled serial leg
#: must stay within this fraction of the telemetry-disabled one.
TELEMETRY_OVERHEAD_BUDGET = 0.05


def reference_cells(
    benchmarks: Sequence[str] = REFERENCE_BENCHMARKS,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    accesses: int = REFERENCE_ACCESSES,
    seed: Seed = REFERENCE_SEED,
) -> List[SweepCell]:
    """The reference grid: every (benchmark, protocol) cell."""
    return [
        SweepCell(
            protocol=protocol,
            trace=profile_spec("parsec", name, accesses, seed),
            seed=seed,
        )
        for name in benchmarks
        for protocol in protocols
    ]


def _time_serial_uncached(
    cells: Sequence[SweepCell], config: SystemConfig
) -> float:
    """Serial run that regenerates the trace for every cell — the
    pre-trace-cache behaviour, kept measurable so BENCH_sweep.json
    records what the cache is worth."""
    start = time.perf_counter()
    for cell in cells:
        trace_cache_clear()
        run_cell(cell, config)
    elapsed = time.perf_counter() - start
    trace_cache_clear()
    return elapsed


def _time_serial(cells: Sequence[SweepCell], config: SystemConfig) -> float:
    trace_cache_clear()
    start = time.perf_counter()
    for cell in cells:
        run_cell(cell, config)
    elapsed = time.perf_counter() - start
    return elapsed


def _time_serial_plan(
    cells: Sequence[SweepCell], config: SystemConfig
) -> float:
    """Serial run through the compile-then-replay path a sweep takes:
    boundary streams and their metadata plans are compiled cold inside
    the timed region (stream and plan caches cleared first), once per
    (trace, OS variant), then every cell replays through
    :func:`repro.sim.engine.simulate_from_plan`. The delta against
    ``serial`` (one direct :func:`repro.sim.engine.simulate` per cell)
    prices what compiling buys, net of its own cost."""
    plan_cells = [replace(cell, replay=True) for cell in cells]
    trace_cache_clear()
    boundary_stream_cache_clear()
    metadata_plan_cache_clear()
    start = time.perf_counter()
    precompile_streams(plan_cells, config)
    for cell in plan_cells:
        run_cell(cell, config)
    elapsed = time.perf_counter() - start
    boundary_stream_cache_clear()
    metadata_plan_cache_clear()
    return elapsed


def _time_store_cold(
    cells: Sequence[SweepCell], config: SystemConfig, holder: Dict[str, object]
) -> float:
    """Serial run through a *fresh* result store: every cell misses,
    computes, and is written back. The delta against ``serial`` prices
    the store's write path; the populated store is left in ``holder``
    for the warm leg of the same round, so warm always replays exactly
    what cold just computed."""
    import shutil
    import tempfile

    from repro.store import ResultStore

    previous = holder.get("dir")
    if previous:
        shutil.rmtree(previous, ignore_errors=True)
    holder["dir"] = tempfile.mkdtemp(prefix="repro-store-bench-")
    store = ResultStore(holder["dir"])
    trace_cache_clear()
    start = time.perf_counter()
    ParallelSweepRunner(workers=1).run(cells, config, store=store)
    elapsed = time.perf_counter() - start
    holder["cold_session"] = dict(store.session)
    return elapsed


def _time_warm_sweep(
    cells: Sequence[SweepCell], config: SystemConfig, holder: Dict[str, object]
) -> float:
    """The same grid against the store the cold leg just populated:
    every cell is a hit, no machine is ever built. ``warm_vs_cold`` is
    the headline number of the incremental path — what a re-run of an
    already-computed grid costs."""
    from repro.store import ResultStore

    store = ResultStore(holder["dir"])
    start = time.perf_counter()
    ParallelSweepRunner(workers=1).run(cells, config, store=store)
    elapsed = time.perf_counter() - start
    holder["warm_session"] = dict(store.session)
    return elapsed


def _time_parallel(
    cells: Sequence[SweepCell], config: SystemConfig, workers: int
) -> float:
    runner = ParallelSweepRunner(workers=workers)
    start = time.perf_counter()
    runner.run(cells, config)
    return time.perf_counter() - start


def _time_serial_telemetry(
    cells: Sequence[SweepCell], config: SystemConfig
) -> float:
    """The ``serial`` leg re-run with telemetry collection enabled.

    The registry and span ring are reset at leg start, so after the
    final round the process-global registry holds exactly one grid's
    worth of counters — which is what ``metrics_out`` exports.
    """
    was_enabled = telemetry.enabled()
    telemetry.set_enabled(True)
    telemetry.reset()
    try:
        return _time_serial(cells, config)
    finally:
        telemetry.set_enabled(was_enabled)


def run_reference_bench(
    workers: Optional[int] = None,
    benchmarks: Sequence[str] = REFERENCE_BENCHMARKS,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    accesses: int = REFERENCE_ACCESSES,
    seed: Seed = REFERENCE_SEED,
    output: Optional[Path] = Path("BENCH_sweep.json"),
    include_uncached: bool = True,
    include_plan: bool = True,
    include_telemetry: bool = True,
    include_store: bool = True,
    rounds: int = REFERENCE_ROUNDS,
    metrics_out: Optional[Path] = None,
    history: Optional[Path] = None,
) -> Dict[str, object]:
    """Time the reference sweep; optionally write ``BENCH_sweep.json``.

    Returns the report dict. ``workers=None`` auto-sizes to the visible
    core count. ``include_uncached=False`` skips the slowest leg (CI
    smoke runs on tiny grids don't need it); ``include_plan=False``
    skips the compiled-plan leg.
    ``history`` names a JSONL trend log: each run appends one entry
    (headline timings + speedups) via the durable-append helper, and
    the report gains a ``history`` block holding the previous entry so
    callers can print the delta.
    Each of the ``rounds`` rounds runs every enabled leg once,
    interleaved; the headline figure per leg is its best round, with
    raw samples preserved in ``samples_seconds``.

    Every leg runs with telemetry collection *disabled* so the
    trajectory stays comparable across PRs; the ``serial_telemetry``
    leg re-enables it to price the subsystem (the overhead guard:
    within :data:`TELEMETRY_OVERHEAD_BUDGET` of the plain serial leg).
    ``metrics_out`` exports that leg's final registry snapshot as a
    ``repro.metrics/v1`` artifact.

    On a single visible CPU the parallel leg is *skipped*, recorded
    with status ``skipped_single_cpu`` and null timings: a process
    pool on one core only adds fork/pickle overhead, and an earlier
    BENCH_sweep.json dutifully recorded the resulting 0.76x "speedup"
    as if it measured the runner rather than the container.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    config = default_config()
    visible_cpus = default_workers()
    workers = visible_cpus if workers is None else max(1, workers)
    cells = reference_cells(benchmarks, protocols, accesses, seed)

    # Warm what should be warm: interpreter, imports, one materialized
    # trace — so the legs differ only in the strategy under test.
    materialize_trace(cells[0].trace)

    run_parallel = visible_cpus > 1
    legs = []
    if include_uncached:
        legs.append(
            ("serial_uncached", lambda: _time_serial_uncached(cells, config))
        )
    legs.append(("serial", lambda: _time_serial(cells, config)))
    if include_telemetry:
        legs.append(
            (
                "serial_telemetry",
                lambda: _time_serial_telemetry(cells, config),
            )
        )
    if include_plan:
        legs.append(
            ("serial_plan", lambda: _time_serial_plan(cells, config))
        )
    # The store legs use a throwaway temp directory per round, never a
    # user-facing store: cold must genuinely compute every cell, and
    # warm must replay exactly what that round's cold leg wrote.
    store_holder: Dict[str, object] = {}
    if include_store:
        legs.append(
            (
                "store_cold",
                lambda: _time_store_cold(cells, config, store_holder),
            )
        )
        legs.append(
            (
                "warm_sweep",
                lambda: _time_warm_sweep(cells, config, store_holder),
            )
        )
    if run_parallel:
        legs.append(
            ("parallel", lambda: _time_parallel(cells, config, workers))
        )
    samples: Dict[str, List[float]] = {name: [] for name, _ in legs}
    # The trajectory legs measure the simulator, not the observability
    # layer: collection is off for every leg except serial_telemetry,
    # which re-enables it to price exactly that difference.
    telemetry_was_enabled = telemetry.enabled()
    telemetry.set_enabled(False)
    try:
        for _ in range(rounds):
            for name, leg in legs:
                samples[name].append(leg())
    finally:
        telemetry.set_enabled(telemetry_was_enabled)
        if store_holder.get("dir"):
            import shutil

            shutil.rmtree(store_holder["dir"], ignore_errors=True)

    serial_uncached = (
        min(samples["serial_uncached"]) if include_uncached else None
    )
    serial_seconds = min(samples["serial"])
    serial_telemetry = (
        min(samples["serial_telemetry"]) if include_telemetry else None
    )
    serial_plan = min(samples["serial_plan"]) if include_plan else None
    store_cold = min(samples["store_cold"]) if include_store else None
    warm_sweep = min(samples["warm_sweep"]) if include_store else None
    parallel_seconds = min(samples["parallel"]) if run_parallel else None

    leg_status = {name: "measured" for name, _ in legs}
    if not run_parallel:
        leg_status["parallel"] = "skipped_single_cpu"

    report: Dict[str, object] = {
        "grid": {
            "benchmarks": list(benchmarks),
            "protocols": list(protocols),
            "accesses_per_trace": accesses,
            "seed": seed,
            "cells": len(cells),
        },
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "visible_cpus": visible_cpus,
            "workers": workers,
        },
        "timing_method": {
            "strategy": "interleaved-best-of",
            "rounds": rounds,
        },
        "legs": leg_status,
        "timings_seconds": {
            "serial_uncached": serial_uncached,
            "serial": serial_seconds,
            "serial_telemetry": serial_telemetry,
            "serial_plan": serial_plan,
            "store_cold": store_cold,
            "warm_sweep": warm_sweep,
            "parallel": parallel_seconds,
        },
        "samples_seconds": {
            name: [round(value, 4) for value in values]
            for name, values in samples.items()
        },
        "speedups": {
            "trace_cache": (
                serial_uncached / serial_seconds
                if serial_uncached is not None and serial_seconds > 0
                else None
            ),
            "plan_vs_serial": (
                serial_seconds / serial_plan
                if serial_plan is not None and serial_plan > 0
                else None
            ),
            "warm_vs_cold": (
                store_cold / warm_sweep
                if store_cold is not None
                and warm_sweep is not None
                and warm_sweep > 0
                else None
            ),
            "parallel_vs_serial": (
                serial_seconds / parallel_seconds
                if parallel_seconds is not None and parallel_seconds > 0
                else None
            ),
        },
        "throughput": {
            "serial_cells_per_second": (
                len(cells) / serial_seconds if serial_seconds > 0 else None
            ),
            "parallel_cells_per_second": (
                len(cells) / parallel_seconds
                if parallel_seconds is not None and parallel_seconds > 0
                else None
            ),
        },
    }
    if include_store:
        report["store"] = {
            "cold_session": store_holder.get("cold_session"),
            "warm_session": store_holder.get("warm_session"),
        }
    if include_telemetry:
        overhead_ratio = (
            serial_telemetry / serial_seconds
            if serial_telemetry is not None and serial_seconds > 0
            else None
        )
        report["telemetry"] = {
            "overhead_ratio": overhead_ratio,
            "budget_ratio": 1.0 + TELEMETRY_OVERHEAD_BUDGET,
            "within_budget": (
                overhead_ratio is not None
                and overhead_ratio <= 1.0 + TELEMETRY_OVERHEAD_BUDGET
            ),
        }
    if output is not None:
        atomic_write_json(Path(output), report)
    if history is not None:
        previous = append_bench_history(Path(history), report)
        report["history"] = {"path": str(history), "previous": previous}
    if metrics_out is not None and include_telemetry:
        from repro.telemetry import write_metrics_artifact

        write_metrics_artifact(
            Path(metrics_out),
            telemetry.get_registry(),
            run={
                "kind": "reference-bench-serial",
                "grid": report["grid"],
                "environment": report["environment"],
            },
            spans=telemetry.get_tracer().finished(),
        )
    return report


# ----------------------------------------------------------------------
# resilient (journaled, resumable) sweep
# ----------------------------------------------------------------------


def sweep_cell_key(index: int, cell: SweepCell) -> str:
    """Stable journal identity of one reference-grid cell."""
    return (
        f"{index:04d}/{cell.protocol}/{cell.trace.label()}"
        f"/a{cell.trace.accesses}/s{cell.seed}"
    )


def run_resilient_sweep(
    run_dir: Path,
    resume: bool = False,
    workers: Optional[int] = 1,
    benchmarks: Sequence[str] = REFERENCE_BENCHMARKS,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    accesses: int = REFERENCE_ACCESSES,
    seed: Seed = REFERENCE_SEED,
    policy: Optional[SupervisionPolicy] = None,
    store=None,
) -> Dict[str, object]:
    """Run the reference grid under supervision, journaled in ``run_dir``.

    Unlike :func:`run_reference_bench` (a wall-clock benchmark), this
    entry produces the grid's *results*: every cell's deterministic
    :class:`SimulationResult`, checkpointed to ``run_dir/journal.jsonl``
    as it completes and exported to ``run_dir/SWEEP_results.json`` at
    the end. A run killed at any point and restarted with
    ``resume=True`` skips the journaled cells and produces a final
    artifact bit-identical to an uninterrupted run.

    Cells run through the compiled-plan path: the data side and its
    metadata plan are compiled once per (benchmark, OS variant) in the
    supervisor parent and replayed into every protocol cell. Results
    are bit-identical to the direct path, and cell keys do not encode
    the execution strategy.

    With a :class:`~repro.store.ResultStore` as ``store``, the journal
    and the store *compose*: cells already in the store are recorded
    into the journal as done (zero attempts) before the supervised run,
    so only genuinely new cells execute; cells the run computes — and
    cells found done in a resumed journal — are written back to the
    store afterwards. Cold, warm, and resumed runs all export the same
    bit-identical ``SWEEP_results.json``.
    """
    from repro.bench.export import export_experiment

    config = default_config()
    cells = [
        replace(cell, replay=True)
        for cell in reference_cells(benchmarks, protocols, accesses, seed)
    ]
    validate_cells(cells)
    # Compile each distinct data side and its metadata plan once up
    # front so fork-started supervised workers inherit warm caches.
    precompile_streams(cells, config)
    keys = [sweep_cell_key(i, cell) for i, cell in enumerate(cells)]
    parameters = {
        "benchmarks": list(benchmarks),
        "protocols": list(protocols),
        "accesses_per_trace": accesses,
        "seed": seed,
    }
    manifest = build_manifest("resilient-sweep", config, keys, parameters)
    journal = RunJournal.open(run_dir, manifest, resume=resume)
    fingerprints: List[str] = []
    if store is not None:
        from repro.store.fingerprint import cell_fingerprint

        fingerprints = [cell_fingerprint(cell, config) for cell in cells]
        # Pre-seed the journal from the store: a warm cell becomes a
        # "done" journal entry with zero attempts, and the supervised
        # runner then skips it exactly as it skips resumed cells. The
        # store payload is the same codec the journal itself uses, so
        # warm, resumed, and cold runs are indistinguishable downstream.
        seeded = 0
        for key, fingerprint in zip(keys, fingerprints):
            entry = journal.entry(key)
            if entry is not None and entry.get("status") == "done":
                continue
            hit = store.get(fingerprint)
            if hit is not None:
                journal.record_done(key, hit.to_json_dict(), attempts=0)
                seeded += 1
        if seeded:
            journal.flush()
    runner = SupervisedRunner(workers=workers, policy=policy, journal=journal)
    outcomes = runner.map(
        _pool_entry,
        [(cell, config) for cell in cells],
        keys,
        encode=lambda result: result.to_json_dict(),
        decode=SimulationResult.from_json_dict,
    )
    results, failures = split_outcomes(outcomes)
    if store is not None:
        # Write back everything the run now knows: freshly computed
        # cells AND cells recovered from a resumed journal — so a
        # journal-only run backfills the store for the next one.
        for cell, fingerprint, outcome in zip(cells, fingerprints, outcomes):
            if isinstance(outcome, CellFailure):
                continue
            if not store.contains(fingerprint):
                store.put(
                    fingerprint,
                    outcome,
                    meta={
                        "protocol": cell.protocol,
                        "workload": cell.trace.label(),
                    },
                )
    records = []
    for key, outcome in zip(keys, outcomes):
        if isinstance(outcome, CellFailure):
            records.append(
                {"key": key, "status": "failed", "failure": outcome}
            )
        else:
            records.append(
                {"key": key, "status": "done", "result": outcome.to_json_dict()}
            )
    artifact = Path(run_dir) / SWEEP_RESULTS_NAME
    export_experiment(
        "resilient-sweep",
        {"cells": records, "failed_cells": len(failures)},
        artifact,
        parameters=parameters,
    )
    return {
        "cells": len(cells),
        "completed": len(results),
        "failures": failures,
        "outcomes": outcomes,
        "artifact": artifact,
        "journal": journal.path,
    }


# ----------------------------------------------------------------------
# trend log
# ----------------------------------------------------------------------


def history_entry(report: Dict[str, object]) -> Dict[str, object]:
    """The headline slice of a perf report that the trend log keeps:
    grid identity, best-round timings, and derived speedups — enough to
    diff any two runs without storing raw samples."""
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "grid": report["grid"],
        "timings_seconds": report["timings_seconds"],
        "speedups": report["speedups"],
    }


def append_bench_history(
    path: Path, report: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Append this run's headline numbers to the JSONL trend log.

    Returns the previous (most recent) entry so the caller can print a
    delta, or ``None`` on the log's first run. The append is the
    durable single-line write of
    :func:`repro.util.atomicio.atomic_append_jsonl`, so a crash can
    never corrupt earlier history.
    """
    entries = read_jsonl(path)
    previous = entries[-1] if entries else None
    atomic_append_jsonl(path, history_entry(report))
    return previous


def format_history_delta(
    report: Dict[str, object], previous: Optional[Dict[str, object]]
) -> str:
    """Human-readable delta of this run against the previous log entry."""
    if previous is None:
        return "history: first recorded run (no previous entry to diff)"
    lines = [f"history: vs previous run ({previous.get('recorded_at')})"]
    timings = report["timings_seconds"]
    prev_timings = previous.get("timings_seconds") or {}
    for leg, value in timings.items():
        before = prev_timings.get(leg)
        if value is None or before is None or before <= 0:
            continue
        change = (value - before) / before * 100.0
        lines.append(
            f"  {leg:16s}: {value:7.2f} s  (was {before:.2f} s, "
            f"{change:+.1f}%)"
        )
    speedups = report["speedups"]
    prev_speedups = previous.get("speedups") or {}
    for name, value in speedups.items():
        before = prev_speedups.get(name)
        if value is None or before is None:
            continue
        lines.append(
            f"  {name:16s}: {value:7.2f}x (was {before:.2f}x)"
        )
    return "\n".join(lines)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of a perf report."""
    grid = report["grid"]
    env = report["environment"]
    timings = report["timings_seconds"]
    speedups = report["speedups"]
    method = report.get("timing_method") or {}
    samples = report.get("samples_seconds") or {}
    leg_status = report.get("legs") or {}
    lines = [
        f"reference sweep: {grid['cells']} cells "
        f"({len(grid['benchmarks'])} benchmarks x "
        f"{len(grid['protocols'])} protocols, "
        f"{grid['accesses_per_trace']} accesses each)",
        f"python {env['python']} on {env['platform']} "
        f"({env['visible_cpus']} visible cpu(s), {env['workers']} workers)",
    ]
    if method:
        lines.append(
            f"timing: best of {method['rounds']} interleaved round(s)"
        )

    def leg_line(label: str, key: str) -> str:
        line = f"{label}: {timings[key]:8.2f} s"
        raw = samples.get(key)
        if raw and len(raw) > 1:
            line += "  (samples: " + ", ".join(
                f"{value:.2f}" for value in raw
            ) + ")"
        return line

    if timings["serial_uncached"] is not None:
        lines.append(leg_line("serial, no trace cache ", "serial_uncached"))
    lines.append(leg_line("serial, trace cache    ", "serial"))
    if timings.get("serial_telemetry") is not None:
        lines.append(leg_line("serial, telemetry on   ", "serial_telemetry"))
    if timings.get("serial_plan") is not None:
        lines.append(leg_line("serial, metadata plan  ", "serial_plan"))
    if timings.get("store_cold") is not None:
        lines.append(leg_line("store, cold (compute)  ", "store_cold"))
    if timings.get("warm_sweep") is not None:
        lines.append(leg_line("store, warm (replay)   ", "warm_sweep"))
    if timings.get("parallel") is not None:
        lines.append(leg_line("parallel               ", "parallel"))
    elif leg_status.get("parallel") == "skipped_single_cpu":
        lines.append(
            "parallel               :  skipped (1 visible cpu — a pool "
            "would only measure fork overhead)"
        )
    if speedups["trace_cache"] is not None:
        lines.append(f"trace-cache speedup    : {speedups['trace_cache']:8.2f}x")
    if speedups.get("plan_vs_serial") is not None:
        lines.append(
            f"plan speedup           : {speedups['plan_vs_serial']:8.2f}x"
        )
    if speedups.get("warm_vs_cold") is not None:
        lines.append(
            f"warm-store speedup     : {speedups['warm_vs_cold']:8.2f}x"
        )
    if speedups["parallel_vs_serial"] is not None:
        lines.append(
            f"parallel speedup       : {speedups['parallel_vs_serial']:8.2f}x"
        )
    tele = report.get("telemetry") or {}
    if tele.get("overhead_ratio") is not None:
        verdict = "within" if tele.get("within_budget") else "OVER"
        lines.append(
            f"telemetry overhead     : {tele['overhead_ratio']:8.3f}x "
            f"({verdict} {tele['budget_ratio']:.2f}x budget)"
        )
    return "\n".join(lines)
