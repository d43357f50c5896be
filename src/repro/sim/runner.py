"""Experiment runner: protocol sweeps over identical traces.

Each protocol gets a *fresh engine* but the *same virtual trace*, so
differences come only from the protocol (and, for ``amnt++``, the
modified OS's physical placement — which is the experiment). The runner
is the building block every figure's benchmark harness uses.

Sweeps accept either a materialized :class:`Trace` or a picklable
:class:`~repro.workloads.registry.TraceSpec`; every protocol replays one
compiled boundary stream and metadata plan per OS variant, and with
``workers > 1`` the cells fan out over a
:class:`~repro.sim.parallel.ParallelSweepRunner` process pool and come
back bit-identical to the serial run.

:func:`run_resilient_sweep` runs a PARSEC reference grid under
supervision instead: every finished cell is journaled, so a killed run
resumes where it stopped and exports the same ``SWEEP_results.json``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro import telemetry
from repro.config import SystemConfig, default_config
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    _run_unit,
    _sweep_units,
    replay_stream,
    run_against_tier,
    validate_cell_fields,
    validate_cells,
)
from repro.sim.results import SimulationResult, normalized_cycles
from repro.sim.supervisor import (
    CellFailure,
    RunJournal,
    SupervisedRunner,
    SupervisionPolicy,
    build_manifest,
    split_outcomes,
)
from repro.util.rng import Seed
from repro.workloads.registry import TraceSpec, literal_spec, profile_spec
from repro.workloads.trace import Trace

#: The protocol lineup of the paper's runtime figures (4, 5, 8).
FIGURE_PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt")
FIGURE_PROTOCOLS_WITH_OS = FIGURE_PROTOCOLS + ("amnt++",)

TraceLike = Union[Trace, TraceSpec]

#: Deterministic per-cell results artifact of a resilient sweep.
SWEEP_RESULTS_NAME = "SWEEP_results.json"

#: Cache-resident, balanced, and pointer-chasing: three distinct
#: hot-path mixes, so the reference grid is not hostage to one regime.
REFERENCE_BENCHMARKS = ("blackscholes", "bodytrack", "canneal")
REFERENCE_ACCESSES = 20_000
REFERENCE_SEED = 2024


def run_protocol_sweep(
    trace: TraceLike,
    config: SystemConfig,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
    churn_interval: int = 16384,
    workers: int = 1,
    store=None,
) -> Dict[str, SimulationResult]:
    """Run ``trace`` under each protocol on a fresh engine.

    The protocol-independent data side is compiled to a boundary-event
    stream once per OS variant, and its metadata plan once per stream,
    then replayed into every protocol's MEE (see :mod:`repro.sim.replay`
    and :mod:`repro.sim.plan`) — bit-identical to running
    :func:`~repro.sim.engine.simulate` per protocol, with one LLC walk
    instead of ``len(protocols)``. The protocols without NV anchors
    replay a stream as one :class:`~repro.core.mee.ReplayGroup`, with
    one metadata-cache residency instead of one each.

    A :class:`~repro.workloads.registry.TraceSpec` sweep is a list of
    cells handed to :class:`~repro.sim.parallel.ParallelSweepRunner`:
    ``workers > 1`` distributes them over a process pool (workers
    regenerate the trace locally), and the stream and plan go through
    the process-wide compiled-artifact cache. A raw :class:`Trace` with
    one worker and no store compiles its stream and plan sweep-locally,
    so they are freed with the sweep; otherwise it is wrapped in a
    literal spec (the whole trace is pickled once per worker, and, with
    a store, hashed into each cell's fingerprint).

    A spec sweep is *incremental* against the runner's result tier:
    cells already computed in this process (or, with a
    :class:`~repro.store.ResultStore` as ``store``, already on disk) are
    read back, only the rest are computed (then written back), and the
    returned mapping is bit-identical to a cold run.
    """
    label = trace.name if isinstance(trace, Trace) else trace.label()
    with telemetry.span(f"sweep:{label}"):
        if isinstance(trace, Trace) and workers <= 1 and store is None:
            return _run_local_sweep(
                trace,
                config,
                protocols,
                seed=seed,
                scatter_span_chunks=scatter_span_chunks,
                churn_interval=churn_interval,
            )
        spec = trace if isinstance(trace, TraceSpec) else literal_spec(trace)
        cells = [
            SweepCell(
                protocol=name,
                trace=spec,
                seed=seed,
                scatter_span_chunks=scatter_span_chunks,
                churn_interval=churn_interval,
                replay=True,
            )
            for name in protocols
        ]
        results = ParallelSweepRunner(workers=workers).run(
            cells, config, store=store
        )
        return dict(zip(protocols, results))


def _run_local_sweep(
    trace: Trace,
    config: SystemConfig,
    protocols: Sequence[str],
    seed: Seed,
    scatter_span_chunks: int,
    churn_interval: int,
) -> Dict[str, SimulationResult]:
    """A raw trace's sweep with its stream and plan compiled here, one
    per OS variant in the lineup (stock vs AMNT++-modified placement),
    and dropped with the sweep instead of joining the process-wide
    caches. Each variant's protocols replay through
    :func:`~repro.sim.parallel.replay_stream`, as a spec sweep's do."""
    from repro.core.protocol import protocol_uses_modified_os
    from repro.sim.replay import compile_trace

    names = list(dict.fromkeys(protocols))
    for name in names:
        validate_cell_fields(name, churn_interval, scatter_span_chunks)
    results: Dict[str, SimulationResult] = {}
    for modified in dict.fromkeys(map(protocol_uses_modified_os, names)):
        variant = [
            name for name in names if protocol_uses_modified_os(name) == modified
        ]
        compiled = compile_trace(
            trace,
            config,
            seed=seed,
            churn_interval=churn_interval,
            scatter_span_chunks=scatter_span_chunks,
            modified_os=modified,
        )
        results.update(
            zip(variant, replay_stream(*compiled, config, variant, trace.name))
        )
        del compiled  # freed before the next variant compiles
    return {name: results[name] for name in names}


def sweep_normalized(
    trace: TraceLike,
    config: SystemConfig,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
    baseline: str = "volatile",
    workers: int = 1,
    store=None,
) -> Dict[str, float]:
    """Normalized cycles (the paper's y-axis) for each protocol."""
    protocols = tuple(protocols)
    if baseline not in protocols:
        protocols = (baseline,) + protocols
    results = run_protocol_sweep(
        trace,
        config,
        protocols,
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
        workers=workers,
        store=store,
    )
    return normalized_cycles(results, baseline=baseline)


def geometric_mean(values: Iterable[float]) -> float:
    """Geomean used for 'average overhead' style summary numbers.

    Computed as ``exp(mean(log(v)))`` rather than an n-th root of a
    running product: long sweeps with extreme normalized values would
    overflow to ``inf`` or underflow to ``0.0`` in the product form.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    log_sum = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


# ----------------------------------------------------------------------
# resilient (journaled, resumable) reference sweep
# ----------------------------------------------------------------------


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

    Every cell's deterministic :class:`SimulationResult` is
    checkpointed to ``run_dir/journal.jsonl`` as it completes and
    exported to ``run_dir/SWEEP_results.json`` at the end. A run killed at any point and restarted with
    ``resume=True`` skips the journaled cells and produces a final
    artifact bit-identical to an uninterrupted run.

    Cells replay compiled plans in a plain sweep's units
    (:func:`~repro.sim.parallel._sweep_units`): the anchorless
    protocols of one stream as one :class:`~repro.core.mee.ReplayGroup`.
    Results are bit-identical to the direct path, and cell keys do not
    encode the execution strategy.

    With a :class:`~repro.store.ResultStore` as ``store``, the journal
    and the store *compose* through the plain sweep's lookup
    (:func:`~repro.sim.parallel.run_against_tier`): store hits never
    run and are journaled as done with zero attempts; computed cells
    and cells a resumed journal holds are written back. No other tier
    is consulted. Cold, warm, and resumed runs all export the same
    bit-identical ``SWEEP_results.json``.
    """
    # Local import: repro.bench imports this module.
    from repro.bench.export import export_experiment

    config = default_config()
    cells = [
        replace(cell, replay=True)
        for cell in reference_cells(benchmarks, protocols, accesses, seed)
    ]
    validate_cells(cells)
    keys = [sweep_cell_key(i, cell) for i, cell in enumerate(cells)]
    parameters = {
        "benchmarks": list(benchmarks),
        "protocols": list(protocols),
        "accesses_per_trace": accesses,
        "seed": seed,
    }
    manifest = build_manifest("resilient-sweep", config, keys, parameters)
    journal = RunJournal.open(run_dir, manifest, resume=resume)
    runner = SupervisedRunner(workers=workers, policy=policy, journal=journal)

    def supervised(indices: List[int]) -> list:
        misses = [cells[index] for index in indices]
        return runner.run_units(
            partial(_run_unit, config=config),
            misses,
            [keys[index] for index in indices],
            _sweep_units(misses, config, runner.workers),
            encode=SimulationResult.to_json_dict,
            decode=SimulationResult.from_json_dict,
        )

    outcomes = run_against_tier(cells, config, store, supervised)
    results, failures = split_outcomes(outcomes)
    records = []
    for key, outcome in zip(keys, outcomes):
        if isinstance(outcome, CellFailure):
            records.append({"key": key, "status": "failed", "failure": outcome})
            continue
        result = outcome.to_json_dict()
        if (journal.entry(key) or {}).get("status") != "done":
            # A store hit: journaled as done with zero attempts.
            journal.record_done(key, result, attempts=0)
        records.append({"key": key, "status": "done", "result": result})
    journal.flush()
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
