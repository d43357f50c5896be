"""Parallel sweep execution over a multiprocessing pool.

Every paper figure is a (protocol × workload × seed) grid whose cells
are completely independent — each one builds a fresh machine, replays a
deterministic trace, and returns a :class:`SimulationResult`. That is
embarrassingly parallel, so :class:`ParallelSweepRunner` fans the cells
out over a process pool.

Design rules:

* **Nothing heavyweight crosses the process boundary.** A cell carries
  a :class:`~repro.workloads.registry.TraceSpec` (a recipe), not a
  trace; workers regenerate the trace locally through the process-wide
  materialization cache, so a worker that runs several protocols over
  one workload generates that trace once.
* **Determinism.** Cell results depend only on (config, protocol,
  spec, seed); scheduling order cannot leak in. ``run`` returns results
  in cell order, and a parallel run is bit-identical to the serial one.
* **Shared data side and residency.** The direct cells of one data
  side travel as one payload (a pool splits it over its workers, see
  :func:`_sweep_units`): one LLC and memory manager, walked once into
  a recording that every cell's engine runs, anchored protocols
  included. Among them, and among the timing-only replay cells of one
  compiled stream, those whose protocols have no NV anchor and whose
  configs agree run as one :class:`~repro.core.mee.ReplayGroup`,
  which simulates their common metadata-cache residency once. Every
  result is bit-identical to the cell's own run.
* **Graceful fallback.** ``workers <= 1``, an unavailable
  ``multiprocessing`` start method, or a pool that dies mid-flight all
  degrade to in-process execution of the same cells — same results,
  one core.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.config import SystemConfig
from repro.errors import ConfigValidationError
from repro.sim.engine import share_residency, simulate, simulate_from_plan
from repro.sim.machine import Machine, build_engine, build_machine
from repro.sim.results import SimulationResult
from repro.util.rng import Seed
from repro.workloads.registry import (
    _RESULT_CACHE,
    TraceSpec,
    boundary_stream_spec,
    materialize_compiled,
    materialize_trace,
    validate_trace_spec,
)


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One independent unit of sweep work.

    ``config`` may override the runner-level config (level sweeps build
    a different geometry per cell); ``None`` means "use the shared one".
    """

    protocol: str
    trace: TraceSpec
    seed: Seed = 0
    scatter_span_chunks: int = 0
    churn_interval: int = 16384
    config: Optional[SystemConfig] = None
    #: Build the machine with functional (real-crypto) state. Timing
    #: sweeps leave this off; functional equivalence checks turn it on.
    functional: bool = False
    #: Drive the MEE from the compiled boundary stream and metadata
    #: plan (see repro.sim.replay and repro.sim.plan) instead of
    #: re-walking the data side. Bit-identical to the direct path;
    #: cells sharing a (trace, data-side geometry) share one compiled
    #: (stream, plan) pair per process. Off by default because compiling
    #: only pays when several protocols replay one stream: a lone cell
    #: (a single direct run, fault-free functional checks) would pay
    #: the compile for a single replay. Direct cells of one data side
    #: still share one walk of it, whatever their protocols and
    #: configs (see :func:`_sweep_units`).
    #: ``run_protocol_sweep`` builds its cells with it on.
    replay: bool = False


def validate_cells(cells: Sequence[SweepCell]) -> None:
    """Reject a malformed grid before any work is dispatched.

    Checks every cell's fields with :func:`validate_cell_fields` and its
    trace spec against the workload suites, so a 1000-cell sweep
    with a typo in cell 997 fails in milliseconds instead of hours in.
    """
    for cell in cells:
        validate_cell_fields(
            cell.protocol, cell.churn_interval, cell.scatter_span_chunks
        )
        validate_trace_spec(cell.trace)


def validate_cell_fields(
    protocol: str, churn_interval: int, scatter_span_chunks: int
) -> None:
    """The checks of :func:`validate_cells` that do not read the trace
    spec: the protocol against the live registry, then the churn
    interval and scatter span. A raw-trace sweep, which has no spec,
    runs these alone."""
    from repro.core.protocol import protocol_names

    known = protocol_names()
    if protocol not in known:
        raise ConfigValidationError(
            "cell.protocol",
            f"unknown protocol {protocol!r}; known: {known}",
        )
    if churn_interval <= 0:
        raise ConfigValidationError(
            "cell.churn_interval", f"must be positive, got {churn_interval}"
        )
    if scatter_span_chunks < 0:
        raise ConfigValidationError(
            "cell.scatter_span_chunks",
            f"cannot be negative, got {scatter_span_chunks}",
        )


def stream_spec_for(cell: SweepCell, config: SystemConfig):
    """The compiled-artifact cache key of one replay cell; for any
    cell, the key of its data side.

    Centralized so every caller (run_cell, the precompile warmer, the
    unit partition) derives the identical key from a cell — the
    modified-OS bit comes from the protocol registry, everything else
    from the cell and its effective config.
    """
    from repro.core.protocol import protocol_uses_modified_os

    cell_config = cell.config if cell.config is not None else config
    return boundary_stream_spec(
        cell.trace,
        cell_config,
        seed=cell.seed,
        churn_interval=cell.churn_interval,
        scatter_span_chunks=cell.scatter_span_chunks,
        modified_os=protocol_uses_modified_os(cell.protocol),
    )


def precompile_streams(cells: Sequence[SweepCell], config: SystemConfig) -> int:
    """Warm the process-wide compiled-artifact cache for every replay
    cell, runtime records included.

    Returns the number of distinct (stream, plan) pairs now cached for
    the grid. Called in the pool parent before fan-out so fork-started
    workers inherit compiled pairs instead of each compiling their own;
    spawn-started workers still compile at most once per (trace,
    geometry) per process through the same cache.
    """
    specs = set()
    for cell in cells:
        if not cell.replay:
            continue
        spec = stream_spec_for(cell, config)
        specs.add(spec)
        materialize_compiled(
            spec, cell.config if cell.config is not None else config
        )
    return len(specs)


def _observed(protocol: str, label: str, compute) -> SimulationResult:
    """``compute()``, the work of one cell (``protocol`` on the trace
    labelled ``label``); with telemetry enabled it is timed under a
    span and its wall-clock lands in the ``sweep.cell_seconds``
    histogram. The simulation is identical either way."""
    if not telemetry.enabled():
        return compute()
    start = time.monotonic()
    with telemetry.span(f"cell:{protocol}:{label}"):
        result = compute()
    telemetry.histogram(
        "sweep.cell_seconds", telemetry.CELL_SECONDS_BUCKETS
    ).observe(time.monotonic() - start)
    telemetry.counter("sweep.cells").inc()
    return result


def replay_stream(
    stream,
    plan,
    config: SystemConfig,
    protocols: Sequence[str],
    label: str,
    functional: bool = False,
) -> List[SimulationResult]:
    """Replay one compiled ``stream`` and its ``plan`` into each of
    ``protocols``; results in order. Spec cells (:func:`_run_unit`) and
    a raw trace's sweep-local compile (``repro.sim.runner``) both
    replay through here.

    Each protocol gets a fresh engine and nothing else: the stream
    already holds the data side's events, so no LLC or memory manager
    is built. Those that can share metadata-cache residency join one
    :class:`~repro.core.mee.ReplayGroup`; the first grouped call runs
    the whole group, so that cell's span holds the group's time.
    """
    engines = [
        build_engine(config, name, functional=functional) for name in protocols
    ]
    share_residency(engines)
    return [
        _observed(name, label, lambda: simulate_from_plan(stream, plan, mee))
        for name, mee in zip(protocols, engines)
    ]


def run_cell(cell: SweepCell, config: SystemConfig) -> SimulationResult:
    """Execute one cell in the current process (telemetry as in
    :func:`_observed`)."""
    return _run_unit([cell], config)[0]


def _sweep_units(
    cells: Sequence[SweepCell], config: SystemConfig, workers: int = 1
) -> List[List[int]]:
    """Partition ``cells`` (by index, first-appearance order) into the
    units :func:`_run_unit` executes, for the plain and the journaled
    sweep alike.

    * Direct cells form one unit per data-side key
      (:func:`stream_spec_for`), whatever their protocols and effective
      configs: the unit walks that data side once for all of them. A
      unit holds at most ``ceil(len(cells) / width)`` of them,
      ``width`` being the number of ``workers`` that run at once (at
      most the usable cores): in a pool, a data side with more cells
      walks once per unit, so that one unit's engines do not
      serialize what idle workers could run.
    * Replay cells share a unit only as a replay group: the timing-only
      cells whose protocol has no NV anchor
      (:func:`~repro.core.protocol.protocol_shares_residency`) form one
      unit per data-side key and effective config, and every other
      replay cell is a unit of its own.

    Units of several cells form only while the grid keeps a unit for
    each worker that runs at once: otherwise a unit would serialize
    cells that idle workers could have spread, and every cell is a unit
    of its own."""
    from repro.core.protocol import protocol_shares_residency

    width = min(workers, default_workers())
    direct_limit = -(-len(cells) // width)
    units: List[List[int]] = []
    groups: Dict[tuple, List[int]] = {}
    for index, cell in enumerate(cells):
        if not cell.replay:
            key = (False, stream_spec_for(cell, config))
        elif cell.functional or not protocol_shares_residency(cell.protocol):
            units.append([index])
            continue
        else:
            key = (
                True,
                stream_spec_for(cell, config),
                cell.config if cell.config is not None else config,
            )
        group = groups.get(key)
        if group is None or (not cell.replay and len(group) == direct_limit):
            group = groups[key] = []
            units.append(group)
        group.append(index)
    if len(units) < width:
        return [[index] for index in range(len(cells))]
    return units


def _run_unit(
    cells: Sequence[SweepCell], config: SystemConfig
) -> List[SimulationResult]:
    """Execute one unit of :func:`_sweep_units` in the current
    process; results in cell order.

    Replay cells (one, or a replay group's) take their compiled stream
    and plan from the process-wide cache and replay through
    :func:`replay_stream`. Direct cells run ``simulate()``, each on its
    own machine: the first cell's comes from ``build_machine``, and
    every other cell's pairs an engine of its own config
    (``build_engine``) with that machine's LLC and memory manager. A
    unit of several cells walks that data side once, into a recording
    (see :func:`~repro.sim.engine.simulate`) that every engine runs;
    the engines that can share metadata-cache residency and share one
    config run as one :class:`~repro.core.mee.ReplayGroup`. A lone
    cell streams its walk and records nothing.
    """
    first = cells[0]
    cell_config = first.config if first.config is not None else config
    label = first.trace.label()
    if first.replay:
        stream, plan = materialize_compiled(
            stream_spec_for(first, config), cell_config
        )
        return replay_stream(
            stream,
            plan,
            cell_config,
            [cell.protocol for cell in cells],
            label,
            functional=first.functional,
        )
    machine = build_machine(
        cell_config,
        first.protocol,
        functional=first.functional,
        seed=first.seed,
        scatter_span_chunks=first.scatter_span_chunks,
    )
    machines = [machine]
    for cell in cells[1:]:
        member_config = cell.config if cell.config is not None else config
        engine = build_engine(
            member_config, cell.protocol, functional=cell.functional
        )
        machines.append(Machine(member_config, engine, machine.llc, machine.mm))
    engines_by_config: Dict[SystemConfig, list] = {}
    for member in machines:
        engines_by_config.setdefault(member.config, []).append(member.mee)
    for engines in engines_by_config.values():
        share_residency(engines)
    trace = materialize_trace(first.trace)
    recording = [] if len(cells) > 1 else None
    return [
        _observed(
            cell.protocol,
            label,
            lambda: simulate(
                member,
                trace,
                seed=first.seed,
                churn_interval=first.churn_interval,
                recording=recording,
            ),
        )
        for cell, member in zip(cells, machines)
    ]


def _pool_entry_unit(
    payload: Tuple[Tuple[SweepCell, ...], SystemConfig]
) -> List[SimulationResult]:
    """Pool target of one :func:`_sweep_units` unit."""
    cells, config = payload
    return _run_unit(cells, config)


class MemoryResultTier:
    """The in-process result tier: :class:`~repro.store.ResultStore`'s
    ``key`` / ``get`` / ``put`` / ``normalize`` contract over a bounded
    LRU of the store's JSON text.

    :meth:`ParallelSweepRunner.run` uses it when the caller passes no
    store, so a process simulates each distinct cell once: Figure 7
    after Figure 6, or Figure 6's level-3 cells after Figure 5's.
    Entries sit under the store's fingerprint, and every hit decodes a
    fresh, unaliased object exactly as a disk hit does. Nothing
    persists past the process.
    """

    def __init__(self, cache) -> None:
        self.cache = cache

    @staticmethod
    def key(cell: SweepCell, config: SystemConfig) -> Optional[str]:
        """The cell's fingerprint, or ``None`` for a literal-spec cell,
        which the tier does not hold: its fingerprint hashes the whole
        access list (about 0.4 s per cell for 20,000 accesses)."""
        if cell.trace.kind == "literal":
            return None
        from repro.store.fingerprint import cell_fingerprint

        return cell_fingerprint(cell, config)

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        text = self.cache.get(fingerprint, fingerprint)
        return None if text is None else SimulationResult.from_json(text)

    def put(self, fingerprint: str, result: SimulationResult, meta=None) -> None:
        self.cache.put(fingerprint, result.to_json(), fingerprint)

    @staticmethod
    def normalize(result: SimulationResult) -> SimulationResult:
        return SimulationResult.from_json(result.to_json())


#: The process-wide memory tier. Its LRU is the registry's
#: ``result_cache``, so ``--cache-limit`` bounds it with the other caches.
MEMORY_TIER = MemoryResultTier(_RESULT_CACHE)


def default_workers() -> int:
    """Usable core count (respects CPU affinity masks in containers)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def pool_context():
    """The multiprocessing context a runner's pool starts from:
    ``fork`` where available (workers then inherit the parent's warm
    caches), else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_against_tier(
    cells: Sequence[SweepCell],
    config: SystemConfig,
    tier,
    compute: Callable[[List[int]], List],
) -> List:
    """Every cell's outcome, in cell order, incremental against
    ``tier``: a :class:`~repro.store.ResultStore`, :data:`MEMORY_TIER`,
    or ``None``.

    Cells the tier holds (by
    :func:`~repro.store.fingerprint.cell_fingerprint`) are read back.
    ``compute(indices)`` returns the outcomes of the rest, one index
    per distinct miss, and each result is written back from the
    parent. Every slot passes through the tier's codec, so a warm run
    is bit-identical to a cold one. A cell the tier does not key is
    computed on its own and not written back; an outcome that is not a
    result (a supervised run's ``CellFailure``) is returned as it is.
    """
    keys = [None if tier is None else tier.key(cell, config) for cell in cells]
    # Slots that share a key share one lookup and one computation.
    slots_by_key: Dict[str, List[int]] = {}
    for slot, key in enumerate(keys):
        if key is not None:
            slots_by_key.setdefault(key, []).append(slot)
    misses: List[Tuple[Optional[str], List[int]]] = [
        (None, [slot]) for slot, key in enumerate(keys) if key is None
    ]
    results: List = [None] * len(cells)
    for key, slots in slots_by_key.items():
        hit = tier.get(key)
        if hit is None:
            misses.append((key, slots))
            continue
        results[slots[0]] = hit
        for slot in slots[1:]:
            results[slot] = tier.normalize(hit)
    computed = compute([slots[0] for _, slots in misses])
    for (key, slots), result in zip(misses, computed):
        if tier is None or not isinstance(result, SimulationResult):
            results[slots[0]] = result
            continue
        if key is not None:
            cell = cells[slots[0]]
            meta = {"protocol": cell.protocol, "workload": cell.trace.label()}
            tier.put(key, result, meta=meta)
        for slot in slots:
            results[slot] = tier.normalize(result)
    return results


class ParallelSweepRunner:
    """Run sweep cells across ``workers`` processes, in cell order.

    ``workers=None`` auto-sizes to the visible core count; ``workers=1``
    runs in-process (no pool, no pickling). Pools start from
    :func:`pool_context`, so workers inherit the parent's warm trace
    cache for free where ``fork`` is available.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = default_workers() if workers is None else max(1, workers)

    def map(self, func, payloads: Sequence) -> List:
        """Fan ``func`` over ``payloads``; results arrive in order.

        ``func`` must be a picklable top-level callable and every
        payload a picklable pure description of the work (the sweep
        grid uses ``_pool_entry_unit`` over ``(cells, config)`` pairs;
        the fault campaign ships its capture passes here). The same
        degradation rules as :meth:`run` apply: one worker or one
        payload runs in-process, and a pool that cannot be created or
        dies mid-flight falls back to in-process execution — safe
        because payloads are pure.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        # One worker or one payload: a pool would spawn processes just
        # to pickle the work back and forth — run in-process instead.
        if self.workers <= 1 or len(payloads) == 1:
            return [func(payload) for payload in payloads]
        # Never spawn more processes than there are cells to run.
        processes = min(self.workers, len(payloads))
        try:
            with pool_context().Pool(processes=processes) as pool:
                # chunksize=1 keeps the grid balanced: payloads differ
                # wildly in cost (strict vs volatile, a replay group vs
                # one cell), so batching them would serialize the
                # expensive tail. A replay group is one payload by
                # design; _sweep_units forms groups only while the grid
                # still has a unit for every concurrent worker.
                return pool.map(func, payloads, chunksize=1)
        except Exception:
            # Pool creation or transport failed (sandboxed fork,
            # pickling restrictions, interpreter teardown). The cells
            # are pure, so re-running them in-process is always safe —
            # and reproduces any genuine simulation error with a clean
            # traceback.
            return [func(payload) for payload in payloads]

    def run(
        self,
        cells: Sequence[SweepCell],
        config: SystemConfig,
        store=None,
    ) -> List[SimulationResult]:
        """Execute every cell; results arrive in cell order.

        The run is *incremental* (:func:`run_against_tier`) against a
        :class:`~repro.store.ResultStore` when ``store`` is given, else
        the process-wide :data:`MEMORY_TIER`: each distinct miss is
        computed once, exactly as without a tier.
        """
        cells = list(cells)
        validate_cells(cells)
        return run_against_tier(
            cells,
            config,
            MEMORY_TIER if store is None else store,
            lambda indices: self._run_all([cells[i] for i in indices], config),
        )

    def _run_all(
        self, cells: List[SweepCell], config: SystemConfig
    ) -> List[SimulationResult]:
        """Compute every cell (pre-validated), ignoring any tier."""
        if not cells:
            return []
        if self.workers > 1 and len(cells) > 1:
            # Compile each distinct data side and its metadata plan
            # once in the parent so fork-started workers inherit the
            # warm caches (a spawn pool recompiles per worker — still
            # once per process, amortized over that worker's protocol
            # cells).
            precompile_streams(cells, config)
        units = _sweep_units(cells, config, self.workers)
        payloads = [
            (tuple(cells[index] for index in unit), config) for unit in units
        ]
        telemetry.gauge("sweep.workers").set(self.workers)
        # Each unit ships its workers' metrics back with it.
        tagged = self.map(
            partial(telemetry.with_metrics_delta, _pool_entry_unit), payloads
        )
        computed = [telemetry.merge_metrics_delta(each) for each in tagged]
        results: List[Optional[SimulationResult]] = [None] * len(cells)
        for unit, unit_results in zip(units, computed):
            for index, result in zip(unit, unit_results):
                results[index] = result
        return results  # type: ignore[return-value]
