"""Where does the wall-clock go? Phase attribution + cProfile capture.

The perf work in this repository keeps asking the same question — is a
run spending its time generating the trace, walking the cache model,
inside the MEE's metadata walk, or hashing tree nodes? This module
answers it reproducibly: :func:`profile_run` executes one (benchmark,
protocol) cell and attributes wall-clock to the pipeline's phases:

* ``trace_gen`` — synthesizing the access trace (cold, cache cleared);
* ``setup`` — building the machine (protocol, MEE, LLC, OS);
* ``boundary_compile`` — compiling the data side to a boundary-event
  stream (``replay=True`` runs only; identically 0.0 on the direct
  path, kept in the schema so documents stay comparable);
* ``engine`` — the full simulate() (or, under ``replay=True``, the
  simulate_from_stream() replay) call, inside which two sub-phases
  are carved out by instrumenting the live objects:

  * ``mee`` — time inside ``read_block``/``write_block`` (the
    metadata walk, i.e. everything below the LLC) *excluding* the
    functional tree;
  * ``bmt`` — time inside the functional Merkle tree (zero in
    timing-only runs, and near-zero in lazy mode until a
    materialization point);

* ``export`` — serializing the result to its JSON form.

``engine_other`` is the derived remainder (trace iteration, address
translation, LLC model, OS churn). Sub-phase timers use the same
clock as the enclosing phase, so fractions are internally consistent;
when cProfile capture is enabled the *absolute* times inflate by the
profiler's per-call overhead, uniformly enough that the attribution
remains honest — the report records whether it was on.

The artifact is written through :mod:`repro.util.atomicio` like every
other artifact in the repo, and :func:`validate_profile_document`
checks the schema so CI can smoke-test ``repro profile`` output.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.config import SystemConfig, default_config, validate_integrity_mode
from repro.sim.engine import simulate, simulate_from_plan, simulate_from_stream
from repro.sim.machine import build_machine
from repro.sim.parallel import default_workers
from repro.util.atomicio import atomic_write_json
from repro.workloads.registry import (
    TraceSpec,
    effective_cache_limits,
    materialize_trace,
    profile_spec,
    trace_cache_clear,
)

#: Schema tag embedded in every profile artifact; bump on breaking
#: layout changes so downstream readers can dispatch. v2 added the
#: ``boundary_compile`` phase and the ``run.replay`` flag; v3 added
#: ``boundary_plan`` (metadata-plan compilation, ``plan=True`` runs
#: only) and the ``run.plan`` flag; v4 added
#: ``environment.cache_limits`` (the effective trace/stream/plan LRU
#: bounds, settable via ``--cache-limit`` / ``$REPRO_CACHE_LIMIT``).
PROFILE_SCHEMA = "repro.profile/v4"

#: Phases with directly measured timers (``engine_other`` and ``total``
#: are derived). Order is the pipeline order, used for display.
MEASURED_PHASES = (
    "trace_gen",
    "setup",
    "boundary_compile",
    "boundary_plan",
    "engine",
    "mee",
    "bmt",
    "export",
)

#: Methods whose cumulative time defines the ``mee`` sub-phase. The
#: engine hoists these bound methods once per run, so instance-level
#: wrappers installed *before* simulate() capture every call.
#: ``replay_plan_events`` is the plan-driven replay's entire metadata
#: walk (plan runs never enter read_block/write_block).
_MEE_METHODS = (
    "read_block",
    "write_block",
    "read_block_data",
    "replay_plan_events",
)

#: Functional-tree methods charged to the ``bmt`` sub-phase.
_BMT_METHODS = (
    "set_counter",
    "current_counter",
    "current_counter_bytes",
    "persist_counter",
    "persist_node",
    "persist_path",
    "authenticate_or_raise",
    "verify_counter",
    "materialize_all",
)


class _PhaseClock:
    """Accumulates exclusive wall-clock per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def add(self, phase: str, elapsed: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed

    def measure(self, phase: str):
        """Context manager: time a ``with`` block into ``phase``."""
        return _PhaseSpan(self, phase)


class _PhaseSpan:
    __slots__ = ("_clock", "_phase", "_start")

    def __init__(self, clock: _PhaseClock, phase: str) -> None:
        self._clock = clock
        self._phase = phase

    def __enter__(self) -> "_PhaseSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._clock.add(self._phase, time.perf_counter() - self._start)


def _instrument(obj: Any, methods, clock: _PhaseClock, phase: str) -> None:
    """Shadow ``obj``'s named methods with timing wrappers.

    Wrappers are installed as *instance* attributes, so the class (and
    any other instance) is untouched; the machine is discarded after
    the profiled run, so nothing needs uninstalling. Wrapped methods
    call each other (``persist_path`` → ``self.persist_node`` resolves
    to the instance wrapper), so a shared depth counter ensures only
    the outermost call charges the phase — no double counting.
    """
    perf_counter = time.perf_counter
    depth = [0]
    for name in methods:
        bound = getattr(obj, name, None)
        if bound is None or not callable(bound):
            continue

        def wrapper(*args, __bound=bound, **kwargs):
            if depth[0]:
                return __bound(*args, **kwargs)
            depth[0] = 1
            start = perf_counter()
            try:
                return __bound(*args, **kwargs)
            finally:
                clock.add(phase, perf_counter() - start)
                depth[0] = 0

        setattr(obj, name, wrapper)


def _hotspots(profiler: cProfile.Profile, top: int) -> List[Dict[str, Any]]:
    """Top-``top`` functions by internal time, as plain dicts."""
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, line, name = func
        rows.append(
            {
                "function": f"{Path(filename).name}:{line}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda row: row["tottime"], reverse=True)
    return rows[:top]


def profile_run(
    benchmark: str = "canneal",
    protocol: str = "amnt",
    accesses: int = 20_000,
    seed: int = 2024,
    suite: str = "parsec",
    functional: bool = False,
    integrity_mode: str = "eager",
    config: Optional[SystemConfig] = None,
    capture_cprofile: bool = True,
    top: int = 25,
    replay: bool = False,
    plan: bool = False,
) -> Dict[str, Any]:
    """Profile one simulation cell; returns the artifact document.

    The run is the same deterministic cell the sweep harness executes
    (same spec, same seed), so its :class:`SimulationResult` numbers
    are directly comparable with sweep output — the profile just says
    where the host CPU time went while producing them.

    With ``replay=True`` the cell runs through the compile-then-replay
    pipeline: ``boundary_compile`` times a cold
    :func:`~repro.sim.replay.compile_boundary_stream` and ``engine``
    times the stream replay into the MEE — so the split shows what a
    sweep's first protocol pays versus every subsequent one.
    ``plan=True`` (requires ``replay``) adds ``boundary_plan``: a cold
    :func:`~repro.sim.plan.compile_metadata_plan` over the stream,
    with the engine phase then timing the plan-driven replay.
    """
    validate_integrity_mode(integrity_mode)
    config = config or default_config()
    clock = _PhaseClock()

    spec: TraceSpec = profile_spec(suite, benchmark, accesses, seed)
    trace_cache_clear()  # charge trace synthesis, not a warm cache hit
    with clock.measure("trace_gen"):
        trace = materialize_trace(spec)

    with clock.measure("setup"):
        machine = build_machine(
            config,
            protocol,
            functional=functional,
            seed=seed,
            integrity_mode=integrity_mode,
        )

    if plan and not replay:
        raise ValueError("plan=True requires replay=True")

    stream = None
    metadata_plan = None
    if replay:
        from repro.core.protocol import protocol_uses_modified_os
        from repro.sim.replay import compile_boundary_stream

        with clock.measure("boundary_compile"):
            stream = compile_boundary_stream(
                trace,
                config,
                seed=seed,
                modified_os=protocol_uses_modified_os(protocol),
            )
        if plan:
            from repro.sim.plan import compile_metadata_plan

            with clock.measure("boundary_plan"):
                metadata_plan = compile_metadata_plan(stream, config)

    _instrument(machine.mee, _MEE_METHODS, clock, "mee")
    tree = getattr(machine.mee, "tree", None)
    if tree is not None:
        _instrument(tree, _BMT_METHODS, clock, "bmt")

    profiler = cProfile.Profile() if capture_cprofile else None
    if profiler is not None:
        profiler.enable()
    try:
        with clock.measure("engine"):
            if metadata_plan is not None:
                result = simulate_from_plan(stream, metadata_plan, machine)
            elif replay:
                result = simulate_from_stream(stream, machine)
            else:
                result = simulate(machine, trace, seed=seed)
    finally:
        if profiler is not None:
            profiler.disable()

    with clock.measure("export"):
        payload = asdict(result)
        json.dumps(payload)  # the serialization cost a real export pays

    phases = {name: clock.seconds.get(name, 0.0) for name in MEASURED_PHASES}
    engine = phases["engine"]
    # The tree is only ever called from inside the MEE's walk, and the
    # walk only from inside the engine: carve the nesting into three
    # disjoint buckets so the engine sub-phases sum to the engine time.
    bmt = min(phases["bmt"], phases["mee"], engine)
    phases["bmt"] = bmt
    phases["mee"] = min(max(phases["mee"] - bmt, 0.0), engine)
    phases["engine_other"] = max(engine - phases["mee"] - bmt, 0.0)
    total = (
        phases["trace_gen"]
        + phases["setup"]
        + phases["boundary_compile"]
        + phases["boundary_plan"]
        + engine
        + phases["export"]
    )
    phases["total"] = total
    phases = {name: round(value, 6) for name, value in phases.items()}
    fractions = {
        name: round(value / total, 4) if total else 0.0
        for name, value in phases.items()
        if name != "total"
    }

    return {
        "schema": PROFILE_SCHEMA,
        "run": {
            "suite": suite,
            "benchmark": benchmark,
            "protocol": protocol,
            "accesses": accesses,
            "seed": seed,
            "functional": functional,
            "integrity_mode": integrity_mode,
            "cprofile": capture_cprofile,
            "replay": replay,
            "plan": plan,
        },
        # Mirrors BENCH_sweep.json's environment block so profiles from
        # different machines are comparable. A profile run is always
        # one in-process cell, hence workers == 1.
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "visible_cpus": default_workers(),
            "workers": 1,
            # Effective LRU bounds (trace/stream/plan) — so a profile
            # captured under --cache-limit / $REPRO_CACHE_LIMIT says so
            # (a shrunken cache shifts time into re-materialization).
            "cache_limits": effective_cache_limits(),
        },
        "phases": phases,
        "phase_fractions": fractions,
        "result": {
            "cycles": result.cycles,
            "accesses": result.accesses,
            "llc_hit_rate": round(result.llc_hit_rate, 6),
            "mdcache_hit_rate": round(result.mdcache_hit_rate, 6),
        },
        "hotspots": _hotspots(profiler, top) if profiler is not None else [],
    }


def write_profile_artifact(document: Dict[str, Any], path) -> Path:
    """Atomically write a profile document produced by :func:`profile_run`."""
    return atomic_write_json(Path(path), document)


def validate_profile_document(document: Any) -> List[str]:
    """Check a profile artifact against the v4 schema.

    Returns a list of human-readable problems; an empty list means the
    document is valid. Used by the CI smoke job and the test suite, and
    deliberately dependency-free (no jsonschema in the image).
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    if document.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {PROFILE_SCHEMA!r}"
        )

    run = document.get("run")
    if not isinstance(run, dict):
        problems.append("missing 'run' object")
    else:
        for key, kinds in (
            ("benchmark", str),
            ("protocol", str),
            ("accesses", int),
            ("seed", int),
            ("functional", bool),
            ("integrity_mode", str),
            ("replay", bool),
            ("plan", bool),
        ):
            if not isinstance(run.get(key), kinds):
                problems.append(f"run.{key} missing or mistyped")

    environment = document.get("environment")
    if not isinstance(environment, dict):
        problems.append("missing 'environment' object")
    else:
        for key, kinds in (
            ("python", str),
            ("platform", str),
            ("visible_cpus", int),
            ("workers", int),
            ("cache_limits", dict),
        ):
            if not isinstance(environment.get(key), kinds):
                problems.append(f"environment.{key} missing or mistyped")
        cache_limits = environment.get("cache_limits")
        if isinstance(cache_limits, dict):
            for cache in ("trace", "stream", "plan"):
                if not isinstance(cache_limits.get(cache), int):
                    problems.append(
                        f"environment.cache_limits.{cache} missing or mistyped"
                    )

    phases = document.get("phases")
    if not isinstance(phases, dict):
        problems.append("missing 'phases' object")
    else:
        for name in MEASURED_PHASES + ("engine_other", "total"):
            value = phases.get(name)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"phases.{name} missing or negative")

    fractions = document.get("phase_fractions")
    if not isinstance(fractions, dict):
        problems.append("missing 'phase_fractions' object")

    result = document.get("result")
    if not isinstance(result, dict) or not isinstance(
        result.get("cycles"), int
    ):
        problems.append("missing 'result.cycles'")

    hotspots = document.get("hotspots")
    if not isinstance(hotspots, list):
        problems.append("missing 'hotspots' list")
    else:
        for i, row in enumerate(hotspots):
            if not isinstance(row, dict) or not isinstance(
                row.get("function"), str
            ):
                problems.append(f"hotspots[{i}] malformed")
                break
    return problems


def format_profile(document: Dict[str, Any], top: int = 10) -> str:
    """Render a profile document as the CLI's human-readable summary."""
    run = document["run"]
    lines = [
        f"profile: {run['suite']}/{run['benchmark']} under {run['protocol']}"
        f"  ({run['accesses']} accesses, seed {run['seed']}, "
        f"functional={run['functional']}, mode={run['integrity_mode']}, "
        f"replay={run.get('replay', False)}, plan={run.get('plan', False)})",
    ]
    env = document.get("environment")
    if env:
        lines.append(
            f"environment: python {env['python']} on {env['platform']} "
            f"({env['visible_cpus']} visible cpu(s), "
            f"{env['workers']} worker(s))"
        )
    lines.extend(["", "phase attribution (seconds, fraction of total):"])
    phases = document["phases"]
    fractions = document["phase_fractions"]
    order = (
        "trace_gen",
        "setup",
        "boundary_compile",
        "boundary_plan",
        "engine",
        "export",
    )
    for name in order:
        if name not in phases:  # tolerate pre-v3 documents
            continue
        lines.append(
            f"  {name:<16s} {phases[name]:>9.4f}s  {fractions[name]:>6.1%}"
        )
        if name == "engine":
            for sub in ("mee", "bmt", "engine_other"):
                lines.append(
                    f"    {sub:<14s} {phases[sub]:>9.4f}s  "
                    f"{fractions[sub]:>6.1%}"
                )
    lines.append(f"  {'total':<16s} {phases['total']:>9.4f}s")
    hotspots = document.get("hotspots") or []
    if hotspots:
        lines.append("")
        lines.append(f"top {min(top, len(hotspots))} functions by self time:")
        for row in hotspots[:top]:
            lines.append(
                f"  {row['tottime']:>8.4f}s  {row['ncalls']:>9d}x  "
                f"{row['function']}"
            )
    return "\n".join(lines)
