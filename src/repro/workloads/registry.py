"""Trace specs: picklable trace recipes plus a materialization cache.

The parallel sweep runner ships work to ``multiprocessing`` workers.
Pickling a materialized :class:`~repro.workloads.trace.Trace` would move
hundreds of thousands of access records per cell across the process
boundary, so instead each sweep cell carries a :class:`TraceSpec` — the
*(suite, names, accesses, seed)* recipe a worker replays locally.
Generation is a pure function of the recipe (see
:mod:`repro.workloads.synthetic`), so a spec materialized anywhere
yields a bit-identical trace.

Materialization is memoized in a process-wide cache: a sweep that runs
seven protocols over one workload generates the trace once, not seven
times, whether the cells run in the parent or in a pool worker.
"""

from __future__ import annotations

import os

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from repro import telemetry
from repro.util.rng import Seed
from repro.workloads.trace import ColumnarAccesses, Trace

#: Known profile suites, resolved lazily to avoid import cycles.
_SUITES: Dict[str, Callable[[str], object]] = {}


def _suite_lookup(suite: str):
    if not _SUITES:
        from repro.workloads.faultprofiles import fault_profile
        from repro.workloads.parsec import parsec_profile
        from repro.workloads.spec import spec_profile

        _SUITES["parsec"] = parsec_profile
        _SUITES["spec"] = spec_profile
        _SUITES["faults"] = fault_profile
    try:
        return _SUITES[suite]
    except KeyError:
        raise KeyError(
            f"unknown workload suite {suite!r}; known: {sorted(_SUITES)}"
        ) from None


@dataclass(frozen=True, slots=True)
class TraceSpec:
    """A picklable recipe for one trace.

    ``kind`` is ``"profile"`` (one benchmark), ``"multiprogram"``
    (interleaved co-runners), or ``"literal"`` (the access records
    themselves, for traces with no recipe — heavyweight to pickle, so
    the runner only falls back to it when handed a raw trace).
    """

    kind: str
    suite: str = ""
    names: Tuple[str, ...] = ()
    accesses: int = 0
    seed: Union[int, str] = 0
    #: ``literal`` payload: (name, ((vaddr, w, pid, think, flush), ...)).
    payload: Tuple = ()

    def label(self) -> str:
        if self.kind == "literal":
            return self.payload[0]
        return "+".join(self.names)


#: Spec kinds a runner knows how to materialize.
SPEC_KINDS = ("profile", "multiprogram", "literal")


def validate_trace_spec(spec: TraceSpec) -> None:
    """Fail fast on a malformed spec, before any machine is built.

    Raises :class:`~repro.errors.ConfigValidationError` naming the
    offending field; resolving the suite and every profile name up
    front means a typo'd workload aborts at planning time instead of
    deep inside ``simulate()`` on some pool worker.
    """
    from repro.errors import ConfigValidationError

    if spec.kind not in SPEC_KINDS:
        raise ConfigValidationError(
            "trace.kind", f"unknown kind {spec.kind!r}; known: {SPEC_KINDS}"
        )
    if spec.kind == "literal":
        if len(spec.payload) != 2:
            raise ConfigValidationError(
                "trace.payload", "literal specs need a (name, records) payload"
            )
        return
    if not spec.names:
        raise ConfigValidationError(
            "trace.names", "at least one benchmark name is required"
        )
    if spec.accesses <= 0:
        raise ConfigValidationError(
            "trace.accesses", f"must be positive, got {spec.accesses}"
        )
    try:
        lookup = _suite_lookup(spec.suite)
    except KeyError as exc:
        raise ConfigValidationError("trace.suite", str(exc.args[0])) from None
    for name in spec.names:
        try:
            lookup(name)
        except (KeyError, ValueError) as exc:
            raise ConfigValidationError(
                "trace.names",
                f"unknown {spec.suite!r} benchmark {name!r} ({exc})",
            ) from None


def profile_spec(
    suite: str, name: str, accesses: int, seed: Seed = 0
) -> TraceSpec:
    """Spec for one benchmark of ``suite`` scaled to ``accesses``."""
    return TraceSpec(
        kind="profile", suite=suite, names=(name,), accesses=accesses, seed=seed
    )


def multiprogram_spec(
    suite: str, names: Tuple[str, ...], accesses_each: int, seed: Seed = 0
) -> TraceSpec:
    """Spec for co-running benchmarks interleaved in virtual time."""
    return TraceSpec(
        kind="multiprogram",
        suite=suite,
        names=tuple(names),
        accesses=accesses_each,
        seed=seed,
    )


def literal_spec(trace: Trace) -> TraceSpec:
    """Wrap an already-materialized trace (no recipe available)."""
    cols = trace.accesses
    payload = (
        trace.name,
        tuple(
            (vaddr, bool(flags & 1), pid, think, bool(flags & 2))
            for vaddr, pid, think, flags in zip(
                cols.vaddr, cols.pid, cols.think, cols.flags
            )
        ),
    )
    return TraceSpec(kind="literal", payload=payload)


def _materialize(spec: TraceSpec) -> Trace:
    if spec.kind == "profile":
        from repro.workloads.synthetic import generate_trace

        profile = _suite_lookup(spec.suite)(spec.names[0])
        return generate_trace(
            profile.scaled(accesses=spec.accesses), seed=spec.seed
        )
    if spec.kind == "multiprogram":
        from repro.workloads.multiprogram import multiprogram_trace

        lookup = _suite_lookup(spec.suite)
        profiles = [lookup(name) for name in spec.names]
        return multiprogram_trace(
            profiles, seed=spec.seed, accesses_each=spec.accesses
        )
    if spec.kind == "literal":
        name, records = spec.payload
        cols = ColumnarAccesses()
        for vaddr, is_write, pid, think, flush in records:
            cols.vaddr.append(vaddr)
            cols.pid.append(pid)
            cols.think.append(think)
            cols.flags.append((1 if is_write else 0) | (2 if flush else 0))
        return Trace(name, cols)
    raise ValueError(f"unknown trace spec kind {spec.kind!r}")


class _LRUCache:
    """Bounded LRU memo with telemetry counters and eviction events.

    Every cached value is a pure function of its key, so eviction only
    costs recomputation — it can never change a result. The default
    limits are generous (a reference sweep touches a handful of
    entries); the bound exists so long fault campaigns sweeping many
    specs cannot grow the parent process without bound.
    """

    __slots__ = ("name", "limit", "_data")

    def __init__(self, name: str, limit: int) -> None:
        self.name = name
        self.limit = limit
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key, label: str):
        value = self._data.get(key)
        if value is None:
            telemetry.counter(f"{self.name}.misses").inc()
            telemetry.emit_event(f"{self.name}_miss", key=label)
            return None
        self._data.move_to_end(key)
        telemetry.counter(f"{self.name}.hits").inc()
        telemetry.emit_event(f"{self.name}_hit", key=label)
        return value

    def put(self, key, value, label: str) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict_overflow()

    def set_limit(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"{self.name} limit must be >= 1, got {limit}")
        self.limit = limit
        self._evict_overflow()

    def _evict_overflow(self) -> None:
        """Drop LRU entries down to the limit; each one counts and
        emits an eviction, whether a put or a shrunken limit caused it."""
        while len(self._data) > self.limit:
            self._data.popitem(last=False)
            telemetry.counter(f"{self.name}.evictions").inc()
            telemetry.emit_event(
                f"{self.name}_eviction", size=len(self._data)
            )
        telemetry.gauge(f"{self.name}.size").set(len(self._data))

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


#: Default LRU bounds — generous relative to the reference grids (a
#: full sweep touches ~6 traces and ~2 compiled streams) but finite, so
#: long-running campaigns cannot leak materialized traces.
DEFAULT_TRACE_CACHE_LIMIT = 64
DEFAULT_COMPILED_CACHE_LIMIT = 32
#: Holds a default Figure 6 grid (39 cells) with room to spare, so a
#: Figure 7 run after it finds every cell.
DEFAULT_RESULT_CACHE_LIMIT = 128

#: Process-wide materialization cache. Workers forked from a warm
#: parent inherit it; spawned workers fill their own on first use.
_TRACE_CACHE = _LRUCache("trace_cache", DEFAULT_TRACE_CACHE_LIMIT)


def materialize_trace(spec: TraceSpec, cache: bool = True) -> Trace:
    """Build (or fetch) the trace a spec describes.

    With ``cache=True`` repeated materializations of the same spec in
    one process return the same :class:`Trace` object. Traces are
    treated as immutable once materialized — do not append to a cached
    trace.
    """
    if not cache:
        return _materialize(spec)
    trace = _TRACE_CACHE.get(spec, spec.label())
    if trace is None:
        trace = _materialize(spec)
        _TRACE_CACHE.put(spec, trace, spec.label())
    return trace


def trace_cache_clear() -> None:
    """Drop every cached trace (tests, long-lived servers)."""
    _TRACE_CACHE.clear()


def trace_cache_size() -> int:
    return len(_TRACE_CACHE)


def set_trace_cache_limit(limit: int) -> None:
    """Cap the trace cache at ``limit`` entries (evicts LRU overflow)."""
    _TRACE_CACHE.set_limit(limit)


def trace_cache_limit() -> int:
    return _TRACE_CACHE.limit


# ----------------------------------------------------------------------
# compiled-artifact cache (compile a trace once, replay per protocol)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundaryStreamSpec:
    """Cache identity of one compiled boundary stream and its plan.

    Everything that shapes the data-side simulation — and therefore the
    compiled events — and can vary is a field: the trace recipe, the
    engine seed and churn interval, allocator aging, the OS variant,
    and the data-side geometry (LLC shape, block/page sizes, device
    capacity, and the tree shape the modified OS's region mapping
    derives from). The rest of the OS model is one fixed shape, set in
    the classes that use it: the churn burst
    (:meth:`~repro.os.process.MemoryManager.churn`), the buddy
    allocator's max order and the AMNT++ reclaim interval. The
    metadata plan reads only geometry already in that list (block/page
    split, capacity, tree arity), so the same key identifies it. Two
    sweep cells with equal specs replay the same pair; any geometry
    change produces a different key and forces a recompile.

    Like :class:`TraceSpec`, the spec is frozen, hashable, and
    picklable, so pool workers rebuild streams from it through the same
    process-wide cache discipline as traces.
    """

    trace: TraceSpec
    seed: Union[int, str] = 0
    churn_interval: int = 16384
    scatter_span_chunks: int = 0
    modified_os: bool = False
    llc_capacity_bytes: int = 0
    llc_line_bytes: int = 0
    llc_associativity: int = 0
    block_bytes: int = 0
    page_bytes: int = 0
    capacity_bytes: int = 0
    counters_per_block: int = 0
    tree_arity: int = 0
    #: The modified OS's region size; 0 for a stock-OS stream.
    subtree_level: int = 0


def boundary_stream_spec(
    trace: TraceSpec,
    config,
    seed: Seed = 0,
    churn_interval: int = 16384,
    scatter_span_chunks: int = 0,
    modified_os: bool = False,
) -> BoundaryStreamSpec:
    """The compiled-artifact cache key for ``trace`` under ``config``'s
    data side.

    ``config`` is a :class:`~repro.config.SystemConfig`; only its
    data-side geometry lands in the key, so two configs differing in —
    say — metadata-cache shape share one compiled stream (the data side
    cannot observe that difference), while an LLC or page-size change
    forces a recompile. The AMNT subtree level lands in the key only
    for a modified-OS stream, whose allocator maps pages to subtree
    regions: stock-OS cells at every level share one stream.
    """
    return BoundaryStreamSpec(
        trace=trace,
        seed=seed,
        churn_interval=churn_interval,
        scatter_span_chunks=scatter_span_chunks,
        modified_os=modified_os,
        llc_capacity_bytes=config.llc.capacity_bytes,
        llc_line_bytes=config.llc.line_bytes,
        llc_associativity=config.llc.associativity,
        block_bytes=config.security.block_bytes,
        page_bytes=config.security.page_bytes,
        capacity_bytes=config.pcm.capacity_bytes,
        counters_per_block=config.security.counters_per_block,
        tree_arity=config.security.tree_arity,
        subtree_level=config.amnt.subtree_level if modified_os else 0,
    )


#: Process-wide compiled-artifact cache of ``(stream, plan)`` pairs,
#: disciplined like _TRACE_CACHE: workers forked from a warm parent
#: inherit it (runtime records included — plans resolve them at compile
#: time); spawned workers fill their own on first use. Values are
#: immutable once compiled.
_COMPILED_CACHE = _LRUCache("compiled_cache", DEFAULT_COMPILED_CACHE_LIMIT)


def materialize_compiled(spec: BoundaryStreamSpec, config, cache: bool = True):
    """Compile (or fetch) the ``(stream, plan)`` pair ``spec`` describes
    (see :func:`repro.sim.replay.compile_trace`).

    ``config`` must be the config ``spec`` was derived from (use
    :func:`boundary_stream_spec`); the key carries the data-side
    geometry for cache identity, the config carries the full object the
    compilers need. The plan reads only geometry the key already holds,
    so a metadata-cache-only config change shares the entry. Both halves
    are treated as immutable once compiled.
    """
    label = spec.trace.label()
    if cache:
        compiled = _COMPILED_CACHE.get(spec, label)
        if compiled is not None:
            return compiled
    from repro.sim.replay import compile_trace

    compiled = compile_trace(
        materialize_trace(spec.trace, cache=cache),
        config,
        seed=spec.seed,
        churn_interval=spec.churn_interval,
        scatter_span_chunks=spec.scatter_span_chunks,
        modified_os=spec.modified_os,
    )
    if cache:
        _COMPILED_CACHE.put(spec, compiled, label)
    return compiled


def compiled_cache_clear() -> None:
    """Drop every compiled pair (tests, long-lived servers)."""
    _COMPILED_CACHE.clear()


def compiled_cache_size() -> int:
    return len(_COMPILED_CACHE)


def set_compiled_cache_limit(limit: int) -> None:
    """Cap the compiled-artifact cache at ``limit`` entries (evicts LRU
    overflow)."""
    _COMPILED_CACHE.set_limit(limit)


# ----------------------------------------------------------------------
# result cache (the in-memory tier of ParallelSweepRunner.run)
# ----------------------------------------------------------------------

#: Process-wide store of computed cell results: the entries of
#: :data:`repro.sim.parallel.MEMORY_TIER`, which owns what goes in and
#: how it is keyed. It lives here so the one cache knob below bounds
#: it with the other caches. Only the pool parent reads and writes it.
_RESULT_CACHE = _LRUCache("result_cache", DEFAULT_RESULT_CACHE_LIMIT)


def result_cache_clear() -> None:
    """Drop every cached result (tests, long-lived servers)."""
    _RESULT_CACHE.clear()


def result_cache_size() -> int:
    return len(_RESULT_CACHE)


# ----------------------------------------------------------------------
# one knob for every cache (CLI flag / environment variable)
# ----------------------------------------------------------------------

#: Environment override for every process-wide cache limit. Set
#: before the process starts (workers inherit it through the
#: environment, including spawn-started pools, which re-import this
#: module); the ``--cache-limit`` CLI flag takes precedence in the
#: process that parses it.
CACHE_LIMIT_ENV = "REPRO_CACHE_LIMIT"


def apply_cache_limit(limit: int) -> None:
    """Cap every process-wide cache (trace, compiled and result) at
    ``limit`` entries. One knob: the caches exist for the same reason
    (bounded memoization of deterministic work), and memory-bound
    hosts want to shrink them together."""
    set_trace_cache_limit(limit)
    set_compiled_cache_limit(limit)
    _RESULT_CACHE.set_limit(limit)


def effective_cache_limits() -> Dict[str, int]:
    """The live limit of each cache, by name: what ``--cache-limit``
    or ``$REPRO_CACHE_LIMIT`` left in force."""
    return {
        "trace": trace_cache_limit(),
        "compiled": _COMPILED_CACHE.limit,
        "result": _RESULT_CACHE.limit,
    }


def _apply_env_cache_limit() -> None:
    """Honor ``$REPRO_CACHE_LIMIT`` at import. Invalid values (not an
    integer, < 1) are ignored rather than fatal: a bad environment
    variable must not brick every entry point that imports workloads."""
    raw = os.environ.get(CACHE_LIMIT_ENV, "").strip()
    if not raw:
        return
    try:
        limit = int(raw)
    except ValueError:
        return
    if limit >= 1:
        apply_cache_limit(limit)


_apply_env_cache_limit()
