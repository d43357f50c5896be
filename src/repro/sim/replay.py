"""Boundary-event compilation: simulate the data side once, replay it.

Every protocol in the paper's lineup consumes the same input — the
*memory traffic* that crosses the LLC boundary (fills, dirty victim
writebacks, and explicit CLWB+fence persists). The data-side hierarchy
that produces that traffic (address translation, demand paging, the
LLC, page churn) is completely protocol-independent for a fixed OS
variant, yet a naive sweep re-walks it once per cell: an 18-cell grid
(3 benchmarks x 6 protocols) runs the identical L1/LLC simulation 18
times instead of 3.

:func:`compile_boundary_stream` runs that hierarchy exactly once per
(trace, data-side geometry) and emits a :class:`BoundaryStream` — a
columnar, ``array``-backed record of every boundary event in program
order plus the data-side half of the eventual
:class:`~repro.sim.results.SimulationResult` (LLC hit counters, page
faults, OS instruction charges, think-cycle totals). The stream ends
where the trace ends: as the paper measures a region of interest, no
end-of-run LLC flush is compiled or replayed. It has no walk of its
own: it drains the generator ``simulate()`` feeds the MEE
(:func:`repro.sim.engine._boundary_events`) into columns.
:func:`compile_trace` pairs the stream with its metadata plan
(:mod:`repro.sim.plan`), and
:func:`repro.sim.engine.simulate_from_plan` drives an engine and its
protocol straight from that pair, with no data side built. The events come from the
walk ``simulate()`` runs and both paths reach the MEE's one event loop,
so the replayed result is bit-identical to the direct one by
construction — verified across the full protocol lineup, timing and
functional, by ``tests/test_replay.py``, ``tests/test_plan.py`` and
the golden results (``tests/test_golden.py``).

What is *not* compiled away: fault campaigns keep the full direct path
(their crash oracles need live data-cache state, see
``repro.faults.campaign.run_fault_cell``), and the modified-OS variant
(``amnt++``) gets its own stream — physical placement differs under
the AMNT++ allocator, which is the experiment.
"""

from __future__ import annotations

from array import array
from typing import Tuple

from repro.config import SystemConfig
from repro.sim.engine import (
    INSTRUCTIONS_PER_PAGE_FAULT,
    _boundary_events,
    _trace_columns,
)
from repro.sim.machine import build_data_side
from repro.sim.plan import MetadataPlan, compile_metadata_plan
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import Trace

#: Boundary-event kinds stored in :attr:`BoundaryStream.kind`.
EVENT_FILL = 0  #: LLC miss: read the block through the MEE.
EVENT_WRITEBACK = 1  #: Dirty victim: posted write.
EVENT_PERSIST = 2  #: CLWB + fence: fenced write on the critical path.


class BoundaryStream:
    """The compiled memory-boundary trace of one data-side simulation.

    Columnar like :class:`~repro.workloads.trace.ColumnarAccesses`: two
    parallel ``array`` columns (event kind, physical block base) instead
    of per-event objects, every event in program order. A replay runs
    all of them; ``main_events`` equals ``len(stream)``.

    The scalar fields carry the data-side half of the result: the
    replay splices them into its :class:`SimulationResult` so the
    assembled record is indistinguishable from a direct run's.
    """

    __slots__ = (
        "name",
        "kind",
        "addr",
        "main_events",
        "accesses",
        "think_total",
        "llc_hits",
        "llc_misses",
        "page_faults",
        "os_instructions",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.kind = array("B")
        self.addr = array("q")
        self.main_events = 0
        self.accesses = 0
        self.think_total = 0
        self.llc_hits = 0
        self.llc_misses = 0
        self.page_faults = 0
        self.os_instructions = 0

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def app_instructions(self) -> int:
        """Application instructions exactly as ``simulate()`` counts
        them: think cycles plus one per access."""
        return self.think_total + self.accesses

    def llc_hit_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"BoundaryStream(name={self.name!r}, events={len(self.kind)}, "
            f"accesses={self.accesses})"
        )


def compile_boundary_stream(
    trace: Trace,
    config: SystemConfig,
    seed: Seed = 0,
    churn_interval: int = 16384,
    scatter_span_chunks: int = 0,
    modified_os: bool = False,
) -> BoundaryStream:
    """Run the data-side hierarchy over ``trace`` once; return its
    boundary-event stream.

    The walk *is* the one ``simulate()`` feeds the MEE
    (:func:`repro.sim.engine._boundary_events`), drained into columns:
    same demand paging, same LRU transitions, same churn RNG stream.
    Every parameter
    that shapes data-side behaviour is an argument here and a field of
    the compiled-artifact cache key
    (:class:`repro.workloads.registry.BoundaryStreamSpec`).
    ``modified_os`` selects the AMNT++ allocator variant, which changes
    physical placement and therefore the compiled addresses.
    """
    llc, mm = build_data_side(
        config,
        modified_os=modified_os,
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
    )
    block_bytes = config.security.block_bytes
    vaddrs, pids, thinks, flag_col = _trace_columns(trace)

    stream = BoundaryStream(trace.name)
    kind_append = stream.kind.append
    addr_append = stream.addr.append
    for kind, addr, _ in _boundary_events(
        llc,
        mm,
        block_bytes,
        None,  # no records: the plan resolves them separately
        vaddrs,
        pids,
        flag_col,
        make_rng(f"{seed}/engine/{trace.name}"),
        churn_interval,
    ):
        kind_append(kind)
        addr_append(addr)
    stream.main_events = len(stream.kind)

    stream.accesses = len(vaddrs)
    stream.think_total = sum(thinks)
    stream.llc_hits = llc.stats.get("hits")
    stream.llc_misses = llc.stats.get("misses")
    stream.page_faults = mm.stats.get("page_faults")
    stream.os_instructions = (
        mm.allocator.instructions()
        + stream.page_faults * INSTRUCTIONS_PER_PAGE_FAULT
    )
    return stream


def compile_trace(
    trace: Trace, config: SystemConfig, **data_side
) -> Tuple[BoundaryStream, MetadataPlan]:
    """Compile ``trace``'s boundary stream and its metadata plan — the
    pair a planned replay (:func:`repro.sim.engine.simulate_from_plan`)
    consumes. ``data_side`` is :func:`compile_boundary_stream`'s
    keyword arguments."""
    stream = compile_boundary_stream(trace, config, **data_side)
    return stream, compile_metadata_plan(stream, config)
