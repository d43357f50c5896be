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
faults, OS instruction charges, think-cycle totals).
:func:`repro.sim.engine.simulate_from_plan` then drives any machine's
MEE/protocol layer straight from the compiled events and their metadata
plan (:mod:`repro.sim.plan`). Because the events are byte-for-byte the
calls ``simulate()`` would have issued, and both reach the MEE's one
event loop, the replayed result is bit-identical to the direct one by
construction — and verified across the full protocol lineup and both
integrity modes by ``tests/test_replay.py`` and ``tests/test_plan.py``.

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
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import Trace

#: Boundary-event kinds stored in :attr:`BoundaryStream.kind`.
EVENT_FILL = 0  #: LLC miss: read the block through the MEE.
EVENT_WRITEBACK = 1  #: Dirty victim (or end-of-run flush): posted write.
EVENT_PERSIST = 2  #: CLWB + fence: fenced write on the critical path.


class BoundaryStream:
    """The compiled memory-boundary trace of one data-side simulation.

    Columnar like :class:`~repro.workloads.trace.ColumnarAccesses`:
    four parallel ``array`` columns (event kind, physical block base,
    issuing pid, originating access index) instead of per-event
    objects. Events ``[0, main_events)`` are the run proper; the tail
    ``[main_events, len)`` is the end-of-run LLC flush sequence, which
    a replay applies only when the direct run would have
    (``flush_llc_at_end=True``). The flush tail carries ``pid == -1``
    and ``access_index == accesses``.

    The scalar fields carry the data-side half of the result: the
    replay splices them into its :class:`SimulationResult` so the
    assembled record is indistinguishable from a direct run's.
    """

    __slots__ = (
        "name",
        "kind",
        "addr",
        "pid",
        "access_index",
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
        self.pid = array("q")
        self.access_index = array("q")
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

    def columns(self) -> Tuple[array, array, array, array]:
        """Raw (kind, addr, pid, access_index) columns."""
        return self.kind, self.addr, self.pid, self.access_index

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
    churn_bursts: int = 2,
    churn_pages_per_burst: int = 32,
    scatter_span_chunks: int = 0,
    modified_os: bool = False,
    max_order: int = 10,
    reclaim_interval: int = 64,
) -> BoundaryStream:
    """Run the data-side hierarchy over ``trace`` once; return its
    boundary-event stream.

    The walk mirrors the event generator ``simulate()`` feeds the MEE
    (:func:`repro.sim.engine._boundary_events`), recording each event
    into columns instead: same demand paging, same LRU transitions,
    same churn RNG stream, same end-of-run flush (compiled always,
    replayed only under ``flush_llc_at_end``) — every parameter that
    shapes data-side behaviour is an argument here and a field of the
    stream-cache key
    (:class:`repro.workloads.registry.BoundaryStreamSpec`).
    ``modified_os`` selects the AMNT++ allocator variant, which changes
    physical placement and therefore the compiled addresses.
    """
    from repro.sim.machine import build_data_side

    llc, mm = build_data_side(
        config,
        modified_os=modified_os,
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
        max_order=max_order,
        reclaim_interval=reclaim_interval,
    )
    from repro.sim.engine import INSTRUCTIONS_PER_PAGE_FAULT, _trace_columns

    rng = make_rng(f"{seed}/engine/{trace.name}")
    block_bytes = config.security.block_bytes

    stream = BoundaryStream(trace.name)
    kinds = stream.kind
    addrs = stream.addr
    out_pids = stream.pid
    out_index = stream.access_index
    kind_append = kinds.append
    addr_append = addrs.append
    pid_append = out_pids.append
    index_append = out_index.append

    translate = mm.translate
    llc_access = llc.access
    llc_flush_block = llc.flush_block
    churn = mm.churn

    vaddrs, pids, thinks, flag_col = _trace_columns(trace)
    position = 0
    for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
        position += 1
        is_write = flags & 1
        paddr = translate(pid, vaddr)
        traffic = llc_access(paddr, is_write)
        if traffic.fill_block is not None:
            kind_append(EVENT_FILL)
            addr_append(traffic.fill_block * block_bytes)
            pid_append(pid)
            index_append(position - 1)
        for victim_block in traffic.writeback_blocks:
            kind_append(EVENT_WRITEBACK)
            addr_append(victim_block * block_bytes)
            pid_append(pid)
            index_append(position - 1)
        if is_write and flags & 2:
            flushed_block = llc_flush_block(paddr)
            if flushed_block is not None:
                kind_append(EVENT_PERSIST)
                addr_append(flushed_block * block_bytes)
                pid_append(pid)
                index_append(position - 1)
        if churn_interval and position % churn_interval == 0:
            churn(
                rng, bursts=churn_bursts, pages_per_burst=churn_pages_per_burst
            )

    stream.main_events = len(kinds)
    # The end-of-run flush sequence is compiled unconditionally (it is
    # a pure function of the final LLC state and mutates nothing the
    # main loop reads); replays apply it only under flush_llc_at_end.
    for victim_block in llc.flush():
        kind_append(EVENT_WRITEBACK)
        addr_append(victim_block * block_bytes)
        pid_append(-1)
        index_append(position)

    stream.accesses = position
    stream.think_total = sum(thinks)
    stream.llc_hits = llc.stats.get("hits")
    stream.llc_misses = llc.stats.get("misses")
    stream.page_faults = mm.stats.get("page_faults")
    stream.os_instructions = (
        mm.allocator.instructions()
        + stream.page_faults * INSTRUCTIONS_PER_PAGE_FAULT
    )
    return stream
