"""The trace-driven simulation loop.

For each reference in the trace: translate (demand paging), probe the
LLC, and send the resulting *memory traffic* — fills and dirty
writebacks — through the memory encryption engine, accumulating cycles.
Secure-memory work therefore only happens where it happens in hardware:
at the memory boundary.

Periodic page churn emulates unrelated system activity so the OS
reclamation path (where AMNT++ restructures free lists) actually runs
during measurement, as it would on a live machine.

Cycle accounting is deliberately simple and serial — think cycles plus
LLC latency plus every NVM access at full latency. Absolute cycle
counts are therefore pessimistic for all protocols equally; every
reported figure is normalized to the volatile baseline run on the same
trace, exactly as the paper normalizes to the volatile secure-memory
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.mee import (
    MemoryEncryptionEngine,
    ReplayGroup,
    record_key_shift,
)
from repro.errors import PowerFailure, SimulationError
from repro.sim.machine import Machine
from repro.sim.results import SimulationResult
from repro.telemetry import record_simulation
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import ColumnarAccesses, Trace


def _trace_columns(trace: Trace):
    """The trace's raw (vaddr, pid, think, flags) columns.

    Falls back to building columns on the fly for a trace whose
    ``accesses`` was replaced with a plain record list.
    """
    accesses = trace.accesses
    if not isinstance(accesses, ColumnarAccesses):
        accesses = ColumnarAccesses(accesses)
    return accesses.columns()

#: Modeled kernel instructions per demand-paging fault (trap, allocator
#: call, page-table update). Only Table 2's instruction ratios consume
#: this; it is deliberately round.
INSTRUCTIONS_PER_PAGE_FAULT = 500


def _boundary_events(
    llc,
    mm,
    block_bytes: int,
    record_of,
    vaddrs,
    pids,
    flag_col,
    rng,
    churn_interval: int,
):
    """The data-side walk of a trace's (vaddr, pid, flags) columns:
    yields its memory-boundary events as ``(kind, addr, record)``.

    For each reference: translate (demand paging) through ``mm``, probe
    ``llc``, yield the fill and the dirty writeback it caused, then a
    CLWB + fence's flushed block, and churn pages every
    ``churn_interval`` references. Kinds are the MEE event loop's (0
    fill, 1 posted write, 2 fenced write). ``simulate()`` hands the
    events to the MEE's event loop, which consumes each one before the
    walk resumes, so the data side and the MEE interleave exactly as
    per-block calls would; the stream compiler
    (:func:`repro.sim.replay.compile_boundary_stream`) drains the same
    walk into columns and passes ``record_of=None``, which yields
    ``None`` records and resolves none.

    The loop runs once per trace record, so each reference is one
    stretch of straight-line code rather than three calls:

    * **Translate.** A mapped page is read from the memory manager's
      per-pid page -> base mirror; :meth:`MemoryManager.translate` runs
      only on a page fault or a pid's first reference (and for every
      reference under a page size that is not a power of two).
    * **LLC probe.** The body of :meth:`DataCache.access`, transcribed
      over its hoisted set array and counters: same counters, same LRU
      transitions, same victim order, but no :class:`MemoryTraffic`
      record. Out-of-range addresses raise through
      :meth:`AddressSpace.block_index`, as ``access`` does. A CLWB
      follows a write, which has just left its line resident and
      dirty, so :meth:`DataCache.flush_block`'s effect is clearing that
      line's dirty bit.
    * **Records.** An event's record depends only on its counter index
      and HMAC line, which all blocks of one HMAC line share when a
      page holds a whole number of lines (as 64 B blocks in 4 KB pages
      do). So ``record_of(addr)`` runs once per distinct HMAC line of
      the walk, and a dict keyed by ``block >> 3``, local to this walk,
      serves the rest; under any other geometry the key is the block
      index (see :func:`~repro.core.mee.record_key_shift`).
    """
    # Translation: the memory manager's per-pid page -> base mirror
    # (left empty when the page size is not a power of two, so every
    # reference goes through translate()).
    translate = mm.translate
    bases_of = mm._bases if mm._page_shift is not None else {}
    page_shift = mm._page_shift or 0
    page_mask = mm._page_mask
    unmapped = {}
    churn = mm.churn
    # The LLC's set array, geometry and counters (DataCache.access).
    sets = llc._sets
    set_mask = llc._set_mask
    assoc = llc._assoc
    capacity = llc._capacity
    block_shift = llc._block_shift
    block_index = llc._block_index
    hits = llc._hits
    misses = llc._misses
    fills = llc._fills
    evictions = llc._evictions
    dirty_evictions = llc._dirty_evictions
    # HMAC line (or block) index -> event record, for this walk only.
    line_shift = record_key_shift(mm.page_bytes, block_bytes)
    records = None if record_of is None else {}
    record_at = None if records is None else records.get
    rec = None

    # The loop iterates the trace's raw columns: machine integers per
    # record via zip, no per-record object or attribute lookups. Flags
    # pack is_write in bit 0 and flush in bit 1; ``is_write`` is a bool
    # because it becomes a filled line's dirty bit.
    position = 0
    for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
        position += 1
        is_write = flags & 1 == 1
        base = bases_of.get(pid, unmapped).get(vaddr >> page_shift)
        if base is None:
            paddr = translate(pid, vaddr)
        else:
            paddr = base + (vaddr & page_mask)
        if 0 <= paddr < capacity:
            block = paddr >> block_shift
        else:
            block = block_index(paddr)  # raises AddressError
        bucket = sets[block & set_mask]
        if block in bucket:
            if is_write:
                bucket[block] = True
            bucket.move_to_end(block)
            hits.value += 1
        else:
            misses.value += 1
            victim = None
            if len(bucket) >= assoc:
                victim, dirty = bucket.popitem(last=False)
                evictions.value += 1
                if dirty:
                    dirty_evictions.value += 1
                else:
                    victim = None
            bucket[block] = is_write
            fills.value += 1
            addr = block * block_bytes
            if records is not None:
                rec = record_at(block >> line_shift)
                if rec is None:
                    rec = records[block >> line_shift] = record_of(addr)
            yield 0, addr, rec
            if victim is not None:
                addr = victim * block_bytes
                if records is not None:
                    rec = record_at(victim >> line_shift)
                    if rec is None:
                        rec = records[victim >> line_shift] = record_of(addr)
                yield 1, addr, rec
        if is_write and flags & 2:
            # CLWB + fence: the store is pushed to memory now, and the
            # core waits for the (protocol-dependent) persist to finish
            # — the path in-memory storage applications live on.
            bucket[block] = False
            addr = block * block_bytes
            if records is not None:
                rec = record_at(block >> line_shift)
                if rec is None:
                    rec = records[block >> line_shift] = record_of(addr)
            yield 2, addr, rec
        if churn_interval and position % churn_interval == 0:
            churn(rng)


def simulate(
    machine: Machine,
    trace: Trace,
    seed: Seed = 0,
    churn_interval: int = 16384,
    recording: Optional[list] = None,
) -> SimulationResult:
    """Run ``trace`` to completion on ``machine``; returns the result.

    The data-side walk (:func:`_boundary_events`) is a generator the
    MEE's event loop consumes in one call, as plan replay consumes a
    compiled plan.

    Several machines that share one LLC and memory manager run one
    walk through a shared ``recording``, a list that starts empty: the
    first call walks the data side and keeps the list of its events as
    the recording's one element, with the records its engine's
    ``record_of`` resolved (every engine of one tree shape shares
    them, see :func:`~repro.core.mee.resolve_record`). Every call, that
    one included, runs its engine over those events and reads the
    shared data side's figures. Without a recording, the walk streams
    and nothing is kept.
    An engine that joined a :class:`~repro.core.mee.ReplayGroup` (see
    :func:`share_residency`) runs with its group, as in
    :func:`simulate_from_plan`: the first member's call runs the whole
    group, and every member's call reads its own cycles.
    """
    rng = make_rng(f"{seed}/engine/{trace.name}")
    mee = machine.mee
    llc = machine.llc
    mm = machine.mm
    block_bytes = machine.config.security.block_bytes
    llc_latency = machine.config.llc.access_latency_cycles

    # Per reference: its think cycles and one LLC access (the app
    # instructions count the access itself as one).
    vaddrs, pids, thinks, flag_col = _trace_columns(trace)
    think_total = sum(thinks)
    app_instructions = think_total + len(thinks)
    cycles = think_total + len(thinks) * llc_latency

    def walk():
        return _boundary_events(
            llc,
            mm,
            block_bytes,
            mee.record_of,
            vaddrs,
            pids,
            flag_col,
            rng,
            churn_interval,
        )

    def events():
        if recording is None:
            return walk()
        if not recording:
            recording.append(list(walk()))
        return recording[0]

    group = mee.replay_group
    if group is None:
        cycles += mee.run_events(events())
    else:
        # The source names the trace alone: a group outlives its call
        # (engine and group refer to each other), and holding the
        # recording, LLC or memory manager would keep them alive with
        # it.
        cycles += group.cycles_of(mee, (trace,), events)

    os_instructions = (
        mm.allocator.instructions()
        + mm.stats.get("page_faults") * INSTRUCTIONS_PER_PAGE_FAULT
    )
    result = SimulationResult(
        workload=trace.name,
        protocol=mee.protocol.display_name,
        cycles=cycles,
        accesses=len(trace),
        llc_hit_rate=llc.hit_rate(),
        mdcache_hit_rate=mee.mdcache.hit_rate(),
        instructions=app_instructions + os_instructions,
        os_instructions=os_instructions,
        page_faults=mm.stats.get("page_faults"),
        nvm_stats=mee.nvm.stats.snapshot(),
        protocol_stats=mee.protocol.stats.snapshot(),
        mee_stats=mee.stats.snapshot(),
    )
    record_simulation(
        result, mee, llc.stats.get("hits"), llc.stats.get("misses")
    )
    return result


# ----------------------------------------------------------------------
# compiled-plan replay (the sweep fast path)
# ----------------------------------------------------------------------


def simulate_from_plan(stream, plan, mee: MemoryEncryptionEngine) -> SimulationResult:
    """Drive the engine ``mee`` (and its bound protocol) from a compiled
    :class:`~repro.sim.replay.BoundaryStream` and its
    :class:`~repro.sim.plan.MetadataPlan`; returns the result.

    Bit-identical to :func:`simulate` run on the trace the stream was
    compiled from by a machine with this engine, provided the stream's
    data-side parameters (config geometry, seed, churn, OS variant) are
    that machine's and ``plan`` was compiled from this ``stream`` under
    the engine's metadata geometry — the compiled-artifact cache key in
    :mod:`repro.workloads.registry` encodes exactly that contract. The
    stream's event columns, zipped with the plan's per-event records,
    run through one call of the MEE's event loop
    (:attr:`~repro.core.mee.MemoryEncryptionEngine.run_events`), the
    loop :func:`simulate` feeds from its live data-side walk. No LLC or
    memory manager takes part: every data-side quantity the result
    needs was captured at compile time and is spliced in here.

    An engine that joined a :class:`~repro.core.mee.ReplayGroup` (see
    :func:`share_residency`) replays with its group: the first member's
    call runs the whole group over the stream, and every member's call,
    that one included, returns that member's own result.
    """
    llc_latency = mee.config.llc.access_latency_cycles

    def events():
        return zip(stream.kind, stream.addr, plan.event_records())

    cycles = stream.think_total + stream.accesses * llc_latency
    group = mee.replay_group
    if group is None:
        cycles += mee.run_events(events())
    else:
        cycles += group.cycles_of(mee, (stream, plan), events)

    os_instructions = stream.os_instructions
    result = SimulationResult(
        workload=stream.name,
        protocol=mee.protocol.display_name,
        cycles=cycles,
        accesses=stream.accesses,
        llc_hit_rate=stream.llc_hit_rate(),
        mdcache_hit_rate=mee.mdcache.hit_rate(),
        instructions=stream.app_instructions + os_instructions,
        os_instructions=os_instructions,
        page_faults=stream.page_faults,
        nvm_stats=mee.nvm.stats.snapshot(),
        protocol_stats=mee.protocol.stats.snapshot(),
        mee_stats=mee.stats.snapshot(),
    )
    record_simulation(result, mee, stream.llc_hits, stream.llc_misses)
    return result


def share_residency(
    engines: Sequence[MemoryEncryptionEngine],
) -> Optional[ReplayGroup]:
    """Join those of ``engines`` that can share metadata-cache
    residency (:attr:`~repro.core.mee.MemoryEncryptionEngine.groupable`)
    into one :class:`~repro.core.mee.ReplayGroup`; returns it, or
    ``None`` when fewer than two qualify.

    The engines must share one configuration and then be replayed
    with :func:`simulate_from_plan` on one stream and plan, or run
    with :func:`simulate` on one trace by machines that share one LLC
    and memory manager (and one recording of their walk); the group
    checks the configuration and the stream and plan, or trace.
    """
    engines = [mee for mee in engines if mee.groupable]
    if len(engines) < 2:
        return None
    return ReplayGroup(engines)


# ----------------------------------------------------------------------
# memory-boundary replay (the fault-injection campaign's driver)
# ----------------------------------------------------------------------


def replay_payload(position: int, block_bytes: int = 64) -> bytes:
    """Deterministic plaintext for the write at trace ``position``.

    A pure function of the position so the golden shadow copy and any
    re-derivation of it (e.g. in the oracle's in-flight check) agree
    without shipping payloads around.
    """
    return position.to_bytes(8, "little") * (block_bytes // 8)


@dataclass
class ReplayRecord:
    """What one memory-boundary replay observed."""

    accesses_completed: int = 0
    crashed: bool = False
    crash_phase: str = ""
    crash_occurrence: int = 0
    crash_access_index: int = -1
    crash_write_committed: bool = False
    #: The crash fired inside an open persist group (persist-window
    #: triggers): the in-flight write's fences were partially issued,
    #: so a loud "detected" recovery is acceptable even for
    #: crash-consistent protocols.
    crash_in_group: bool = False
    #: Golden shadow copy: physical block base -> last durable payload.
    golden: Dict[int, bytes] = field(default_factory=dict)
    #: The write in flight at the crash, if its persist group had not
    #: drained: (block base, previous payload or None, attempted payload).
    in_flight: Optional[Tuple[int, Optional[bytes], bytes]] = None


def crash_record(
    failure: PowerFailure,
    golden: Dict[int, bytes],
    in_flight: Optional[Tuple[int, Optional[bytes], bytes]],
    accesses_completed: int,
) -> ReplayRecord:
    """The :class:`ReplayRecord` of a drive cut by ``failure`` after
    ``accesses_completed`` accesses, with ``in_flight`` the write whose
    persist group was open (or None).

    The golden copy is copied, never moved, so a drive that keeps going
    past a captured crash (:class:`~repro.faults.triggers.CrashScheduler`)
    leaves this record as it was at the cut. A committed in-flight write
    is durable, so its payload joins the golden copy; otherwise it is
    the record's ``in_flight``.
    """
    record = ReplayRecord(
        accesses_completed=accesses_completed,
        crashed=True,
        crash_phase=failure.phase,
        crash_occurrence=failure.occurrence,
        crash_access_index=failure.access_index,
        crash_write_committed=failure.write_committed,
        crash_in_group=failure.in_group,
        golden=dict(golden),
    )
    if in_flight is not None:
        if failure.write_committed:
            # The group drained before the lights went out: the
            # interrupted access's write is durable after all.
            record.golden[in_flight[0]] = in_flight[2]
        else:
            record.in_flight = in_flight
    return record


def drive_memory_boundary(
    machine: Machine,
    trace: Trace,
    seed: Seed = 0,
    scheduler=None,
    churn_interval: int = 1024,
) -> ReplayRecord:
    """Replay ``trace`` straight at the memory boundary (no LLC).

    Every reference goes to the MEE as if it had missed the data cache.
    That is deliberate: the fault campaign wants maximal persistence-
    protocol activity per access, and — unlike LLC victim writebacks —
    writes driven here carry payloads, so the golden shadow copy is
    exact. Reads are checked against the shadow as they happen (any
    pre-crash divergence is an engine bug, not a finding).

    ``scheduler`` is a crash scheduler (repro.faults.triggers); its
    :class:`~repro.errors.PowerFailure` is caught here and summarized
    in the returned :class:`ReplayRecord` by :func:`crash_record`. The
    drive sets the scheduler's ``crash_record`` to the same summary of
    the current point, which a scheduler that captures a crash instead
    of raising it calls. With ``scheduler=None`` (or an unarmed one)
    the replay runs to completion.
    """
    mee = machine.mee
    mm = machine.mm
    functional = mee.functional
    block_bytes = machine.config.security.block_bytes
    zero_block = bytes(block_bytes)
    rng = make_rng(f"{seed}/faults/{trace.name}")
    record = ReplayRecord()
    golden = record.golden

    translate = mm.translate
    block_base_of = mee.address_space.block_base
    write_block = mee.write_block
    churn = mm.churn

    vaddrs, pids, thinks, flag_col = _trace_columns(trace)
    position = 0
    pending: Optional[Tuple[int, Optional[bytes], bytes]] = None
    if scheduler is not None:
        scheduler.crash_record = lambda failure: crash_record(
            failure, golden, pending, position
        )
    try:
        for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
            if scheduler is not None:
                scheduler.on_access(position)
            paddr = translate(pid, vaddr)
            base = block_base_of(paddr)
            if flags & 1:
                fenced = bool(flags & 2)
                if functional:
                    payload = replay_payload(position, block_bytes)
                    pending = (base, golden.get(base), payload)
                    write_block(base, data=payload, fenced=fenced)
                    golden[base] = payload
                    pending = None
                else:
                    write_block(base, fenced=fenced)
            elif functional:
                data = mee.read_block_data(base)
                if data != golden.get(base, zero_block):
                    raise SimulationError(
                        f"pre-crash readback diverged at block {base:#x} "
                        f"(access {position} of {trace.name})"
                    )
            else:
                mee.read_block(base)
            position += 1
            record.accesses_completed = position
            if churn_interval and position % churn_interval == 0:
                churn(rng)
    except PowerFailure as failure:
        return crash_record(failure, golden, pending, position)
    return record
