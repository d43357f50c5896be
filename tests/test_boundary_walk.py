"""The fused data-side walk equals translate + LLC access + record_of.

``repro.sim.engine._boundary_events`` inlines address translation, the
LLC probe and the event-record lookup into one loop per reference. The
reference walk below is written only from the public one-reference
APIs it transcribes — :meth:`MemoryManager.translate`,
:meth:`DataCache.access`, :meth:`DataCache.flush_block` and
:meth:`MemoryEncryptionEngine.record_of` — so the two share no code on
the data side. Random reference streams must give equal event lists,
equal LLC and page-fault counters, and equal allocator state, including
when an address falls outside the LLC's address space.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import DataCache
from repro.config import DataCacheConfig, default_config
from repro.errors import AddressError
from repro.mem.address import AddressSpace
from repro.sim.engine import _boundary_events
from repro.sim.machine import build_data_side, build_machine
from repro.util.rng import make_rng
from repro.util.units import KB, MB

PAGE = 4096
BLOCK = 64

#: 64 MB PCM behind a 2 KB, 2-way LLC (16 sets): a few dozen distinct
#: blocks already force dirty evictions.
CONFIG = dataclasses.replace(
    default_config(capacity_bytes=64 * MB),
    llc=DataCacheConfig(capacity_bytes=2 * KB, associativity=2),
)
#: One shared engine for ``record_of``: records are immutable and
#: process-wide per tree shape, so both walks may resolve through it.
RECORD_OF = build_machine(CONFIG, "volatile").mee.record_of


def reference_walk(
    llc, mm, record_of, vaddrs, pids, flag_col, rng, churn_interval
):
    """The data-side walk, one public call per step; yields events."""
    for position, (vaddr, pid, flags) in enumerate(
        zip(vaddrs, pids, flag_col), start=1
    ):
        is_write = flags & 1
        paddr = mm.translate(pid, vaddr)
        traffic = llc.access(paddr, is_write)
        if traffic.fill_block is not None:
            addr = traffic.fill_block * BLOCK
            yield 0, addr, record_of(addr)
        for victim in traffic.writeback_blocks:
            addr = victim * BLOCK
            yield 1, addr, record_of(addr)
        if is_write and flags & 2:
            flushed = llc.flush_block(paddr)
            if flushed is not None:
                addr = flushed * BLOCK
                yield 2, addr, record_of(addr)
        if churn_interval and position % churn_interval == 0:
            mm.churn(rng)


def fused_walk(llc, mm, record_of, vaddrs, pids, flag_col, rng, churn_interval):
    return _boundary_events(
        llc, mm, BLOCK, record_of, vaddrs, pids, flag_col, rng, churn_interval
    )


def run_walk(walk, stream, modified_os, llc_pages, churn_interval):
    """Drain ``walk`` over ``stream`` on a fresh data side; returns the
    events, whether the walk raised :class:`AddressError`, and the
    data-side state it left."""
    llc, mm = build_data_side(CONFIG, modified_os=modified_os, seed=7)
    if llc_pages is not None:
        # An LLC over a smaller address space than the allocator's:
        # frames past its end are out-of-range physical addresses.
        llc = DataCache(CONFIG.llc, AddressSpace(llc_pages * PAGE))
    vaddrs = [vpage * PAGE + offset for vpage, offset, _, _ in stream]
    pids = [pid for _, _, pid, _ in stream]
    flag_col = [flags for _, _, _, flags in stream]
    rng = make_rng("boundary-walk")
    events = []
    raised = False
    try:
        for event in walk(
            llc, mm, RECORD_OF, vaddrs, pids, flag_col, rng, churn_interval
        ):
            events.append(event)
    except AddressError:
        raised = True
    allocator = mm.allocator
    state = {
        "llc": llc.stats.snapshot(),
        "llc_lines": [list(bucket.items()) for bucket in llc._cache._sets],
        "mm": mm.stats.snapshot(),
        "pages": {
            pid: sorted(mm.process(pid).page_table.mapped_pages())
            for pid in sorted(set(pids))
        },
        "free_area": [list(chunks) for chunks in allocator.free_area],
        "allocator": allocator.stats.snapshot(),
        "instructions": allocator.instructions(),
        "rng": rng.random(),
    }
    return events, raised, state


def assert_walks_agree(
    stream, modified_os=False, llc_pages=None, churn_interval=4
):
    fused = run_walk(fused_walk, stream, modified_os, llc_pages, churn_interval)
    reference = run_walk(
        reference_walk, stream, modified_os, llc_pages, churn_interval
    )
    assert fused == reference
    return fused


#: One reference: (virtual page, byte offset, pid, flags). Flags pack
#: is_write in bit 0 and CLWB + fence in bit 1 (meaningful on writes).
references = st.tuples(
    st.integers(min_value=0, max_value=47),
    st.integers(min_value=0, max_value=PAGE - 1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(references, min_size=1, max_size=160),
    modified_os=st.booleans(),
    llc_pages=st.sampled_from([None, None, 24, 64]),
    churn_interval=st.integers(min_value=0, max_value=40),
)
def test_fused_walk_matches_reference(
    stream, modified_os, llc_pages, churn_interval
):
    assert_walks_agree(stream, modified_os, llc_pages, churn_interval)


def test_walk_without_records_yields_the_same_kinds_and_addresses():
    stream = [(page % 40, 8 * page, page % 3, page % 4) for page in range(200)]
    with_records = run_walk(fused_walk, stream, False, None, 16)
    without = run_walk(
        lambda *args: fused_walk(*args[:2], None, *args[3:]),
        stream,
        False,
        None,
        16,
    )
    assert [event[:2] for event in with_records[0]] == [
        event[:2] for event in without[0]
    ]
    assert all(event[2] is None for event in without[0])
    assert with_records[1:] == without[1:]


class TestCoverage:
    """Fixed streams that pin each case the random streams may miss."""

    def test_faults_hits_dirty_evictions_clwb_and_churn(self):
        # 40 pages over 2 pids, each reference repeated at once with
        # the next flags (a hit), every flag value in turn: conflicts
        # in 16 sets evict dirty lines, and churn fires every 16
        # references.
        stream = []
        for step in range(120):
            vpage, offset, pid = step % 40, 64 * step % PAGE, step % 2
            stream.append((vpage, offset, pid, step % 4))
            stream.append((vpage, offset, pid, (step + 1) % 4))
        events, raised, state = assert_walks_agree(stream, churn_interval=16)
        assert not raised
        assert {kind for kind, _, _ in events} == {0, 1, 2}
        assert state["mm"]["mm.page_faults"] == 40
        assert state["mm"]["mm.churn_bursts"] == 2 * (240 // 16)
        assert state["llc"]["llc.hits"] == 120
        assert state["llc"]["llc.dirty_evictions"] > 0

    @pytest.mark.parametrize("modified_os", [False, True])
    def test_out_of_range_address_raises_in_both_walks(self, modified_os):
        # The LLC covers 4 pages, so 16 distinct pages cannot all land
        # inside it.
        stream = [(page, 0, 0, 1) for page in range(16)]
        events, raised, state = assert_walks_agree(
            stream, modified_os=modified_os, llc_pages=4, churn_interval=0
        )
        assert raised
        assert len(events) < 16


class TestDirtyBitsAreBools:
    """Sets map key -> dirty bit. The walks derive that bit from
    ``flags & 1``, an int; since ``1 == True``, the list comparisons
    above would not notice an int leaking into a set, so these tests
    check the type."""

    STREAM = [
        (step % 40, 64 * step % PAGE, step % 2, step % 4) for step in range(240)
    ]

    @staticmethod
    def assert_bool_bits(llc):
        cache = llc._cache
        assert all(
            type(dirty) is bool
            for bucket in cache._sets
            for dirty in bucket.values()
        )
        full = next(
            index
            for index, bucket in enumerate(cache._sets)
            if len(bucket) == cache.associativity
        )
        victim = cache.insert(full + cache.num_sets * 4096)
        assert type(victim.dirty) is bool
        dropped = cache.drop_all()
        assert dropped and all(type(line.dirty) is bool for line in dropped)

    @pytest.mark.parametrize("walk", [fused_walk, reference_walk])
    def test_after_a_walk(self, walk):
        llc, mm = build_data_side(CONFIG, modified_os=False, seed=7)
        vaddrs = [vpage * PAGE + offset for vpage, offset, _, _ in self.STREAM]
        pids = [pid for _, _, pid, _ in self.STREAM]
        flag_col = [flags for _, _, _, flags in self.STREAM]
        rng = make_rng("boundary-walk")
        events = list(
            walk(llc, mm, RECORD_OF, vaddrs, pids, flag_col, rng, 16)
        )
        assert {kind for kind, _, _ in events} == {0, 1, 2}
        self.assert_bool_bits(llc)

    def test_after_data_cache_access_with_int_flags(self):
        llc = DataCache(CONFIG.llc, AddressSpace(64 * PAGE))
        for step in range(200):
            llc.access(64 * (step * 7 % 512), step & 1)
        self.assert_bool_bits(llc)

    def test_metadata_cache_after_mee_events(self):
        mee = build_machine(CONFIG, "amnt").mee
        for step in range(300):
            addr = (step * 37 % 1024) * PAGE
            if step % 3:
                mee.write_block(addr, fenced=step % 5 == 0)
            else:
                mee.read_block(addr)
        assert all(
            type(dirty) is bool
            for bucket in mee.mdcache._cache._sets
            for dirty in bucket.values()
        )
