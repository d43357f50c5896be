"""A naive reference timing MEE, diffed against the engine.

The engine's single-block entry points and plan replay share one event
loop, so comparing them with each other cannot catch an error they
share. This model re-derives the timing semantics from the paper's
read/write paths with the plainest data structures — a dict of LRU
``OrderedDict`` sets, string region names, no memos, no plans — and
must agree with the engine on cycles and on every operation count.

Only the set placement (``mix_of``) and the tree's ancestor arithmetic
(``TreeGeometry``) are borrowed, so both sides put a line in the same
set and walk the same path.

Anubis is written from its module's description of the shadow table:
every metadata fill persists a shadow entry on the critical path, every
dirty writeback retires one off it, and every data write updates one,
waiting for it only under a fence. It is the one protocol whose fill
and writeback hooks both run, so it exercises the engine's miss path
end to end.

AMNT and its multi-subtree variant are written from the paper's §4 and
the ``core/amnt.py`` description: the level-L nodes of the tree split
memory into regions, and a fast set of regions (one for ``amnt``, S for
``amnt-multi``) sits behind on-chip NV registers. Every write persists
its counter and HMAC lines; a write inside a fast region dirties only
the path nodes below level L and persists nothing more, a write outside
one writes its whole path through in order. A read's walk stops at a
fast region's root, whose register it trusts. Every n writes a
selection runs over the hot-region history (``HistoryBuffer`` is
borrowed; it has its own tests): ``amnt`` adopts the head region,
``amnt-multi`` the top S regions by count, incumbents winning ties. A
region leaving the fast set first has its dirty cached nodes persisted,
then its root and each ancestor up to the global root.
"""

from collections import OrderedDict
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import mix_of
from repro.config import default_config
from repro.core.history_buffer import HistoryBuffer
from repro.integrity.geometry import TreeGeometry
from repro.sim.engine import simulate_from_plan
from repro.sim.machine import build_machine
from repro.util.units import KB, MB
from repro.workloads.registry import (
    boundary_stream_spec,
    literal_spec,
    materialize_compiled,
)
from repro.workloads.trace import MemoryAccess, Trace

READ, POSTED, FENCED = 0, 1, 2
REGIONS = ("data", "counters", "tree", "hmacs", "shadow_table")
COUNTS = (
    "hits", "misses", "dirty_evictions",
    "walk_stopped_at_cache", "walk_stopped_at_register",
)
AMNTS = ("amnt", "amnt-multi")


class ReferenceMEE:
    """Volatile, leaf, strict, Anubis and AMNT timing semantics,
    written out."""

    def __init__(self, config, protocol):
        self.protocol = protocol
        md = config.metadata_cache
        self.num_sets = md.capacity_bytes // md.line_bytes // md.associativity
        self.ways = md.associativity
        self.md_cycles = md.access_latency_cycles
        self.read_cycles = config.pcm.read_latency_cycles
        self.write_cycles = config.pcm.write_latency_cycles
        self.posted_cycles = max(
            1, int(self.write_cycles * config.pcm.posted_write_latency_fraction)
        )
        self.page = config.security.page_bytes
        self.block = config.security.block_bytes
        self.geometry = TreeGeometry.from_config(config)
        self.sets = {}
        self.reads = dict.fromkeys(REGIONS, 0)
        self.writes = dict.fromkeys(REGIONS, 0)
        self.persists = dict.fromkeys(REGIONS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cycles = 0
        # AMNT: the subtree level, the selection interval, the fast
        # regions, and the protocol's own event counts.
        amnt = config.amnt
        self.level = amnt.subtree_level
        self.arity = config.security.tree_arity
        self.interval = amnt.movement_interval_writes
        self.size = amnt.multi_subtrees if protocol == "amnt-multi" else 1
        self.history = HistoryBuffer(amnt.history_buffer_entries)
        self.writes_since_selection = 0
        self.fast = []
        self.stats = {}

    def region(self, key):
        return {"ctr": "counters", "node": "tree", "hmac": "hmacs"}[key[0]]

    def lines(self, key):
        return self.sets.setdefault(mix_of(key) % self.num_sets, OrderedDict())

    def touch(self, key, dirty):
        """One metadata reference: hit, or fill (evicting the LRU way)."""
        lines = self.lines(key)
        self.cycles += self.md_cycles
        if key in lines:
            lines.move_to_end(key)
            lines[key] = lines[key] or dirty
            self.counts["hits"] += 1
            return True
        self.counts["misses"] += 1
        if len(lines) == self.ways:
            victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                # Lazy writeback of the dirty victim (a posted write).
                self.counts["dirty_evictions"] += 1
                self.writes[self.region(victim)] += 1
                self.cycles += self.posted_cycles
                if self.protocol == "anubis":
                    # Its shadow entry retires; the update coalesces
                    # with the fill's, which pays for it.
                    self.shadow_write()
        lines[key] = dirty
        self.reads[self.region(key)] += 1
        self.cycles += self.read_cycles
        if self.protocol == "anubis":
            # The fill changes what the shadow table mirrors: a persist
            # on the critical path.
            self.shadow_write()
            self.cycles += self.write_cycles
        return False

    def persist(self, key):
        """Write-through of one line; it stays cached, now clean."""
        self.writes[self.region(key)] += 1
        self.persists[self.region(key)] += 1
        lines = self.lines(key)
        if key in lines:
            lines[key] = False

    def shadow_write(self):
        """One persisted write of an Anubis shadow-table entry."""
        self.writes["shadow_table"] += 1
        self.persists["shadow_table"] += 1

    def stat(self, name):
        self.stats[name] = self.stats.get(name, 0) + 1

    def ordered_persist(self, key):
        """One persist of an ordered walk: it pays the full write."""
        self.persist(key)
        self.cycles += self.write_cycles

    def select(self):
        """The fast set for the next interval, then the moves to it."""
        self.stat("selection_intervals")
        head = self.history.head_region()
        if self.protocol == "amnt":
            target = [head]
        else:
            counts = dict(self.history.contents())
            target = sorted(
                counts,
                key=lambda region: (
                    -counts[region], region not in self.fast, region
                ),
            )[: self.size]
        self.history.reset_interval(keep_region=head)
        for region in [r for r in self.fast if r not in target]:
            self.retire(region)
        for region in target:
            if region not in self.fast:
                self.fast.append(region)
                # amnt's one register moves on each adoption; amnt-multi
                # counts adoptions and retirements apart.
                self.stat("movements" if self.protocol == "amnt" else "adoptions")

    def retire(self, region):
        """The region turns strict: its dirty cached nodes, then its
        root and every ancestor up to the global root, persist."""
        for lines in self.sets.values():
            for key, dirty in list(lines.items()):
                if (
                    dirty and key[0] == "node" and key[1] > self.level
                    and key[2] // self.arity ** (key[1] - self.level) == region
                ):
                    self.ordered_persist(key)
                    self.stat("movement_flushes")
        level, index = self.level, region
        while level >= 1:
            self.ordered_persist(("node", level, index))
            level, index = level - 1, index // self.arity
        self.fast.remove(region)
        if self.protocol == "amnt-multi":
            self.stat("movements")

    def event(self, kind, addr):
        counter = addr // self.page
        ctr = ("ctr", counter)
        hmac = ("hmac", addr // self.block // 8)
        nodes = self.geometry.ancestors_of_counter(counter)
        path = [("node", level, index) for level, index in nodes]
        region = dict(nodes).get(self.level)
        fast = self.protocol in AMNTS and region in self.fast
        if kind == READ:
            self.reads["data"] += 1
            self.cycles += self.read_cycles
            self.touch(ctr, False)
            for node in path:  # verify up to the first cached or trusted node
                if fast and node[1] == self.level:
                    self.counts["walk_stopped_at_register"] += 1
                    break
                if self.touch(node, False):
                    self.counts["walk_stopped_at_cache"] += 1
                    break
            self.touch(hmac, False)
            return
        if fast:  # the register summarizes everything from level L up
            path = [node for node in path if node[1] > self.level]
        for key in [ctr, hmac] + path:
            self.touch(key, True)
        self.writes["data"] += 1
        self.cycles += self.write_cycles if kind == FENCED else self.posted_cycles
        if self.protocol == "volatile":
            return
        if self.protocol == "anubis":
            # The counter update reaches its shadow entry; only a fence
            # makes the write wait for it.
            self.shadow_write()
            if kind == FENCED:
                self.cycles += self.write_cycles
            return
        # Counter and HMAC persist as an overlapped pair.
        self.persist(ctr)
        self.persist(hmac)
        self.cycles += self.write_cycles + self.posted_cycles
        if self.protocol == "strict" or (
            self.protocol in AMNTS and not fast
        ):
            for node in path:  # ordered: one full write per level
                self.ordered_persist(node)
        if self.protocol in AMNTS:
            self.stat("subtree_hits" if fast else "subtree_misses")
            self.history.record(region)
            self.writes_since_selection += 1
            if self.writes_since_selection == self.interval:
                self.writes_since_selection = 0
                self.select()


def engine_counts(mee):
    nvm, md = mee.nvm.stats, mee.mdcache.stats
    return (
        {r: nvm.get(f"reads.{r}") for r in REGIONS},
        {r: nvm.get(f"writes.{r}") for r in REGIONS},
        {r: nvm.get(f"persists.{r}") for r in REGIONS},
        {
            "hits": md.get("hits"),
            "misses": md.get("misses"),
            "dirty_evictions": md.get("dirty_evictions"),
            "walk_stopped_at_cache": mee.stats.get("walk_stopped_at_cache"),
            "walk_stopped_at_register": mee.stats.get(
                "walk_stopped_at_register"
            ),
        },
        {
            name.rsplit(".", 1)[1]: value
            for name, value in mee.protocol.stats.snapshot().items()
            if value
        } if mee.protocol.name in AMNTS else {},
    )


def reference_counts(ref):
    return ref.reads, ref.writes, ref.persists, ref.counts, ref.stats


configs = st.builds(
    lambda capacity, arity, md, interval, subtrees: replace(
        default_config(capacity_bytes=capacity * MB),
        security=replace(default_config().security, tree_arity=arity),
        metadata_cache=replace(
            default_config().metadata_cache,
            capacity_bytes=md[0] * KB,
            associativity=md[1],
        ),
        llc=replace(default_config().llc, capacity_bytes=4 * KB, associativity=4),
        amnt=replace(
            default_config().amnt,
            movement_interval_writes=interval,
            multi_subtrees=subtrees,
        ),
    ),
    st.sampled_from([4, 16, 64]),
    st.sampled_from([2, 4, 8]),
    st.sampled_from([(1, 2), (2, 4), (1, 16)]),
    st.sampled_from([4, 16, 64]),
    st.sampled_from([1, 2, 4]),
)
protocols = st.sampled_from(
    ["volatile", "leaf", "strict", "anubis", "amnt", "amnt-multi"]
)


@settings(max_examples=300, deadline=None)
@given(
    configs,
    protocols,
    st.lists(st.tuples(st.sampled_from([READ, POSTED, FENCED]),
                       st.integers(0, 15), st.sampled_from([0, 0, 1, 2, 3]),
                       st.integers(0, 31)),
             min_size=20, max_size=300),
)
def test_block_entry_points_match_reference(config, protocol, events):
    mee = build_machine(config, protocol).mee
    ref = ReferenceMEE(config, protocol)
    cycles = 0
    for kind, page, far, block in events:
        # Nearby pages share upper tree nodes; ``far`` strides across
        # AMNT regions, so a fast set sees more regions than it holds.
        addr = (page * 37 + far * 997) * 4096 % config.pcm.capacity_bytes
        addr += block * 64
        if kind == READ:
            cycles += mee.read_block(addr)
        else:
            cycles += mee.write_block(addr, fenced=kind == FENCED)
        ref.event(kind, addr)
    assert cycles == ref.cycles
    assert engine_counts(mee) == reference_counts(ref)


@settings(max_examples=30, deadline=None)
@given(
    configs,
    protocols,
    st.lists(st.tuples(st.integers(0, 63), st.booleans(), st.booleans()),
             min_size=1, max_size=150),
    st.sampled_from([0, 2]),
)
def test_plan_replay_matches_reference(config, protocol, records, scatter):
    trace = Trace("random", [
        MemoryAccess(vaddr=page * 4096 + 64 * (page % 7), is_write=write,
                     pid=1, think_cycles=3, flush=write and flush)
        for page, write, flush in records
    ])
    # A scattered allocator spreads the pages across AMNT regions.
    stream_spec = boundary_stream_spec(
        literal_spec(trace), config, seed=5, scatter_span_chunks=scatter
    )
    stream, plan = materialize_compiled(stream_spec, config, cache=False)
    machine = build_machine(config, protocol, seed=5)
    result = simulate_from_plan(stream, plan, machine.mee)
    ref = ReferenceMEE(config, protocol)
    for kind, addr in zip(stream.kind, stream.addr):
        ref.event(kind, addr)
    llc = config.llc.access_latency_cycles
    assert result.cycles == stream.think_total + stream.accesses * llc + ref.cycles
    assert engine_counts(machine.mee) == reference_counts(ref)
