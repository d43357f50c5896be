"""Replay groups: anchorless protocols share one metadata-cache residency.

A protocol without NV anchors keeps the base, empty ``trusted_nodes()``:
its reads climb to a cache hit and its writes update the whole path.
It differs from the others only in which dirty lines it writes through.
The first test states that relation on solo engines, with no replay
group involved: on any event list the seven such protocols leave the
same hits, misses, fills and evictions, and the same lines in the same
LRU order. The rest check the group that relies on it against solo
replays of the same stream, and the direct path's groups, which share
one data-side walk, against solo direct runs.
"""

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DataCacheConfig, MetadataCacheConfig, default_config
from repro.core.mee import MemoryEncryptionEngine, ReplayGroup
from repro.core.protocol import (
    make_protocol,
    protocol_names,
    protocol_shares_residency,
)
from repro.errors import SimulationError
from repro.sim import parallel
from repro.sim.engine import share_residency, simulate_from_plan
from repro.sim.machine import build_data_side, build_machine
from repro.sim.parallel import ParallelSweepRunner, SweepCell, run_cell
from repro.sim.replay import compile_trace
from repro.util.units import KB, MB
from repro.workloads.parsec import MULTIPROGRAM_PAIRS
from repro.workloads.registry import (
    literal_spec,
    materialize_trace,
    multiprogram_spec,
    profile_spec,
    result_cache_clear,
)
from repro.workloads.storage import generate_storage_trace, storage_profile

#: The protocols without NV anchors, named here rather than derived.
ANCHORLESS = ("volatile", "leaf", "strict", "anubis", "osiris", "triad", "plp")

#: A 64 KB LLC lets data writes reach the MEE, and an 8 KB metadata
#: cache (16 sets) makes its evictions, dirty ones included, common.
CONFIG = replace(
    default_config(capacity_bytes=64 * MB),
    llc=DataCacheConfig(capacity_bytes=64 * KB, associativity=16),
    metadata_cache=MetadataCacheConfig(capacity_bytes=8 * KB),
)

#: (kind, page, block in page): a read, a posted or a fenced write.
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=300,
)


def test_anchorless_protocols_are_the_ones_that_share_residency():
    shared = {name for name in protocol_names() if protocol_shares_residency(name)}
    assert shared == set(ANCHORLESS)


@settings(max_examples=25, deadline=None)
@given(drawn=events)
def test_anchorless_protocols_see_one_residency(drawn):
    residencies = {}
    for name in ANCHORLESS:
        mee = MemoryEncryptionEngine(CONFIG, make_protocol(name, CONFIG))
        mee.run_events(
            [
                (kind, addr, mee.record_of(addr))
                for kind, addr in (
                    (kind, page * 4096 + block * 64) for kind, page, block in drawn
                )
            ]
        )
        cache = mee.mdcache._cache
        residencies[name] = (
            [cache.stats.get(stat) for stat in ("hits", "misses", "fills", "evictions")],
            [list(bucket) for bucket in cache._sets],
        )
    expected = residencies["volatile"]
    for name, residency in residencies.items():
        assert residency == expected, name


def _trace(source, seed):
    if source == "storage":
        return generate_storage_trace(
            storage_profile("kvstore"), seed=seed, accesses=1500
        )
    return materialize_trace(profile_spec("parsec", source, 1500, seed))


def _replay(names, stream, plan, seed, grouped):
    machines = [build_machine(CONFIG, name, seed=seed) for name in names]
    if grouped:
        engines = [machine.mee for machine in machines]
        assert share_residency(engines) is not None
    results = [
        simulate_from_plan(stream, plan, machine.mee) for machine in machines
    ]
    caches = [machine.mee.mdcache.stats.snapshot() for machine in machines]
    return results, caches


@settings(max_examples=15, deadline=None)
@given(
    source=st.sampled_from(("canneal", "bodytrack", "storage")),
    seed=st.integers(min_value=0, max_value=2**16),
    subset=st.lists(
        st.sampled_from(ANCHORLESS), min_size=2, max_size=7, unique=True
    ),
)
def test_group_replay_equals_solo_replays(source, seed, subset):
    stream, plan = compile_trace(_trace(source, seed), CONFIG, seed=seed)
    solo, solo_caches = _replay(subset, stream, plan, seed, grouped=False)
    grouped, grouped_caches = _replay(subset, stream, plan, seed, grouped=True)
    assert grouped == solo
    assert grouped_caches == solo_caches
    assert [result.to_json() for result in grouped] == [
        result.to_json() for result in solo
    ]


def test_group_replay_covers_dirty_evictions_and_fenced_writes():
    """The drawn cases above exercise the whole group datapath."""
    trace = _trace("storage", 7)
    stream, plan = compile_trace(trace, CONFIG, seed=7)
    assert 2 in stream.kind
    solo, solo_caches = _replay(ANCHORLESS, stream, plan, 7, grouped=False)
    grouped, grouped_caches = _replay(ANCHORLESS, stream, plan, 7, grouped=True)
    assert grouped == solo and grouped_caches == solo_caches
    dirty = {
        name: cache["mdcache.dirty_evictions"]
        for name, cache in zip(ANCHORLESS, solo_caches)
    }
    # Strict writes every line through; leaf leaves its tree nodes.
    assert dirty["volatile"] >= dirty["leaf"] > dirty["strict"] == 0


def test_group_set_values_are_member_masks():
    trace = _trace("storage", 3)
    stream, plan = compile_trace(trace, CONFIG, seed=3)
    machines = [build_machine(CONFIG, name, seed=3) for name in ANCHORLESS]
    group = share_residency([machine.mee for machine in machines])
    for machine in machines:
        simulate_from_plan(stream, plan, machine.mee)
    values = [
        value for bucket in group.mdcache._cache._sets for value in bucket.values()
    ]
    assert values
    assert all(
        isinstance(value, int) and 0 <= value <= group.all_members
        for value in values
    )
    # Some line is dirty for some members only: strict and plp write
    # every line through, volatile none.
    assert any(0 < value < group.all_members for value in values)
    # The members' own caches were left as built.
    for machine in machines:
        assert all(not bucket for bucket in machine.mee.mdcache._cache._sets)


class TestEligibility:
    def test_anchored_and_functional_engines_stay_solo(self):
        machines = [build_machine(CONFIG, name) for name in ("amnt", "bmf", "leaf")]
        engines = [machine.mee for machine in machines]
        assert share_residency(engines) is None
        functional = MemoryEncryptionEngine(
            CONFIG, make_protocol("leaf", CONFIG), functional=True
        )
        assert not functional.groupable
        with pytest.raises(SimulationError):
            ReplayGroup([functional])

    def test_a_probe_attached_after_forming_is_refused(self):
        machines = [build_machine(CONFIG, name) for name in ("leaf", "strict")]
        group = share_residency([machine.mee for machine in machines])
        machines[1].mee.wear_tracker = object()
        with pytest.raises(SimulationError):
            group.replay([])

    def test_members_need_one_config_and_one_stream(self):
        other = replace(CONFIG, metadata_cache=MetadataCacheConfig())
        engines = [
            MemoryEncryptionEngine(CONFIG, make_protocol("leaf", CONFIG)),
            MemoryEncryptionEngine(other, make_protocol("strict", other)),
        ]
        with pytest.raises(SimulationError):
            ReplayGroup(engines)
        first = compile_trace(_trace("storage", 1), CONFIG, seed=1)
        second = compile_trace(_trace("storage", 2), CONFIG, seed=2)
        machines = [build_machine(CONFIG, name) for name in ("leaf", "strict")]
        share_residency([machine.mee for machine in machines])
        simulate_from_plan(*first, machines[0].mee)
        with pytest.raises(SimulationError):
            simulate_from_plan(*second, machines[1].mee)


class TestPoolUnits:
    """A pool ships a replay group as one payload only while the grid
    keeps a payload for every worker that runs at once."""

    CELLS = [
        SweepCell(
            protocol=name,
            trace=profile_spec("parsec", "canneal", 400, 5),
            seed=5,
            replay=True,
        )
        for name in protocol_names()
    ]

    def _payload_sizes(self, monkeypatch, workers, cores):
        monkeypatch.setattr(parallel, "default_workers", lambda: cores)
        runner = parallel.ParallelSweepRunner(workers=workers)
        sizes = []

        def in_process(func, payloads):
            sizes.extend(len(cells) for cells, _ in payloads)
            return [func(payload) for payload in payloads]

        monkeypatch.setattr(runner, "map", in_process)
        results = runner._run_all(self.CELLS, CONFIG)
        assert results == [parallel.run_cell(cell, CONFIG) for cell in self.CELLS]
        return sorted(sizes)

    def test_groups_form_when_every_worker_keeps_a_unit(self, monkeypatch):
        # 11 cells: one group of the 7 anchorless protocols and 4 solos.
        assert self._payload_sizes(monkeypatch, 4, 4) == [1, 1, 1, 1, 7]
        # Workers beyond the usable cores do not run at once.
        assert self._payload_sizes(monkeypatch, 8, 2) == [1, 1, 1, 1, 7]

    def test_a_wide_pool_runs_every_cell_on_its_own(self, monkeypatch):
        assert self._payload_sizes(monkeypatch, 8, 8) == [1] * 11


def _direct_cells(source, seed, names):
    """Direct cells of ``names`` on a fenced storage trace, or on a
    co-running pair over a scattered allocator."""
    if source == "storage":
        spec, scatter = literal_spec(_trace("storage", seed)), 0
    else:
        spec = multiprogram_spec("parsec", MULTIPROGRAM_PAIRS[0], 750, seed)
        scatter = 8
    return [
        SweepCell(protocol=name, trace=spec, seed=seed, scatter_span_chunks=scatter)
        for name in names
    ]


def _grid_and_solo(cells):
    result_cache_clear()
    grid = ParallelSweepRunner(workers=1).run(cells, CONFIG)
    solo = [run_cell(cell, CONFIG) for cell in cells]
    return grid, solo


class TestDirectGroups:
    """Direct cells of one data side run as one group: one LLC and
    memory manager, walked once, and one metadata-cache residency."""

    @settings(max_examples=12, deadline=None)
    @given(
        source=st.sampled_from(("pair", "storage")),
        seed=st.integers(min_value=0, max_value=2**16),
        subset=st.lists(
            st.sampled_from(ANCHORLESS), min_size=2, max_size=7, unique=True
        ),
    )
    def test_a_direct_group_equals_solo_direct_runs(self, source, seed, subset):
        cells = _direct_cells(source, seed, subset)
        assert parallel._sweep_units(cells, CONFIG) == [list(range(len(cells)))]
        grid, solo = _grid_and_solo(cells)
        assert [result.to_json_dict() for result in grid] == [
            result.to_json_dict() for result in solo
        ]

    @pytest.mark.parametrize("source", ["pair", "storage"])
    def test_both_traces_reach_the_persist_paths(self, source):
        """The drawn cases above exercise dirty evictions and fenced
        writes: data writes reach the MEE, and on the storage trace
        strict, leaf and Anubis persist."""
        grid, solo = _grid_and_solo(_direct_cells(source, 11, ANCHORLESS))
        assert grid == solo
        results = dict(zip(ANCHORLESS, grid))
        assert results["volatile"].mee_stats["mee.data_writes"] > 0
        if source == "storage":
            for name, stat in (
                ("strict", "protocol.strict.write_through_paths"),
                ("leaf", "protocol.leaf.leaf_persists"),
                ("anubis", "protocol.anubis.shadow_fills"),
            ):
                assert results[name].protocol_stats[stat] > 0, name

    def test_a_direct_group_builds_one_data_side_and_does_not_pin_it(
        self, monkeypatch
    ):
        built = []

        def counted(*args, **kwargs):
            llc, mm = build_data_side(*args, **kwargs)
            built.append(weakref.ref(llc))
            return llc, mm

        monkeypatch.setattr(parallel, "build_data_side", counted)
        cells = _direct_cells("pair", 5, ANCHORLESS)
        # With the cyclic collector off, only reference counting frees
        # the LLC: the group (held by its engines' cycle) must not
        # refer to it.
        gc.disable()
        try:
            results = parallel._run_unit(cells, CONFIG)
            assert len(built) == 1
            assert built[0]() is None
        finally:
            gc.enable()
        assert len(results) == len(ANCHORLESS)


class TestUnits:
    """How ``_sweep_units`` partitions a grid."""

    SPEC = profile_spec("parsec", "canneal", 400, 5)

    def _cells(self, names, **fields):
        return [
            SweepCell(protocol=name, trace=self.SPEC, seed=5, **fields)
            for name in names
        ]

    def test_direct_and_replay_cells_form_separate_units(self):
        names = ("volatile", "leaf", "strict")
        direct = self._cells(names)
        replayed = self._cells(names, replay=True)
        mixed = [cell for pair in zip(direct, replayed) for cell in pair]
        assert parallel._sweep_units(mixed, CONFIG) == [[0, 2, 4], [1, 3, 5]]

    @pytest.mark.parametrize("replay", [False, True])
    def test_functional_and_anchored_cells_stay_alone(self, replay):
        names = ("volatile", "amnt", "leaf", "amnt++", "amnt-multi", "bmf")
        cells = self._cells(names, replay=replay)
        cells += self._cells(("strict",), functional=True, replay=replay)
        cells += self._cells(("strict",), replay=replay)
        assert parallel._sweep_units(cells, CONFIG) == [
            [0, 2, 7],
            [1],
            [3],
            [4],
            [5],
            [6],
        ]

    def test_a_stock_os_level_sweep_groups_where_data_side_and_config_agree(self):
        level3 = CONFIG.with_amnt(subtree_level=3)
        level4 = CONFIG.with_amnt(subtree_level=4)
        assert level3 == CONFIG  # the default level
        cells = [
            SweepCell("volatile", self.SPEC, seed=5),
            SweepCell("leaf", self.SPEC, seed=5, config=level3),
            SweepCell("amnt", self.SPEC, seed=5, config=level3),
            SweepCell("volatile", self.SPEC, seed=5, config=level4),
            SweepCell("leaf", self.SPEC, seed=5, config=level4),
            SweepCell("amnt", self.SPEC, seed=5, config=level4),
            # Same config, another data side (a scattered allocator).
            SweepCell("strict", self.SPEC, seed=5, scatter_span_chunks=4),
            SweepCell("anubis", self.SPEC, seed=5, scatter_span_chunks=4),
        ]
        # A stock-OS data side does not read the subtree level ...
        specs = {parallel.stream_spec_for(cell, CONFIG) for cell in cells[:6]}
        assert len(specs) == 1
        # ... but engines of one group share one config.
        assert parallel._sweep_units(cells, CONFIG) == [
            [0, 1],
            [2],
            [3, 4],
            [5],
            [6, 7],
        ]
        grid, solo = _grid_and_solo(cells)
        assert grid == solo


class TestJournaledSweep:
    """A journaled sweep ships the plain sweep's units."""

    def test_anchorless_protocols_of_a_stream_replay_as_one_group(
        self, tmp_path, monkeypatch
    ):
        from repro.sim.runner import FIGURE_PROTOCOLS, run_resilient_sweep

        groups = []

        def counted(engines):
            group = share_residency(engines)
            if group is not None:
                groups.append(
                    sorted(
                        mee.protocol.display_name
                        for mee in engines
                        if mee.groupable
                    )
                )
            return group

        monkeypatch.setattr(parallel, "share_residency", counted)
        outcome = run_resilient_sweep(
            tmp_path / "run",
            benchmarks=("blackscholes", "canneal"),
            accesses=300,
            seed=5,
        )
        assert outcome["completed"] == outcome["cells"] == 12
        anchorless = sorted(
            name for name in FIGURE_PROTOCOLS if protocol_shares_residency(name)
        )
        assert len(anchorless) == 4
        assert groups == [anchorless, anchorless]
