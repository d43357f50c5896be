"""Replay groups: anchorless protocols share one metadata-cache residency.

A protocol without NV anchors keeps the base, empty ``trusted_nodes()``:
its reads climb to a cache hit and its writes update the whole path.
It differs from the others only in which dirty lines it writes through.
The first test states that relation on solo engines, with no replay
group involved: on any event list the seven such protocols leave the
same hits, misses, fills and evictions, and the same lines in the same
LRU order. The rest check the group that relies on it against solo
replays of the same stream, and the direct path's units, which share
one recorded data-side walk whatever their protocols, against solo
direct runs.
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
from repro.sim import engine as engine_module
from repro.sim import machine as machine_module
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


@settings(max_examples=15, deadline=None)
@given(
    drawn=events,
    subset=st.lists(st.sampled_from(ANCHORLESS), min_size=2, max_size=7, unique=True),
)
def test_a_members_merged_counters_match_its_solo_run(drawn, subset):
    """The group counts data reads and writes, hits, walk stops and
    data-region NVM traffic once per call on its own counters, and
    merges them into every member: each member's registries then read
    what the same events give a solo engine of its protocol."""
    addrs = [(kind, page * 4096 + block * 64) for kind, page, block in drawn]

    def engines():
        return [
            MemoryEncryptionEngine(CONFIG, make_protocol(name, CONFIG))
            for name in subset
        ]

    def counts(mee):
        return [
            registry.snapshot()
            for registry in (
                mee.stats,
                mee.mdcache.stats,
                mee.nvm.stats,
                mee.protocol.stats,
            )
        ]

    solo = engines()
    for mee in solo:
        mee.run_events([(kind, addr, mee.record_of(addr)) for kind, addr in addrs])
    members = engines()
    group = ReplayGroup(members)
    group.replay([(kind, addr, members[0].record_of(addr)) for kind, addr in addrs])
    for name, member, alone in zip(subset, members, solo):
        assert counts(member) == counts(alone), name


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
    """A pool ships a replay group or a direct unit as one payload only
    while the grid keeps a payload for every worker that runs at once,
    and splits a direct unit over those workers."""

    CELLS = [
        SweepCell(
            protocol=name,
            trace=profile_spec("parsec", "canneal", 400, 5),
            seed=5,
            replay=True,
        )
        for name in protocol_names()
    ]

    def _payload_sizes(self, monkeypatch, workers, cores, cells=CELLS):
        monkeypatch.setattr(parallel, "default_workers", lambda: cores)
        runner = parallel.ParallelSweepRunner(workers=workers)
        sizes = []

        def in_process(func, payloads):
            sizes.extend(len(cells) for cells, _ in payloads)
            return [func(payload) for payload in payloads]

        monkeypatch.setattr(runner, "map", in_process)
        results = runner._run_all(cells, CONFIG)
        assert results == [parallel.run_cell(cell, CONFIG) for cell in cells]
        return sorted(sizes)

    def test_groups_form_when_every_worker_keeps_a_unit(self, monkeypatch):
        # 11 cells: one group of the 7 anchorless protocols and 4 solos.
        assert self._payload_sizes(monkeypatch, 4, 4) == [1, 1, 1, 1, 7]
        # Workers beyond the usable cores do not run at once.
        assert self._payload_sizes(monkeypatch, 8, 2) == [1, 1, 1, 1, 7]

    def test_a_wide_pool_runs_every_cell_on_its_own(self, monkeypatch):
        assert self._payload_sizes(monkeypatch, 8, 8) == [1] * 11

    def test_a_pool_splits_a_direct_unit_across_its_workers(self, monkeypatch):
        """A direct unit holds at most ``ceil(cells / width)`` cells."""
        # One pair's Figure 5 cells: six on the stock OS, then amnt++.
        names = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt", "amnt++")
        cells = _direct_cells("pair", 5, names)
        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        expected = {
            1: [[0, 1, 2, 3, 4, 5], [6]],
            2: [[0, 1, 2, 3], [4, 5], [6]],
            3: [[0, 1, 2], [3, 4, 5], [6]],
            4: [[0, 1], [2, 3], [4, 5], [6]],
            # Workers beyond the usable cores do not run at once.
            8: [[0, 1], [2, 3], [4, 5], [6]],
        }
        for workers, units in expected.items():
            assert parallel._sweep_units(cells, CONFIG, workers) == units
        assert self._payload_sizes(monkeypatch, 2, 4, cells) == [1, 2, 4]


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
    """Direct cells of one data side run as one unit: one LLC and
    memory manager, walked once into a recording that every engine
    runs, and one metadata-cache residency for the anchorless engines
    of one config."""

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

    def test_every_protocol_and_level_of_a_data_side_equals_lone_runs(self):
        """All registered protocols, AMNT at three more levels and a
        functional strict cell on one scattered pair trace: every
        stock-OS cell joins one unit, and each result equals the cell's
        own run."""
        cells = _direct_cells("pair", 7, protocol_names())
        assert len(cells) == 11
        (amnt,) = _direct_cells("pair", 7, ("amnt",))
        cells += [
            replace(amnt, config=CONFIG.with_amnt(subtree_level=level))
            for level in (2, 4, 5)
        ]
        strict = cells[protocol_names().index("strict")]
        cells.append(replace(strict, functional=True))
        # Names are sorted, so "amnt" leads and "amnt++" follows.
        modified = protocol_names().index("amnt++")
        assert modified == 1
        stock = [index for index in range(len(cells)) if index != modified]
        assert parallel._sweep_units(cells, CONFIG) == [stock, [modified]]
        grid, solo = _grid_and_solo(cells)
        assert [result.to_json_dict() for result in grid] == [
            result.to_json_dict() for result in solo
        ]

    @pytest.mark.parametrize(
        "names",
        [
            ANCHORLESS,
            ("bmf", "amnt", "amnt-multi"),
            ("amnt", "volatile", "bmf", "leaf"),
        ],
    )
    def test_a_unit_walks_and_builds_its_data_side_once(self, monkeypatch, names):
        walks, builds = [], []

        def counted_walk(*args, **kwargs):
            walks.append(args)
            return boundary_events(*args, **kwargs)

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        boundary_events = engine_module._boundary_events
        build = machine_module.build_data_side
        monkeypatch.setattr(engine_module, "_boundary_events", counted_walk)
        monkeypatch.setattr(machine_module, "build_data_side", counted_build)
        cells = _direct_cells("pair", 5, names)
        assert parallel._sweep_units(cells, CONFIG) == [list(range(len(cells)))]
        results = parallel._run_unit(cells, CONFIG)
        assert (len(walks), len(builds)) == (1, 1)
        assert results == [run_cell(cell, CONFIG) for cell in cells]
        # Each lone run streams its own walk of its own data side.
        assert (len(walks), len(builds)) == (1 + len(cells), 1 + len(cells))

    def test_a_direct_group_builds_one_data_side_and_does_not_pin_it(
        self, monkeypatch
    ):
        built, recorded = [], []

        def counted(*args, **kwargs):
            llc, mm = build_data_side(*args, **kwargs)
            built.append((weakref.ref(llc), weakref.ref(mm)))
            return llc, mm

        class Recording(list):
            """A recording that weak references can follow."""

        def spied(machine, trace, recording=None, **kwargs):
            # The unit's own list holds the one this spy hands on, so
            # that one lives exactly as long as the unit's.
            if not recording:
                recording.append(Recording())
                recorded.append(weakref.ref(recording[0]))
            return simulate(machine, trace, recording=recording[0], **kwargs)

        simulate = parallel.simulate
        monkeypatch.setattr(machine_module, "build_data_side", counted)
        monkeypatch.setattr(parallel, "simulate", spied)
        cells = _direct_cells("pair", 5, ANCHORLESS + ("bmf", "amnt"))
        # With the cyclic collector off, only reference counting frees
        # the data side: the group (held by its engines' cycle) must
        # refer to none of the recording, the LLC or the memory manager.
        gc.disable()
        try:
            results = parallel._run_unit(cells, CONFIG)
            assert len(built) == len(recorded) == 1
            assert [ref() for ref in (*built[0], recorded[0])] == [None] * 3
        finally:
            gc.enable()
        assert len(results) == len(cells)


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
        """Replay cells group only as a replay group, so functional and
        anchored ones stay alone. Direct cells join their data side's
        unit whatever their protocol: only ``amnt++``, on the modified
        OS, has a data side of its own."""
        names = ("volatile", "amnt", "leaf", "amnt++", "amnt-multi", "bmf")
        cells = self._cells(names, replay=replay)
        cells += self._cells(("strict",), functional=True, replay=replay)
        cells += self._cells(("strict",), replay=replay)
        if replay:
            expected = [[0, 2, 7], [1], [3], [4], [5], [6]]
        else:
            expected = [[0, 1, 2, 4, 5, 6, 7], [3]]
        assert parallel._sweep_units(cells, CONFIG) == expected

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
        # ... so its direct cells share one unit at every level, and
        # within it only the engines of one config share residency.
        assert parallel._sweep_units(cells, CONFIG) == [
            [0, 1, 2, 3, 4, 5],
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
