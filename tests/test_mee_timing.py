"""The MEE's timing behaviour: cache walks, fills, write paths."""

import pytest

from repro.cache.cache import _MIX_MEMO
from repro.cache.metadata_cache import counter_key, hmac_key, node_key
from repro.config import default_config
from repro.core import mee as mee_module
from repro.core.mee import MemoryEncryptionEngine, resolve_record
from repro.core.protocol import make_protocol
from repro.errors import PowerFailure
from repro.mem.backend import MetadataRegion
from repro.sim.engine import share_residency, simulate_from_plan
from repro.sim.machine import build_engine
from repro.sim.replay import compile_trace
from repro.util.units import MB
from repro.workloads.storage import generate_storage_trace, storage_profile


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def engine_for(config, name="volatile"):
    return MemoryEncryptionEngine(config, make_protocol(name, config))


class TestReadPath:
    def test_cold_read_fetches_full_path(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        # data + counter + every node level + hmac line.
        levels = mee.geometry.num_node_levels
        assert mee.nvm.reads(MetadataRegion.DATA) == 1
        assert mee.nvm.reads(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.reads(MetadataRegion.TREE) == levels
        assert mee.nvm.reads(MetadataRegion.HMACS) == 1

    def test_warm_read_stops_at_cached_node(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        tree_reads = mee.nvm.reads(MetadataRegion.TREE)
        mee.read_block(64)  # same page: counter + path all cached
        assert mee.nvm.reads(MetadataRegion.TREE) == tree_reads

    def test_sibling_page_shares_upper_path(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        tree_reads = mee.nvm.reads(MetadataRegion.TREE)
        mee.read_block(8 * 4096)  # different leaf parent, shared upper
        assert mee.nvm.reads(MetadataRegion.TREE) == tree_reads + 1

    def test_read_returns_positive_cycles(self, config):
        mee = engine_for(config)
        assert mee.read_block(0) >= mee.nvm.read_latency_cycles

    def test_walk_stop_stats(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        mee.read_block(64)
        assert mee.stats.get("walk_stopped_at_cache") == 1


class TestWritePath:
    def test_write_dirties_counter_hmac_and_path(self, config):
        mee = engine_for(config)  # volatile: nothing persists
        mee.write_block(0)
        assert mee.mdcache.is_dirty(counter_key(0))
        assert mee.mdcache.is_dirty(hmac_key(0))
        for node in mee.geometry.ancestors_of_counter(0):
            assert mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_volatile_write_never_persists(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.persists() == 0

    def test_data_write_reaches_nvm(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.nvm.writes(MetadataRegion.DATA) == 1

    def test_dirty_eviction_writes_back(self, config):
        mee = engine_for(config)
        capacity = mee.mdcache.capacity_lines()
        # Touch enough distinct pages to overflow the metadata cache.
        for page in range(capacity + 512):
            mee.write_block(page * 4096)
        assert mee.stats.get("metadata_writebacks") > 0
        assert mee.nvm.writes(MetadataRegion.COUNTERS) > 0


class TestPersistHelpers:
    def test_persist_counter_cleans_line(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        assert mee.mdcache.is_dirty(counter_key(0))
        cycles = mee.persist_counter_line(0)
        assert cycles == mee.nvm.write_latency_cycles
        assert not mee.mdcache.is_dirty(counter_key(0))
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1

    def test_persist_tree_node_cleans_line(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        node = mee.geometry.ancestors_of_counter(0)[0]
        mee.persist_tree_node(node)
        assert not mee.mdcache.is_dirty(node_key(node[0], node[1]))

    def test_persisting_absent_line_leaves_cache_untouched(self, config):
        mee = engine_for(config)
        mee.read_block(0)
        stats = mee.mdcache.stats
        before = {
            name: stats.get(name)
            for name in ("hits", "misses", "fills", "evictions")
        }
        occupancy = mee.mdcache.occupancy()
        far = mee.geometry.num_counter_blocks - 1
        mee.persist_counter_line(far)
        assert not mee.mdcache.contains(counter_key(far))
        assert mee.mdcache.occupancy() == occupancy
        assert {name: stats.get(name) for name in before} == before
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1

    def test_persist_leaf_charges_overlapped_pair(self, config):
        mee = engine_for(config)
        mee.write_block(4096 + 3 * 64)
        block = (4096 + 3 * 64) // 64
        assert mee.mdcache.is_dirty(counter_key(1))
        assert mee.mdcache.is_dirty(hmac_key(block // 8))
        cycles = mee.persist_leaf(1, block)
        assert cycles == mee.nvm.write_latency_cycles + mee.posted_write_cycles
        assert mee.nvm.persists(MetadataRegion.COUNTERS) == 1
        assert mee.nvm.persists(MetadataRegion.HMACS) == 1
        assert not mee.mdcache.is_dirty(counter_key(1))
        assert not mee.mdcache.is_dirty(hmac_key(block // 8))

    def test_posted_write_cheaper_than_persist(self, config):
        mee = engine_for(config)
        assert 0 < mee.posted_write_cycles < mee.nvm.write_latency_cycles

    def test_persist_path_runs_in_order_at_full_latency(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        order = []
        mee.wear_tracker = WriteLog(order)
        path = mee.geometry.ancestors_of_counter(0)
        nodes = [path[2], path[0], path[-1]]
        cycles = mee.persist_path(nodes)
        assert cycles == len(nodes) * mee.nvm.write_latency_cycles
        assert order == [("line", node_key(*node)) for node in nodes]
        assert mee.nvm.persists(MetadataRegion.TREE) == len(nodes)
        assert mee.persist_path([]) == 0

    def test_persist_path_cleans_resident_and_skips_absent(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        path = mee.geometry.ancestors_of_counter(0)
        far = mee.geometry.ancestors_of_counter(
            mee.geometry.num_counter_blocks - 1
        )[0]
        occupancy = mee.mdcache.occupancy()
        mee.persist_path(path + [far])
        for node in path:
            key = node_key(*node)
            assert mee.mdcache.contains(key)
            assert not mee.mdcache.is_dirty(key)
        assert not mee.mdcache.contains(node_key(*far))
        assert mee.mdcache.occupancy() == occupancy

    def test_persist_path_fires_phase_before_each_persist(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        events = []
        mee.fault_probe = ProbeLog(events)
        path = mee.geometry.ancestors_of_counter(0)
        mee.persist_path(path, "strict_write_through")
        assert events == [
            ("phase", "strict_write_through"),
            ("persist",),
        ] * len(path)
        events.clear()
        mee.persist_path(path)
        assert events == [("persist",)] * len(path)

    def test_persist_path_equals_a_persist_tree_node_loop(self, config):
        pathwise, nodewise = engine_for(config), engine_for(config)
        for mee in (pathwise, nodewise):
            for page in (0, 9, 70):
                mee.write_block(page * 4096)
        nodes = pathwise.geometry.ancestors_of_counter(9)
        nodes = nodes + pathwise.geometry.ancestors_of_counter(70)[:2]
        cycles = pathwise.persist_path(nodes)
        assert cycles == sum(nodewise.persist_tree_node(node) for node in nodes)
        assert pathwise.nvm.stats.snapshot() == nodewise.nvm.stats.snapshot()
        assert (
            pathwise.mdcache.stats.snapshot() == nodewise.mdcache.stats.snapshot()
        )
        assert list(pathwise.mdcache._cache.lines()) == list(
            nodewise.mdcache._cache.lines()
        )

    @pytest.mark.parametrize("upto", [0, 1, 3, None])
    def test_persist_path_upto_equals_the_sliced_list(self, config, upto):
        prefixed, sliced = engine_for(config), engine_for(config)
        for mee in (prefixed, sliced):
            for page in (0, 9, 70):
                mee.write_block(page * 4096)
        path = prefixed.record_of(9 * 4096)[5]
        cycles = prefixed.persist_path(path, upto=upto)
        assert cycles == sliced.persist_path(list(path[:upto]))
        assert prefixed.nvm.stats.snapshot() == sliced.nvm.stats.snapshot()
        assert list(prefixed.mdcache._cache.lines()) == list(
            sliced.mdcache._cache.lines()
        )
        assert cycles == len(path[:upto]) * prefixed.nvm.write_latency_cycles

    def test_record_path_resolves_no_node(self, config, monkeypatch):
        mee = engine_for(config)
        mee.write_block(0)
        calls = count_node_triple_calls(monkeypatch)
        path = mee.record_of(0)[5]
        mee.persist_path(path)
        mee.persist_path(path, "strict_write_through", upto=2)
        assert calls == []
        assert mee.nvm.persists(MetadataRegion.TREE) == len(path) + 2

    def test_caller_built_list_falls_back_to_node_triple(self, config, monkeypatch):
        mee = engine_for(config)
        mee.write_block(0)
        calls = count_node_triple_calls(monkeypatch)
        path = mee.record_of(0)[5]
        nodes = list(path)  # equal to the record's path, but not it
        mee.persist_path(nodes)
        assert calls == nodes
        for node in nodes:
            assert not mee.mdcache.is_dirty(node_key(*node))
        assert mee.nvm.persists(MetadataRegion.TREE) == len(nodes)

    def test_probe_raising_mid_write_charges_the_lines_before_it(self, config):
        """A strict write persists its counter, its HMAC line and then
        its path: a crash in the k-th persist window leaves exactly the
        k - 1 lines before it written and charged."""
        levels = engine_for(config).geometry.num_node_levels
        kinds = [MetadataRegion.COUNTERS, MetadataRegion.HMACS]
        kinds += [MetadataRegion.TREE] * levels
        for k in range(1, len(kinds) + 1):
            mee = engine_for(config, "strict")
            mee.fault_probe = CrashAtWindow(k)
            with pytest.raises(PowerCut):
                mee.write_block(0)
            written = kinds[: k - 1]
            for region in (
                MetadataRegion.COUNTERS,
                MetadataRegion.HMACS,
                MetadataRegion.TREE,
            ):
                assert mee.nvm.persists(region) == written.count(region), k
            assert mee.nvm.persists() == k - 1
            # The data write itself went out before the persists.
            assert mee.nvm.writes() == k

    def test_grouped_and_solo_replays_persist_alike(self):
        """A fenced storage trace, replayed by protocols that persist
        their records' paths (whole, or a prefix), persists the same
        lines per region whether its engines share residency or not."""
        config = default_config(capacity_bytes=64 * MB)
        names = ("strict", "bmf", "triad", "plp", "amnt")
        trace = generate_storage_trace(
            storage_profile("kvstore"), seed=5, accesses=1500
        )
        stream, plan = compile_trace(trace, config, seed=5)

        def persists(grouped):
            engines = [build_engine(config, name) for name in names]
            if grouped:
                assert share_residency(engines) is not None
            return [
                {
                    name: value
                    for name, value in simulate_from_plan(
                        stream, plan, mee
                    ).nvm_stats.items()
                    if name.startswith("nvm.persists.")
                }
                for mee in engines
            ]

        solo = persists(grouped=False)
        assert persists(grouped=True) == solo
        for name, counts in zip(names, solo):
            assert counts["nvm.persists.counters"] > 0, name
            assert counts["nvm.persists.tree"] > 0, name


def count_node_triple_calls(monkeypatch):
    """Log every node :func:`repro.core.mee.node_triple` resolves."""
    calls = []
    resolve = mee_module.node_triple

    def logged(node):
        calls.append(node)
        return resolve(node)

    monkeypatch.setattr(mee_module, "node_triple", logged)
    return calls


class PowerCut(Exception):
    """The crash :class:`CrashAtWindow` injects."""


class CrashAtWindow:
    """A fault probe that cuts power (``error``) in its k-th persist
    window."""

    def __init__(self, k, error=PowerCut):
        self.remaining = k
        self.error = error

    def begin_group(self):
        pass

    def commit_group(self):
        pass

    def on_phase(self, name):
        pass

    def on_persist(self):
        self.remaining -= 1
        if self.remaining == 0:
            raise self.error


class WriteLog:
    """A wear tracker that logs the metadata lines written, in order."""

    def __init__(self, log):
        self.log = log

    def record_line(self, key):
        self.log.append(("line", key))


class ProbeLog:
    """A fault probe that logs phase and persist-window announcements."""

    def __init__(self, log):
        self.log = log

    def on_phase(self, name):
        self.log.append(("phase", name))

    def on_persist(self):
        self.log.append(("persist",))


class TestPathMemo:
    def test_ancestor_path_memoized(self, config):
        mee = engine_for(config)
        first = resolve_record(mee.geometry, 5, 40)
        assert resolve_record(mee.geometry, 5, 40) is first
        # Sibling counters share one ancestor chain object.
        sibling = resolve_record(mee.geometry, 4, 32)
        assert sibling[4] is first[4] and sibling[5] is first[5]

    def test_records_leave_the_mix_memo_alone(self, config):
        """Records and node triples take their mixes in closed form, so
        resolving one puts none of its keys in the process-wide memo."""
        mee = engine_for(config)
        record = resolve_record(mee.geometry, 4093, 32745)
        _, node, _ = mee_module.node_triple((9, 987654))
        for key in (record[0], record[2], node):
            assert key not in _MIX_MEMO

    def test_path_matches_geometry(self, config):
        mee = engine_for(config)
        record = resolve_record(mee.geometry, 5, 40)
        path = mee.geometry.ancestors_of_counter(5)
        assert record[5] == path
        assert [node for node, _, _ in record[4]] == path


class TestCrash:
    def test_crash_empties_volatile_structures(self, config):
        mee = engine_for(config)
        mee.write_block(0)
        mee.crash()
        assert mee.mdcache.occupancy() == 0
        assert mee.stats.get("crashes") == 1


class TestCallTallies:
    """The event loop counts per call and adds to the shared counters
    once, when the call ends, even when a power failure ends it."""

    #: 40 events over 13 pages: reads at i % 3 == 0, posted writes at
    #: 1, fenced writes at 2.
    EVENTS = [(i % 3, (i * 7 % 13) * 4096 + (i % 5) * 64) for i in range(40)]

    @staticmethod
    def counts(mee):
        return (
            mee.stats.snapshot(),
            mee.mdcache.stats.snapshot(),
            mee.nvm.stats.snapshot(),
        )

    def test_a_crash_mid_call_leaves_the_per_event_counts(self, config):
        """A strict write persists 2 + levels lines; a crash in the 3rd
        persist window of the 6th write (event 8) cuts one multi-event
        call. Its counts equal those of the same events run one per
        call up to the crash, and the events that ran."""
        levels = engine_for(config).geometry.num_node_levels
        window = 5 * (2 + levels) + 3

        def crashed(per_event):
            mee = engine_for(config, "strict")
            events = [(kind, addr, mee.record_of(addr)) for kind, addr in self.EVENTS]
            mee.fault_probe = CrashAtWindow(window, PowerFailure("persist_window"))
            ran = 0
            with pytest.raises(PowerFailure):
                if per_event:
                    for event in events:
                        ran += 1
                        mee.run_events((event,))
                else:
                    mee.run_events(events)
            return mee, ran

        whole, _ = crashed(per_event=False)
        single, ran = crashed(per_event=True)
        assert ran == 9
        assert self.counts(whole) == self.counts(single)
        # Events 0-8 ran: reads 0, 3, 6 and writes 1, 2, 4, 5, 7, 8; the
        # crashing write sent its data block before its persists.
        assert whole.stats.get("data_reads") == 3
        assert whole.stats.get("data_writes") == 6
        assert whole.nvm.reads(MetadataRegion.DATA) == 3
        assert whole.nvm.writes(MetadataRegion.DATA) == 6
        md = whole.mdcache.stats
        assert md.get("hits") + md.get("misses") > 0
        assert whole.nvm.reads() == 3 + md.get("misses")
