"""SCM endurance accounting."""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.mem.backend import MetadataRegion
from repro.mem.wear import WearTracker, attach_wear_tracking
from repro.util.units import MB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def tracked_engine(config, protocol):
    mee = MemoryEncryptionEngine(config, make_protocol(protocol, config))
    return mee, attach_wear_tracking(mee)


class TestTracker:
    def test_counts_per_line(self):
        tracker = WearTracker()
        tracker.record(MetadataRegion.TREE, (2, 0))
        tracker.record(MetadataRegion.TREE, (2, 0))
        tracker.record(MetadataRegion.DATA, 5)
        report = tracker.report()
        assert report.writes_by_region == {"tree": 2, "data": 1}
        assert report.hottest_line_writes == 2
        assert report.hottest_line == ("tree", (2, 0))
        assert report.distinct_lines_written == 2

    def test_empty_report(self):
        report = WearTracker().report()
        assert report.total_writes == 0
        assert report.write_amplification() is None
        assert report.hotspot_factor() == 0.0

    def test_hottest_lines_listing(self):
        tracker = WearTracker()
        for _ in range(3):
            tracker.record(MetadataRegion.COUNTERS, 7)
        tracker.record(MetadataRegion.COUNTERS, 8)
        top = tracker.hottest_lines(top=1)
        assert top == [(("counters", 7), 3)]


class TestProtocolWearProfiles:
    def hammer(self, mee, writes=200, pages=16):
        for i in range(writes):
            mee.write_block((i % pages) * 4096)

    def test_strict_concentrates_wear_on_upper_tree(self, config):
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee)
        report = tracker.report()
        # The hottest line is a tree node rewritten on every write...
        assert report.hottest_line[0] == "tree"
        assert report.hottest_line_writes == 200
        # ...a severe wear hotspot.
        assert report.hotspot_factor() > 3.0

    def test_leaf_spreads_wear(self, config):
        strict_mee, strict_tracker = tracked_engine(config, "strict")
        leaf_mee, leaf_tracker = tracked_engine(config, "leaf")
        self.hammer(strict_mee)
        self.hammer(leaf_mee)
        strict_report = strict_tracker.report()
        leaf_report = leaf_tracker.report()
        assert (
            leaf_report.write_amplification()
            < strict_report.write_amplification()
        )
        assert leaf_report.total_writes < strict_report.total_writes

    def test_amnt_wear_tracks_leaf_inside_subtree(self, config):
        amnt_mee, amnt_tracker = tracked_engine(config, "amnt")
        leaf_mee, leaf_tracker = tracked_engine(config, "leaf")
        self.hammer(amnt_mee, writes=400)
        self.hammer(leaf_mee, writes=400)
        amnt_amp = amnt_tracker.report().write_amplification()
        leaf_amp = leaf_tracker.report().write_amplification()
        # The first selection interval is strict; after that AMNT pays
        # leaf-level amplification, so totals converge toward leaf's.
        assert amnt_amp < 2 * leaf_amp

    def test_lifetime_math(self, config):
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee, writes=100)
        report = tracker.report()
        assert report.lifetime_fraction_consumed(endurance=1000) == (
            pytest.approx(0.1)
        )

    def test_write_amplification_matches_result_metric(self, config):
        """The tracker's amplification agrees with the NVM-stats-based
        metric on SimulationResult."""
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee, writes=150)
        report = tracker.report()
        data = mee.nvm.stats.get("writes.data")
        total = mee.nvm.stats.get("writes.total")
        assert report.write_amplification() == pytest.approx(
            (total - data) / data
        )


class TestSimulatedWear:
    def test_tracking_storage_trace_keeps_cycles_and_counts_fenced_writes(self):
        """Storage apps issue fenced writes (CLWB + sfence); the wear
        wrapper must forward ``fenced`` and leave timing untouched."""
        from repro.sim.engine import simulate
        from repro.sim.machine import build_machine
        from repro.sim.replay import EVENT_PERSIST, compile_boundary_stream
        from repro.workloads.storage import (
            generate_storage_trace,
            storage_profile,
        )

        config = default_config()
        trace = generate_storage_trace(
            storage_profile("kvstore"), seed=1, accesses=2000
        )
        untracked = simulate(build_machine(config, "strict", seed=1), trace, seed=1)
        machine = build_machine(config, "strict", seed=1)
        tracker = attach_wear_tracking(machine.mee)
        tracked = simulate(machine, trace, seed=1)

        assert tracked.cycles == untracked.cycles
        assert tracked == untracked
        fenced = list(compile_boundary_stream(trace, config, seed=1).kind).count(
            EVENT_PERSIST
        )
        assert fenced > 0
        data_writes = tracker.report().writes_by_region["data"]
        assert data_writes == machine.mee.nvm.stats.get("writes.data")
        assert data_writes >= fenced

    @pytest.mark.parametrize("protocol", ["strict", "anubis", "amnt"])
    def test_plan_replay_tracks_the_same_writes_as_simulate(self, protocol):
        """Wear is recorded in the MEE's event loop, so the compiled-plan
        driver, which never calls ``write_block``, counts data writes
        exactly as the direct one does."""
        from repro.sim.engine import simulate, simulate_from_plan
        from repro.sim.machine import build_machine
        from repro.sim.plan import compile_metadata_plan
        from repro.sim.replay import compile_boundary_stream
        from repro.workloads.storage import (
            generate_storage_trace,
            storage_profile,
        )

        config = default_config()
        trace = generate_storage_trace(
            storage_profile("kvstore"), seed=1, accesses=2000
        )
        stream = compile_boundary_stream(trace, config, seed=1)
        plan = compile_metadata_plan(stream, config)

        direct_machine = build_machine(config, protocol, seed=1)
        direct = attach_wear_tracking(direct_machine.mee)
        simulate(direct_machine, trace, seed=1)
        planned_machine = build_machine(config, protocol, seed=1)
        planned = attach_wear_tracking(planned_machine.mee)
        simulate_from_plan(stream, plan, planned_machine.mee)

        direct_report = direct.report()
        assert direct_report.writes_by_region["data"] > 0
        assert (
            planned.report().writes_by_region == direct_report.writes_by_region
        )
        assert planned.report() == direct_report
