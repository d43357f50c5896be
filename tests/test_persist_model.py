"""The WPQ persistence model: queue semantics, scheduler deferral
edges, and write-through equivalence (see docs/FAULTS.md)."""

import pytest

from repro.config import (
    ConfigValidationError,
    default_config,
    validate_persist_model,
)
from repro.errors import PowerFailure
from repro.faults import (
    PHASE_MDCACHE_EVICTION,
    PHASE_PERSIST_WINDOW,
    CrashScheduler,
    CrashTrigger,
    trigger_catalog,
)
from repro.faults.campaign import default_fault_config
from repro.mem.backend import MetadataRegion, SparseMemory
from repro.mem.nvm import PendingSparseMemory, WritePendingQueue
from repro.sim.engine import drive_memory_boundary, simulate
from repro.sim.machine import build_machine
from repro.sim.runner import FIGURE_PROTOCOLS
from repro.util.units import MB
from repro.workloads.registry import materialize_trace, profile_spec

SEED = 2024
SMALL = profile_spec("faults", "hotshift", 300, SEED)

DATA = MetadataRegion.DATA
COUNTERS = MetadataRegion.COUNTERS


class TestWritePendingQueue:
    def test_record_and_drain(self):
        wpq = WritePendingQueue()
        wpq.record(DATA, 1, False, None, b"a" * 8)
        wpq.record(DATA, 2, True, b"x" * 8, b"b" * 8)
        assert wpq.depth() == 2
        assert wpq.drain() == 2
        assert wpq.depth() == 0
        assert wpq.drains == 1

    def test_same_epoch_stores_write_combine(self):
        wpq = WritePendingQueue()
        wpq.record(DATA, 1, False, None, b"a" * 8)
        wpq.record(DATA, 1, True, b"a" * 8, b"b" * 8)
        (line,) = wpq.freeze()
        # One version, the newest value, the *first* store's pre-image.
        assert line.versions == [(0, b"b" * 8)]
        assert not line.existed
        assert line.original is None

    def test_fence_opens_a_new_epoch_only_when_dirty(self):
        wpq = WritePendingQueue()
        wpq.fence()
        wpq.fence()
        assert wpq.epoch == 0  # nothing staged: no ordering to record
        wpq.record(DATA, 1, False, None, b"a" * 8)
        wpq.fence()
        assert wpq.epoch == 1
        wpq.record(DATA, 1, True, b"a" * 8, b"b" * 8)
        (line,) = wpq.freeze()
        assert [epoch for epoch, _ in line.versions] == [0, 1]

    def test_auto_drain_empties_at_every_fence(self):
        wpq = WritePendingQueue(auto_drain=True)
        wpq.record(DATA, 1, False, None, b"a" * 8)
        wpq.fence()
        assert wpq.depth() == 0

    def test_freeze_stops_recording(self):
        wpq = WritePendingQueue()
        wpq.record(DATA, 1, False, None, b"a" * 8)
        assert len(wpq.freeze()) == 1
        wpq.record(DATA, 2, False, None, b"b" * 8)
        assert wpq.depth() == 1  # the post-freeze store was not journaled


class TestPendingSparseMemory:
    def test_stores_write_through_and_journal(self):
        wpq = WritePendingQueue()
        memory = PendingSparseMemory(wpq)
        memory.write(DATA, 7, b"new" + bytes(61))
        # The store is immediately visible (write-through reads) ...
        assert memory.read(DATA, 7, 64)[:3] == b"new"
        # ... and journaled with its pre-image for rollback.
        (line,) = wpq.freeze()
        assert (line.region, line.key) == (DATA, 7)
        assert not line.existed

    def test_wrap_shares_existing_contents(self):
        plain = SparseMemory()
        plain.write(COUNTERS, 3, b"c" * 64)
        wrapped = PendingSparseMemory.wrap(plain, WritePendingQueue())
        assert wrapped.read(COUNTERS, 3, 64) == b"c" * 64
        assert wrapped.contains(COUNTERS, 3)


class TestPersistModelConfig:
    def test_validate_rejects_unknown_model(self):
        with pytest.raises(ConfigValidationError):
            validate_persist_model("write-behind")

    def test_config_field_validated(self):
        from dataclasses import replace

        config = default_config(capacity_bytes=16 * MB)
        assert config.persist_model == "writethrough"
        with pytest.raises(ConfigValidationError):
            replace(config, persist_model="nope")

    def test_wpq_machine_attaches_queue_functional_only(self):
        config = default_fault_config(
            capacity_bytes=16 * MB, persist_model="wpq"
        )
        functional = build_machine(config, "amnt", functional=True, seed=SEED)
        assert functional.mee.nvm.wpq is not None
        assert isinstance(functional.mee.nvm.backend, PendingSparseMemory)
        timing = build_machine(config, "amnt", functional=False, seed=SEED)
        assert timing.mee.nvm.wpq is None


class TestSchedulerGroupEdges:
    """Persist-group deferral boundaries (and the nested-group fix)."""

    def test_nested_group_commit_does_not_release_deferred_crash(self):
        # Regression: an inner begin/commit pair used to reset the
        # outer group's state, releasing the deferred crash early.
        scheduler = CrashScheduler(
            CrashTrigger("phase", 1, PHASE_MDCACHE_EVICTION)
        )
        scheduler.on_access(0)
        scheduler.begin_group()
        scheduler.on_phase(PHASE_MDCACHE_EVICTION)  # deferred
        scheduler.begin_group()
        scheduler.commit_group()  # inner commit: still inside the group
        assert scheduler.fired is None
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.commit_group()  # outer commit releases it
        assert excinfo.value.write_committed
        assert not excinfo.value.in_group

    def test_access_trigger_on_first_access_of_group(self):
        # on_access fires before the write's group opens: the crash
        # lands at the access boundary, outside any group.
        scheduler = CrashScheduler(CrashTrigger("access", 0))
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.on_access(0)
        assert not excinfo.value.write_committed
        assert not excinfo.value.in_group

    def test_deferred_crash_fires_at_commit_not_later(self):
        scheduler = CrashScheduler(
            CrashTrigger("phase", 1, PHASE_PERSIST_WINDOW)
        )
        scheduler.on_access(0)
        scheduler.begin_group()
        scheduler.on_persist()  # occurrence 1, deferred
        assert scheduler.fired is None
        with pytest.raises(PowerFailure):
            scheduler.commit_group()

    def test_back_to_back_groups_do_not_leak_deferral(self):
        # A committed first group must not mark the second group's
        # window as already-committed (or vice versa).
        scheduler = CrashScheduler(
            CrashTrigger("phase", 2, PHASE_PERSIST_WINDOW)
        )
        scheduler.on_access(0)
        scheduler.begin_group()
        scheduler.on_persist()  # occurrence 1: not the trigger
        scheduler.commit_group()
        scheduler.on_access(1)
        scheduler.begin_group()
        scheduler.on_persist()  # occurrence 2: deferred in group 2
        assert scheduler.fired is None
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.commit_group()
        assert excinfo.value.access_index == 1
        assert excinfo.value.write_committed

    def test_persist_window_kind_fires_inside_group_undeferred(self):
        scheduler = CrashScheduler(CrashTrigger("persist-window", 1))
        scheduler.on_access(0)
        scheduler.begin_group()
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.on_persist()
        assert not excinfo.value.write_committed
        assert excinfo.value.in_group
        assert excinfo.value.phase == PHASE_PERSIST_WINDOW

    def test_catalog_lists_all_three_kinds(self):
        kinds = [kind for kind, _, _ in trigger_catalog()]
        assert kinds == ["access", "phase", "persist-window"]
        for kind, example, description in trigger_catalog():
            assert example and description


def _functional_run(persist_model, protocol, auto_drain=False):
    config = default_fault_config(
        capacity_bytes=16 * MB, persist_model=persist_model
    )
    machine = build_machine(config, protocol, functional=True, seed=SEED)
    if auto_drain and machine.mee.nvm.wpq is not None:
        machine.mee.nvm.wpq.auto_drain = True
    record = drive_memory_boundary(
        machine, materialize_trace(SMALL), seed=SEED
    )
    return machine, record


def _image_of(machine):
    backend = machine.mee.nvm.backend
    return {
        region: dict(backend._region(region)) for region in MetadataRegion
    }


class TestWriteThroughEquivalence:
    """WPQ with a full drain at every fence == write-through, for every
    figure protocol, functionally and in timing."""

    @pytest.mark.parametrize("protocol", FIGURE_PROTOCOLS)
    def test_functional_state_bit_identical(self, protocol):
        base_machine, base_record = _functional_run("writethrough", protocol)
        wpq_machine, wpq_record = _functional_run(
            "wpq", protocol, auto_drain=True
        )
        assert wpq_record.golden == base_record.golden
        assert wpq_record.accesses_completed == base_record.accesses_completed
        assert _image_of(wpq_machine) == _image_of(base_machine)

    @pytest.mark.parametrize("protocol", ("amnt", "strict"))
    def test_timing_results_bit_identical(self, protocol):
        results = []
        for persist_model in ("writethrough", "wpq"):
            config = default_fault_config(
                capacity_bytes=16 * MB, persist_model=persist_model
            )
            machine = build_machine(
                config, protocol, functional=False, seed=SEED
            )
            results.append(
                simulate(machine, materialize_trace(SMALL), seed=SEED)
            )
        base, wpq = results
        assert wpq.cycles == base.cycles
        assert wpq.nvm_stats == base.nvm_stats
        assert wpq.protocol_stats == base.protocol_stats

    def test_commit_drain_model_matches_writethrough_when_uncrashed(self):
        # The real (non-auto-drain) model drains at persist-group
        # commits; an uncrashed run must still end bit-identical.
        base_machine, base_record = _functional_run("writethrough", "amnt")
        wpq_machine, wpq_record = _functional_run("wpq", "amnt")
        assert wpq_record.golden == base_record.golden
        assert _image_of(wpq_machine) == _image_of(base_machine)
        assert wpq_machine.mee.nvm.wpq.drains > 0
