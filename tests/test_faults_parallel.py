"""Serial vs. parallel fault campaigns must be bit-identical.

Mirrors ``test_parallel.py``: every cell outcome is a pure function of
*(spec, config)*, so a campaign fanned out over pool workers has to
reproduce the serial run cell for cell — same verdicts, same golden
divergence counts, same tamper details, same phase tallies. The same
holds for the cells of one (protocol, workload) run as one group from
one drive (``run_fault_group``): each equals its lone ``run_fault_cell``.
"""

from dataclasses import asdict, replace
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import protocol_names
from repro.faults import (
    FaultCampaignSpec,
    default_fault_config,
    plan_cells,
    run_campaign,
    run_fault_cell,
    run_fault_group,
)
from repro.faults import campaign
from repro.faults.triggers import CrashTrigger
from repro.util.units import MB
from repro.workloads.registry import profile_spec

SEED = 2024
CONFIG = default_fault_config(capacity_bytes=16 * MB)
TRACES = [profile_spec("faults", "hotshift", 800, SEED)]


def small_campaign(workers):
    return run_campaign(
        ["amnt", "strict"],
        TRACES,
        config=CONFIG,
        crash_every=250,
        phase_samples=1,
        tamper_crashes=1,
        seed=SEED,
        workers=workers,
    )


class TestCampaignEquivalence:
    def test_parallel_matches_serial_cell_for_cell(self):
        serial = small_campaign(workers=1)
        parallel = small_campaign(workers=3)
        assert len(serial.cells) == len(parallel.cells)
        for left, right in zip(serial.cells, parallel.cells):
            assert left == right, (left, right)
        assert serial.baselines == parallel.baselines
        assert serial.failures == parallel.failures
        assert serial.summary() == parallel.summary()

    def test_same_seed_same_report(self):
        first = small_campaign(workers=1)
        second = small_campaign(workers=1)
        assert first.cells == second.cells
        assert first.baselines == second.baselines

    def test_seed_changes_tamper_sites(self):
        spec = FaultCampaignSpec(
            protocol="leaf",
            trace=TRACES[0],
            trigger=CrashTrigger("access", 400),
            tamper="data",
            seed=SEED,
        )
        reseeded = FaultCampaignSpec(
            protocol="leaf",
            trace=TRACES[0],
            trigger=CrashTrigger("access", 400),
            tamper="data",
            seed=SEED + 1,
        )
        first = run_fault_cell(spec, CONFIG)
        second = run_fault_cell(reseeded, CONFIG)
        assert first.tamper_detail != second.tamper_detail
        assert first.verdict == second.verdict == "detected"


class TestCellPurity:
    def test_cell_is_pure_function_of_spec_and_config(self):
        spec = FaultCampaignSpec(
            protocol="amnt",
            trace=TRACES[0],
            trigger=CrashTrigger("access", 500),
            seed=SEED,
        )
        assert run_fault_cell(spec, CONFIG) == run_fault_cell(spec, CONFIG)

    def test_spec_is_picklable(self):
        import pickle

        spec = FaultCampaignSpec(
            protocol="amnt",
            trace=TRACES[0],
            trigger=CrashTrigger("phase", 2, "mdcache_eviction"),
            tamper="counter",
            seed=SEED,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


#: The grouped-drive differential: a small hotshift trace, every
#: registered protocol, under both persistence models.
GROUP_TRACE = profile_spec("faults", "hotshift", 600, SEED)
GROUP_CONFIGS = {
    "writethrough": CONFIG,
    "wpq": default_fault_config(capacity_bytes=16 * MB, persist_model="wpq"),
}


@lru_cache(maxsize=None)
def planned_cells(protocol, model):
    """The probe-planned cells of one protocol (access, phase and, where
    the protocol persists, persist-window triggers; a tamper cell
    sharing ``access@300`` with a clean one), one trigger no drive
    reaches, and each cell's lone ``run_fault_cell`` outcome."""
    config = GROUP_CONFIGS[model]
    probe_spec = FaultCampaignSpec(
        protocol=protocol, trace=GROUP_TRACE, seed=SEED
    )
    specs = plan_cells(
        run_fault_cell(probe_spec, config),
        probe_spec,
        crash_every=150,
        phase_samples=2,
        tamper_crashes=1,
    )
    specs.append(replace(probe_spec, trigger=CrashTrigger("access", 10_000)))
    triggers = [spec.trigger for spec in specs]
    assert triggers.count(CrashTrigger("access", 300)) == 2
    return tuple(specs), tuple(run_fault_cell(spec, config) for spec in specs)


def run_group_counting_drives(specs, config):
    """``run_fault_group`` with its drives recorded."""
    records = []
    drive = campaign.drive_memory_boundary

    def counted(*args, **kwargs):
        records.append(drive(*args, **kwargs))
        return records[-1]

    with mock.patch.object(campaign, "drive_memory_boundary", counted):
        outcomes = run_fault_group(specs, config)
    return outcomes, records


def assert_group_matches_cells(specs, expected, config):
    outcomes, records = run_group_counting_drives(specs, config)
    assert [asdict(o) for o in outcomes] == [asdict(e) for e in expected]
    assert len(records) == 1  # one drive for the whole group
    (record,) = records
    if all(e.crash_phase for e in expected):
        # Every trigger fired: the drive stopped at the last of them.
        assert record.crashed
        assert record.crash_access_index == max(
            e.crash_access_index for e in expected
        )
        assert record.accesses_completed == max(
            e.accesses_completed for e in expected
        )
    else:
        assert not record.crashed
        assert record.accesses_completed == GROUP_TRACE.accesses


@pytest.mark.parametrize("model", sorted(GROUP_CONFIGS))
@pytest.mark.parametrize("protocol", protocol_names())
class TestGroupedCells:
    def test_whole_plan_as_one_group(self, protocol, model):
        specs, expected = planned_cells(protocol, model)
        assert_group_matches_cells(list(specs), expected, GROUP_CONFIGS[model])

    def test_cells_sharing_the_last_trigger(self, protocol, model):
        # The drive stops at access@300 and audits one of its cells on
        # the driven machine, the other on a fresh engine.
        specs, expected = planned_cells(protocol, model)
        shared = [
            i
            for i, spec in enumerate(specs)
            if spec.trigger == CrashTrigger("access", 300)
        ]
        assert_group_matches_cells(
            [specs[i] for i in shared],
            [expected[i] for i in shared],
            GROUP_CONFIGS[model],
        )

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_any_subset_in_any_order(self, protocol, model, data):
        specs, expected = planned_cells(protocol, model)
        picks = data.draw(
            st.lists(
                st.sampled_from(range(len(specs))), min_size=1, unique=True
            )
        )
        assert_group_matches_cells(
            [specs[i] for i in picks],
            [expected[i] for i in picks],
            GROUP_CONFIGS[model],
        )


def test_plans_cover_every_trigger_kind():
    kinds = {
        spec.trigger.kind
        for protocol in protocol_names()
        for spec in planned_cells(protocol, "wpq")[0]
    }
    assert kinds == {"access", "phase", "persist-window"}


class TestGroupedCampaign:
    def test_one_probe_and_one_pass_per_pair(self):
        calls = []
        drive = campaign.drive_memory_boundary

        def counted(machine, *args, **kwargs):
            calls.append(machine.mee.protocol.display_name)
            return drive(machine, *args, **kwargs)

        with mock.patch.object(campaign, "drive_memory_boundary", counted):
            report = small_campaign(workers=1)
        assert sorted(calls) == ["amnt", "amnt", "strict", "strict"]
        assert len(report.cells) > 4


class _InProcessRunner:
    """A runner that reports ``workers`` and runs payloads in turn."""

    def __init__(self, workers):
        self.workers = workers

    def map(self, func, payloads):
        return [func(payload) for payload in payloads]


class TestSplitPasses:
    @pytest.mark.parametrize(
        "protocols, workers, passes",
        [
            (["amnt"], 1, 1),
            (["amnt"], 4, 4),  # fewer pairs than workers: split
            (["amnt", "strict"], 4, 4),
            (["amnt", "strict"], 2, 2),
        ],
    )
    def test_fewer_pairs_than_workers_split_into_passes(
        self, protocols, workers, passes
    ):
        specs, expected = [], []
        for protocol in protocols:
            planned, outcomes = planned_cells(protocol, "writethrough")
            specs += planned
            expected += outcomes
        drives = []
        drive = campaign.drive_memory_boundary

        def counted(*args, **kwargs):
            drives.append(args[0])
            return drive(*args, **kwargs)

        with mock.patch.object(campaign, "default_workers", lambda: 4), \
                mock.patch.object(campaign, "drive_memory_boundary", counted):
            cells = campaign._run_grouped(
                _InProcessRunner(workers), specs, CONFIG
            )
        assert [asdict(c) for c in cells] == [asdict(e) for e in expected]
        assert len(drives) == passes
