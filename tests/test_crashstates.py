"""Crash-state exploration: enumeration, sampling, torn lines, and
the end-to-end intra-group audit (see docs/FAULTS.md)."""

import pytest

from repro.faults import (
    VERDICT_DETECTED,
    VERDICT_RECOVERED,
    VERDICT_SILENT,
    CrashTrigger,
    FaultCampaignSpec,
    default_fault_config,
    plan_crash_states,
    run_campaign,
    run_fault_cell,
    worst_verdict,
)
from repro.faults.crashstates import install_crash_state
from repro.mem.backend import MetadataRegion
from repro.mem.nvm import PendingLine
from repro.sim.machine import build_engine, build_machine
from repro.util.units import MB
from repro.workloads.registry import profile_spec

SEED = 2024
DATA = MetadataRegion.DATA
COUNTERS = MetadataRegion.COUNTERS

WPQ_CONFIG = default_fault_config(capacity_bytes=16 * MB, persist_model="wpq")
TINY = profile_spec("faults", "hotshift", 600, SEED)


def line(region, key, versions, existed=False, original=None):
    return PendingLine(
        region=region,
        key=key,
        existed=existed,
        original=original,
        versions=versions,
    )


def wpq_cell(protocol, trigger, max_crash_states=4096, torn_lines=True):
    return FaultCampaignSpec(
        protocol=protocol,
        trace=TINY,
        trigger=trigger,
        seed=SEED,
        max_crash_states=max_crash_states,
        torn_lines=torn_lines,
    )


class TestWorstVerdict:
    def test_ordering(self):
        assert worst_verdict([VERDICT_RECOVERED]) == VERDICT_RECOVERED
        assert (
            worst_verdict([VERDICT_RECOVERED, VERDICT_DETECTED])
            == VERDICT_DETECTED
        )
        assert (
            worst_verdict(
                [VERDICT_DETECTED, VERDICT_SILENT, VERDICT_RECOVERED]
            )
            == VERDICT_SILENT
        )


class TestEnumeration:
    def test_empty_pending_set(self):
        plan = plan_crash_states([])
        assert plan.states == []
        assert plan.total_reachable == 1
        assert plan.exhaustive

    def test_count_formula_single_epoch(self):
        # 3 lines, one epoch: 1 + (2^3 - 1) = 8 reachable; the
        # all-drained state is audited by the ordinary oracle pass, so
        # the plan emits 8 - 1 = 7 (none-drained + 6 proper subsets).
        pending = [
            line(DATA, k, [(0, bytes([k]) * 64)]) for k in range(3)
        ]
        plan = plan_crash_states(pending, torn_lines=False)
        assert plan.total_reachable == 8
        assert plan.exhaustive
        assert plan.skipped == 0
        assert len(plan.states) == 7

    def test_count_formula_multi_epoch(self):
        # Epoch 0 owns 2 lines, epoch 1 owns 1 (one line spans both):
        # 1 + (2^2 - 1) + (2^1 - 1) = 5 reachable, 4 emitted.
        pending = [
            line(DATA, 0, [(0, b"a" * 64), (1, b"b" * 64)]),
            line(DATA, 1, [(0, b"c" * 64)]),
        ]
        plan = plan_crash_states(pending, torn_lines=False)
        assert plan.total_reachable == 5
        assert len(plan.states) == 4

    def test_fence_respecting_rollback(self):
        # Losing an epoch-0 value must also lose every epoch-1 value:
        # the boundary-0 subsets may keep line A's epoch-0 version but
        # never its epoch-1 version.
        a0, a1, b0 = b"A" * 64, b"B" * 64, b"C" * 64
        pending = [
            line(DATA, 0, [(0, a0), (1, a1)]),
            line(DATA, 1, [(0, b0)]),
        ]
        plan = plan_crash_states(pending, torn_lines=False)
        for state in plan.states:
            patched = dict(
                ((region, key), value) for region, key, value in state.patch
            )
            if patched.get((DATA, 1)) is None and (DATA, 1) in patched:
                # Line B rolled back to nothing => boundary below its
                # epoch 0 => line A cannot hold any drained version.
                assert patched.get((DATA, 0), a1) != a1

    def test_sampling_is_deterministic_and_accounted(self):
        pending = [
            line(DATA, k, [(0, bytes([k]) * 64)]) for k in range(8)
        ]
        # 2^8 - 1 = 255 candidates, budget 16: sampled, never silent.
        first = plan_crash_states(
            pending, max_crash_states=16, torn_lines=False, seed=7
        )
        second = plan_crash_states(
            pending, max_crash_states=16, torn_lines=False, seed=7
        )
        assert not first.exhaustive
        assert [s.label for s in first.states] == [
            s.label for s in second.states
        ]
        assert first.states[0].label == "none-drained"
        assert first.sampled == len(first.states) - 1
        assert first.skipped == 255 - len(first.states)
        assert first.skipped > 0

    def test_torn_variant_composes_new_prefix_old_suffix(self):
        old = bytes(range(64))
        new = bytes(64 - i for i in range(64))
        pending = [line(DATA, 5, [(0, new)], existed=True, original=old)]
        plan = plan_crash_states(pending, torn_lines=True, seed=3)
        torn = [s for s in plan.states if s.torn]
        assert len(torn) == 1 == plan.torn
        ((region, key, value),) = torn[0].patch
        assert (region, key) == (DATA, 5)
        cut = int(torn[0].label.rsplit("@", 1)[1])
        assert 1 <= cut < 64
        assert value == new[:cut] + old[cut:]

    def test_invisible_tear_skipped(self):
        # Same bytes before and after: no distinct torn image exists.
        same = b"s" * 64
        pending = [line(DATA, 1, [(0, same)], existed=True, original=same)]
        plan = plan_crash_states(pending, torn_lines=True)
        assert plan.torn == 0


class TestIntraGroupAudit:
    """End-to-end: crash inside persist groups, explore every state."""

    @pytest.mark.parametrize("protocol", ("amnt", "strict", "leaf"))
    def test_persist_window_crash_never_silent(self, protocol):
        outcome = run_fault_cell(
            wpq_cell(protocol, CrashTrigger("persist-window", 2)),
            WPQ_CONFIG,
        )
        assert outcome.verdict in (VERDICT_RECOVERED, VERDICT_DETECTED)
        assert outcome.crash_in_group
        assert not outcome.write_committed
        assert outcome.anomaly == ""
        assert outcome.exploration == "exhaustive"
        # Exhaustive: every reachable subset audited (the as-crashed
        # image via the ordinary oracle pass, the rest by the explorer).
        assert outcome.crash_states_explored == outcome.crash_states_total
        assert outcome.crash_states_total >= 2
        assert outcome.crash_states_skipped == 0

    def test_sampling_budget_respected_and_reported(self):
        outcome = run_fault_cell(
            wpq_cell(
                "amnt",
                CrashTrigger("persist-window", 6),
                max_crash_states=2,
            ),
            WPQ_CONFIG,
        )
        assert outcome.verdict in (VERDICT_RECOVERED, VERDICT_DETECTED)
        if outcome.crash_states_total > 3:
            assert outcome.exploration == "sampled"
            assert outcome.crash_states_skipped > 0

    def test_writethrough_cells_report_no_states(self):
        config = default_fault_config(capacity_bytes=16 * MB)
        outcome = run_fault_cell(
            FaultCampaignSpec(
                protocol="amnt",
                trace=TINY,
                trigger=CrashTrigger("access", 250),
                seed=SEED,
            ),
            config,
        )
        assert outcome.exploration == ""
        assert outcome.crash_states_total == 0
        assert outcome.crash_states_explored == 0

    def test_mini_campaign_exhaustive_no_silent(self):
        report = run_campaign(
            ["amnt", "strict"],
            [profile_spec("faults", "hotshift", 400, SEED)],
            config=WPQ_CONFIG,
            phase_samples=1,
            tamper_crashes=0,
            seed=SEED,
        )
        assert report.silent_cells() == []
        assert report.anomalies() == []
        coverage = report.crash_state_coverage()
        assert coverage["explored"] >= coverage["total_reachable"] > 0
        assert coverage["skipped"] == 0
        assert coverage["sampled_cells"] == 0
        summary = report.summary()
        assert summary["crash_states"] == coverage
        assert report.parameters["persist_model"] == "wpq"


class TestInstallCrashState:
    def test_fresh_engine_holds_the_cut_on_its_own_image(self):
        # A capture pass audits a fresh engine at a cut, then keeps
        # driving: neither side's later stores may reach the other.
        mee = build_machine(WPQ_CONFIG, "bmf", functional=True, seed=SEED).mee
        old, new = b"\x01" * 64, b"\x02" * 64
        mee.nvm.backend.write(COUNTERS, 7, old)
        mee.protocol._root_counts[(2, 0)] = 5

        fresh = build_engine(WPQ_CONFIG, "bmf", functional=True)
        trusted = fresh.protocol.trusted_nodes()
        install_crash_state(fresh, mee)
        assert fresh.nvm.backend.read(COUNTERS, 7) == old
        assert fresh.tree.root_register == mee.tree.root_register
        # Restored in place: the engine's event loop holds this object.
        assert fresh.protocol.trusted_nodes() is trusted
        assert trusted == mee.protocol.trusted_nodes()
        assert (2, 0) in trusted

        mee.nvm.backend.write(COUNTERS, 7, new)
        mee.protocol._root_counts[(3, 0)] = 1
        assert fresh.nvm.backend.read(COUNTERS, 7) == old
        assert (3, 0) not in trusted
        fresh.nvm.backend.write(COUNTERS, 8, new)
        assert not mee.nvm.backend.contains(COUNTERS, 8)
