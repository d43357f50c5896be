"""The fault-injection campaign subsystem: triggers, oracle, cells."""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import CrashInjector
from repro.errors import (
    ConfigError,
    FaultInjectionError,
    PowerFailure,
    RecoveryError,
)
from repro.faults import (
    PHASE_AMNT_MOVEMENT,
    PHASE_AMNTPP_RESTRUCTURE,
    PHASE_MDCACHE_EVICTION,
    PHASE_STRICT_WRITE_THROUGH,
    VERDICT_BASELINE,
    VERDICT_DETECTED,
    VERDICT_RECOVERED,
    VERDICT_SILENT,
    CrashScheduler,
    CrashTrigger,
    FaultCampaignSpec,
    default_fault_config,
    run_campaign,
    run_fault_cell,
    run_oracle,
)
from repro.faults.campaign import spread_ordinals
from repro.mem.backend import MetadataRegion
from repro.sim.engine import drive_memory_boundary, replay_payload
from repro.sim.machine import build_machine
from repro.util.units import MB
from repro.workloads.registry import profile_spec

SEED = 2024
#: Small machine: cheap full-tree rebuilds, still 512 level-3 regions.
CONFIG = default_fault_config(capacity_bytes=16 * MB)
TINY = profile_spec("faults", "hotshift", 600, SEED)


def tiny_cell(protocol, trigger=None, tamper=""):
    return FaultCampaignSpec(
        protocol=protocol, trace=TINY, trigger=trigger,
        seed=SEED, tamper=tamper,
    )


def stored_counters_verify(mee):
    """The oracle's cross-check: how many counter lines the NVM image
    stores, after asserting that each one verifies to the root
    register. The oracle verifies only the pages its golden map names;
    a recovery that left some other stored line stale would pass it."""
    stored = sorted(mee.nvm.backend.keys(MetadataRegion.COUNTERS))
    stale = [
        index
        for index in stored
        if not mee.tree.verify_counter(index, persisted_only=True).ok
    ]
    assert not stale, f"stored counter lines stale after recovery: {stale[:8]}"
    return len(stored)


@pytest.fixture
def cross_checked_oracle(monkeypatch):
    """Run the campaign's oracle with :func:`stored_counters_verify`
    after every ``recovered`` verdict; returns the list it fills with
    the number of counter lines checked per recovered state."""
    from repro.faults import campaign

    checked = []

    def oracle(mee, record):
        report = run_oracle(mee, record)
        if report.verdict == VERDICT_RECOVERED:
            checked.append(stored_counters_verify(mee))
        return report

    monkeypatch.setattr(campaign, "run_oracle", oracle)
    return checked


class TestFaultInjectionError:
    def test_timing_engine_rejected_with_typed_error(self):
        config = default_config(capacity_bytes=16 * MB)
        mee = MemoryEncryptionEngine(
            config, make_protocol("leaf", config), functional=False
        )
        with pytest.raises(FaultInjectionError) as excinfo:
            CrashInjector(mee)
        message = str(excinfo.value)
        assert "functional-mode engine" in message
        assert "functional=True" in message

    def test_subclasses_recovery_error(self):
        # Callers catching the old generic error must keep working.
        assert issubclass(FaultInjectionError, RecoveryError)

    def test_functional_engine_accepted(self):
        config = default_config(capacity_bytes=16 * MB)
        mee = MemoryEncryptionEngine(
            config, make_protocol("leaf", config), functional=True
        )
        assert CrashInjector(mee).crash_and_recover().ok


class TestCrashTrigger:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CrashTrigger("nope", 1)
        with pytest.raises(ConfigError):
            CrashTrigger("phase", 1)  # missing phase name
        with pytest.raises(ConfigError):
            CrashTrigger("phase", 0, PHASE_MDCACHE_EVICTION)
        with pytest.raises(ConfigError):
            CrashTrigger("access", -1)

    def test_describe(self):
        assert CrashTrigger("access", 250).describe() == "access@250"
        assert (
            CrashTrigger("phase", 2, PHASE_AMNT_MOVEMENT).describe()
            == "amnt_movement@2"
        )


class TestCrashScheduler:
    def test_access_trigger_fires_at_exact_index(self):
        scheduler = CrashScheduler(CrashTrigger("access", 2))
        scheduler.on_access(0)
        scheduler.on_access(1)
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.on_access(2)
        assert excinfo.value.access_index == 2
        assert not excinfo.value.write_committed

    def test_phase_trigger_outside_group_raises_immediately(self):
        scheduler = CrashScheduler(
            CrashTrigger("phase", 2, PHASE_MDCACHE_EVICTION)
        )
        scheduler.on_access(0)
        scheduler.on_phase(PHASE_MDCACHE_EVICTION)  # occurrence 1
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.on_phase(PHASE_MDCACHE_EVICTION)
        assert excinfo.value.occurrence == 2
        assert not excinfo.value.write_committed

    def test_phase_trigger_inside_group_defers_to_commit(self):
        scheduler = CrashScheduler(
            CrashTrigger("phase", 1, PHASE_STRICT_WRITE_THROUGH)
        )
        scheduler.on_access(0)
        scheduler.begin_group()
        scheduler.on_phase(PHASE_STRICT_WRITE_THROUGH)  # deferred
        with pytest.raises(PowerFailure) as excinfo:
            scheduler.commit_group()
        assert excinfo.value.write_committed
        assert excinfo.value.phase == PHASE_STRICT_WRITE_THROUGH

    def test_unarmed_scheduler_only_counts(self):
        scheduler = CrashScheduler()
        scheduler.on_access(0)
        scheduler.begin_group()
        scheduler.on_phase(PHASE_MDCACHE_EVICTION)
        scheduler.commit_group()
        scheduler.on_phase(PHASE_MDCACHE_EVICTION)
        assert scheduler.phase_counts == {PHASE_MDCACHE_EVICTION: 2}
        assert scheduler.fired is None


class TestSpreadOrdinals:
    def test_small_counts_cover_every_boundary(self):
        assert spread_ordinals(3, 5) == [1, 2, 3]

    def test_large_counts_include_first_and_last(self):
        ordinals = spread_ordinals(100, 3)
        assert ordinals[0] == 1 and ordinals[-1] == 100
        assert len(ordinals) == 3

    def test_degenerate(self):
        assert spread_ordinals(0, 3) == []
        assert spread_ordinals(5, 0) == []
        assert spread_ordinals(9, 1) == [5]


class TestReplayDriver:
    def test_unarmed_replay_completes_and_tracks_golden(self):
        machine = build_machine(CONFIG, "leaf", functional=True, seed=SEED)
        from repro.workloads.registry import materialize_trace

        trace = materialize_trace(TINY)
        record = drive_memory_boundary(machine, trace, seed=SEED)
        assert not record.crashed
        assert record.accesses_completed == len(trace)
        assert record.golden  # writes were tracked
        # The shadow matches the machine: spot-check via readback.
        base, payload = next(iter(sorted(record.golden.items())))
        assert machine.mee.read_block_data(base) == payload

    def test_replay_payload_is_position_deterministic(self):
        assert replay_payload(7) == replay_payload(7)
        assert replay_payload(7) != replay_payload(8)
        assert len(replay_payload(3, 64)) == 64


class TestFaultCell:
    def test_access_crash_recovers(self, cross_checked_oracle):
        outcome = run_fault_cell(
            tiny_cell("amnt", CrashTrigger("access", 300)), CONFIG
        )
        assert outcome.verdict == VERDICT_RECOVERED
        assert cross_checked_oracle and cross_checked_oracle[0] > 0
        assert outcome.crash_phase == "access"
        assert outcome.crash_access_index == 300
        assert outcome.accesses_completed == 300
        assert outcome.blocks_checked > 0
        assert outcome.blocks_recovered == outcome.blocks_checked
        assert outcome.anomaly == ""

    def test_probe_cell_reports_baseline(self):
        outcome = run_fault_cell(tiny_cell("amnt"), CONFIG)
        assert outcome.verdict == VERDICT_BASELINE
        assert outcome.trigger == "probe"
        assert dict(outcome.phase_counts).get(PHASE_MDCACHE_EVICTION, 0) > 0

    def test_unreachable_trigger_is_flagged(self):
        outcome = run_fault_cell(
            tiny_cell("leaf", CrashTrigger("access", 10_000)), CONFIG
        )
        assert outcome.verdict == VERDICT_BASELINE
        assert outcome.anomaly == "trigger-not-fired"

    def test_data_tamper_is_detected(self):
        outcome = run_fault_cell(
            tiny_cell("leaf", CrashTrigger("access", 400), tamper="data"),
            CONFIG,
        )
        assert outcome.verdict == VERDICT_DETECTED
        assert outcome.tamper_detail.startswith("data[")
        assert outcome.anomaly == ""

    def test_counter_tamper_is_detected(self):
        outcome = run_fault_cell(
            tiny_cell("leaf", CrashTrigger("access", 400), tamper="counter"),
            CONFIG,
        )
        assert outcome.verdict == VERDICT_DETECTED
        assert outcome.tamper_detail.startswith("counter[")
        assert outcome.anomaly == ""

    def test_volatile_crash_detected_without_anomaly(self):
        # The volatile baseline loses dirty metadata by design: its
        # failure must be *detected*, and is not an anomaly because the
        # protocol never claimed crash consistency.
        outcome = run_fault_cell(
            tiny_cell("volatile", CrashTrigger("access", 300)), CONFIG
        )
        assert outcome.verdict == VERDICT_DETECTED
        assert not outcome.crash_consistent
        assert outcome.anomaly == ""


class TestOracleClassification:
    def test_forged_golden_yields_silent_divergence(self):
        """The silent-divergence verdict path: recovery succeeds but a
        readback disagrees with the shadow (forged here — the protocols
        themselves never produce it)."""
        machine = build_machine(CONFIG, "leaf", functional=True, seed=SEED)
        from repro.workloads.registry import materialize_trace

        record = drive_memory_boundary(
            machine, materialize_trace(TINY), seed=SEED
        )
        base = sorted(record.golden)[0]
        record.golden[base] = b"\xff" * len(record.golden[base])
        machine.mee.crash()
        report = run_oracle(machine.mee, record)
        assert report.verdict == VERDICT_SILENT
        assert report.blocks_diverged == 1
        assert report.first_divergence

    def test_clean_recovery_reports_recovered(self):
        machine = build_machine(CONFIG, "strict", functional=True, seed=SEED)
        from repro.workloads.registry import materialize_trace

        record = drive_memory_boundary(
            machine, materialize_trace(TINY), seed=SEED
        )
        machine.mee.crash()
        report = run_oracle(machine.mee, record)
        assert report.verdict == VERDICT_RECOVERED
        assert report.pages_inconsistent == 0
        assert report.blocks_diverged == 0
        assert stored_counters_verify(machine.mee) >= report.pages_verified

    def test_cross_check_sees_stored_lines_the_oracle_skips(self):
        """A stale counter line outside the golden pages leaves the
        oracle's verdict at recovered; the cross-check names it."""
        machine = build_machine(CONFIG, "strict", functional=True, seed=SEED)
        from repro.workloads.registry import materialize_trace

        record = drive_memory_boundary(
            machine, materialize_trace(TINY), seed=SEED
        )
        machine.mee.crash()
        page_index = machine.mee.address_space.page_index
        golden_pages = {page_index(base) for base in record.golden}
        outside = min(set(range(len(golden_pages) + 1)) - golden_pages)
        machine.mee.nvm.backend.write(
            MetadataRegion.COUNTERS, outside, b"\x01" * 64
        )
        assert run_oracle(machine.mee, record).verdict == VERDICT_RECOVERED
        with pytest.raises(AssertionError, match="stale"):
            stored_counters_verify(machine.mee)


#: Every registered crash-consistent protocol. ``amnt-multi`` rides
#: along even though the issue's list stops at static-hybrid.
ALL_PROTOCOLS = (
    "leaf", "strict", "anubis", "osiris", "bmf",
    "amnt", "amnt++", "amnt-multi", "triad", "plp",
)


class TestEveryPhaseBoundary:
    """Crash at phase boundaries across every registered protocol:
    recovery must succeed and the oracle must never see silent
    divergence (the tentpole property, as a test)."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_phase_boundary_crashes_recover(self, protocol, cross_checked_oracle):
        probe = run_fault_cell(tiny_cell(protocol), CONFIG)
        assert probe.verdict == VERDICT_BASELINE
        for phase, count in probe.phase_counts:
            for ordinal in spread_ordinals(count, 3):
                outcome = run_fault_cell(
                    tiny_cell(
                        protocol, CrashTrigger("phase", ordinal, phase)
                    ),
                    CONFIG,
                )
                label = f"{protocol} {phase}@{ordinal}"
                assert outcome.verdict == VERDICT_RECOVERED, (
                    f"{label}: {outcome.verdict} {outcome.recovery_detail} "
                    f"{outcome.first_divergence}"
                )
                assert outcome.anomaly == "", label
        assert cross_checked_oracle and max(cross_checked_oracle) > 0

    def test_amnt_multi_movement_window_exists(self):
        # Retiring and adopting regions is crashable like AMNT's
        # movement; the parametrized test above crashes inside it.
        probe = run_fault_cell(tiny_cell("amnt-multi"), CONFIG)
        assert dict(probe.phase_counts).get("amnt_movement", 0) > 0

    def test_amntpp_restructure_window_exists(self):
        # The modified-OS migration pass must actually be crashable:
        # a longer trace reaches the churn interval several times.
        spec = FaultCampaignSpec(
            protocol="amnt++",
            trace=profile_spec("faults", "hotshift", 2500, SEED),
            seed=SEED,
        )
        probe = run_fault_cell(spec, CONFIG)
        counts = dict(probe.phase_counts)
        assert counts.get(PHASE_AMNTPP_RESTRUCTURE, 0) > 0
        outcome = run_fault_cell(
            FaultCampaignSpec(
                protocol="amnt++",
                trace=spec.trace,
                trigger=CrashTrigger("phase", 1, PHASE_AMNTPP_RESTRUCTURE),
                seed=SEED,
            ),
            CONFIG,
        )
        assert outcome.verdict == VERDICT_RECOVERED
        assert outcome.crash_phase == PHASE_AMNTPP_RESTRUCTURE


class TestCampaignReport:
    def test_campaign_writes_self_describing_json(self, tmp_path):
        from repro.bench.export import load_experiment

        report = run_campaign(
            ["leaf"],
            [TINY],
            config=CONFIG,
            crash_every=200,
            tamper_crashes=1,
            phase_samples=1,
            seed=SEED,
        )
        assert not report.silent_cells()
        assert not report.anomalies()
        path = tmp_path / "campaign.json"
        report.write_json(path)
        document = load_experiment(path)
        assert document["experiment"] == "fault-campaign"
        summary = document["data"]["summary"]
        assert summary["silent_divergence"] == 0
        assert summary["cells"] == len(report.cells)
        assert document["parameters"]["protocols"] == ["leaf"]

    def test_phase_breakdown_covers_movement(self):
        report = run_campaign(
            ["amnt"],
            [TINY],
            config=CONFIG,
            phase_samples=1,
            seed=SEED,
        )
        assert PHASE_AMNT_MOVEMENT in report.phase_occurrences()
        assert PHASE_AMNT_MOVEMENT in report.by_phase()

    def test_mini_campaign_no_silent_divergence(self):
        # Access crashes, phase samples and a tamper on two protocols at
        # the default fault geometry: recovery never diverges silently.
        report = run_campaign(
            ["leaf", "amnt"],
            [profile_spec("faults", "hotshift", 600, 7)],
            crash_every=200,
            phase_samples=1,
            tamper_crashes=1,
            seed=7,
        )
        summary = report.summary()
        assert summary["silent_divergence"] == 0
        assert not report.anomalies()
        assert summary["cells"] > 0
