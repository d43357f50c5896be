"""End-to-end resilience: kill a run at a checkpoint, resume, compare.

The contract under test is the tentpole guarantee: a sweep or campaign
killed at *any* checkpoint and restarted with ``resume`` must produce a
final artifact byte-for-byte identical to an uninterrupted run — the
journal only changes *when* cells execute, never *what* they compute.
"""

import pytest

from repro.bench.export import load_experiment
from repro.cli import EXIT_OK, main
from repro.config import default_config
from repro.errors import ResumeManifestMismatch
from repro.faults import default_fault_config, run_campaign
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    SWEEP_RESULTS_NAME,
    run_protocol_sweep,
    run_resilient_sweep,
)
from repro.sim.supervisor import RunJournal, SupervisionPolicy
from repro.util.units import MB
from repro.workloads.registry import profile_spec

SEED = 2024
#: Near-zero backoff so any retries do not slow the suite down.
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.02)

#: Tiny two-cell reference grid: one benchmark, two protocols.
SWEEP_KW = dict(
    benchmarks=("blackscholes",),
    protocols=("volatile", "leaf"),
    accesses=300,
    seed=SEED,
    workers=1,
)

CONFIG = default_fault_config(capacity_bytes=16 * MB)
TRACES = [profile_spec("faults", "hotshift", 600, SEED)]
CAMPAIGN_KW = dict(
    config=CONFIG,
    crash_every=200,
    phase_samples=1,
    tamper_crashes=1,
    seed=SEED,
    workers=1,
)


def _campaign(run_dir=None, resume=False, policy=None):
    return run_campaign(
        ["amnt"],
        TRACES,
        run_dir=run_dir,
        resume=resume,
        policy=policy,
        **CAMPAIGN_KW,
    )


class TestResilientSweepResume:
    def test_kill_and_resume_bit_identical(self, tmp_path):
        clean_dir = tmp_path / "clean"
        killed_dir = tmp_path / "killed"

        clean = run_resilient_sweep(
            clean_dir, policy=SupervisionPolicy(**FAST), **SWEEP_KW
        )
        assert clean["completed"] == clean["cells"] == 2

        with pytest.raises(KeyboardInterrupt):
            run_resilient_sweep(
                killed_dir,
                policy=SupervisionPolicy(die_after_flushes=1, **FAST),
                **SWEEP_KW,
            )
        partial = RunJournal.load(killed_dir)
        assert partial.counts() == {"done": 1, "failed": 0}

        resumed = run_resilient_sweep(
            killed_dir,
            resume=True,
            policy=SupervisionPolicy(**FAST),
            **SWEEP_KW,
        )
        assert resumed["completed"] == resumed["cells"] == 2
        assert not resumed["failures"]
        assert (killed_dir / SWEEP_RESULTS_NAME).read_bytes() == (
            clean_dir / SWEEP_RESULTS_NAME
        ).read_bytes()

    def test_resumed_results_equal_clean_cell_for_cell(self, tmp_path):
        clean = run_resilient_sweep(
            tmp_path / "clean", policy=SupervisionPolicy(**FAST), **SWEEP_KW
        )
        killed_dir = tmp_path / "killed"
        with pytest.raises(KeyboardInterrupt):
            run_resilient_sweep(
                killed_dir,
                policy=SupervisionPolicy(die_after_flushes=1, **FAST),
                **SWEEP_KW,
            )
        resumed = run_resilient_sweep(
            killed_dir,
            resume=True,
            policy=SupervisionPolicy(**FAST),
            **SWEEP_KW,
        )
        assert resumed["outcomes"] == clean["outcomes"]

    def test_resume_refused_on_different_grid(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_resilient_sweep(
                run_dir,
                policy=SupervisionPolicy(die_after_flushes=1, **FAST),
                **SWEEP_KW,
            )
        changed = dict(SWEEP_KW, accesses=301)
        with pytest.raises(ResumeManifestMismatch) as excinfo:
            run_resilient_sweep(
                run_dir,
                resume=True,
                policy=SupervisionPolicy(**FAST),
                **changed,
            )
        assert "grid_digest" in excinfo.value.mismatches


    def test_cli_run_dir_results_equal_protocol_sweep(self, tmp_path):
        """``repro sweep --run-dir`` journals the same results a plain
        sweep computes: cell for cell, equal to ``run_protocol_sweep``
        on the same spec and seed."""
        protocols = ("volatile", "leaf", "amnt")
        run_dir = tmp_path / "run"
        argv = [
            "sweep", "blackscholes",
            "--accesses", "300",
            "--seed", str(SEED),
            "--protocols", *protocols,
            "--run-dir", str(run_dir),
            "--no-store",
        ]
        assert main(argv) == EXIT_OK
        cells = load_experiment(run_dir / SWEEP_RESULTS_NAME)["data"]["cells"]
        expected = run_protocol_sweep(
            profile_spec("parsec", "blackscholes", 300, SEED),
            default_config(),
            protocols,
            seed=SEED,
        )
        assert [cell["status"] for cell in cells] == ["done"] * len(protocols)
        assert [cell["key"].split("/")[1] for cell in cells] == list(protocols)
        for cell, name in zip(cells, protocols):
            assert SimulationResult.from_json_dict(cell["result"]) == (
                expected[name]
            ), name


class TestCampaignResume:
    def test_supervised_campaign_matches_plain(self, tmp_path):
        """Routing cells through the journal codec must not change
        their values: plain and supervised runs agree cell for cell."""
        plain = _campaign()
        supervised = _campaign(
            run_dir=tmp_path / "run", policy=SupervisionPolicy(**FAST)
        )
        assert supervised.baselines == plain.baselines
        assert supervised.cells == plain.cells
        assert not supervised.failures

    def test_kill_and_resume_bit_identical(self, tmp_path):
        clean = _campaign(
            run_dir=tmp_path / "clean", policy=SupervisionPolicy(**FAST)
        )

        killed_dir = tmp_path / "killed"
        # die_after_flushes=2: flush 1 journals the probe, flush 2 the
        # first planned cell — the kill lands mid-stage-2.
        with pytest.raises(KeyboardInterrupt):
            _campaign(
                run_dir=killed_dir,
                policy=SupervisionPolicy(die_after_flushes=2, **FAST),
            )
        partial = RunJournal.load(killed_dir)
        assert partial.counts()["done"] == 2

        resumed = _campaign(
            run_dir=killed_dir, resume=True, policy=SupervisionPolicy(**FAST)
        )
        assert resumed.baselines == clean.baselines
        assert resumed.cells == clean.cells

        clean_json = tmp_path / "clean.json"
        resumed_json = tmp_path / "resumed.json"
        clean.write_json(clean_json)
        resumed.write_json(resumed_json)
        assert resumed_json.read_bytes() == clean_json.read_bytes()

    def test_resume_refused_on_changed_parameters(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            _campaign(
                run_dir=run_dir,
                policy=SupervisionPolicy(die_after_flushes=1, **FAST),
            )
        changed = dict(CAMPAIGN_KW, crash_every=150)
        with pytest.raises(ResumeManifestMismatch):
            run_campaign(
                ["amnt"],
                TRACES,
                run_dir=run_dir,
                resume=True,
                policy=SupervisionPolicy(**FAST),
                **changed,
            )
