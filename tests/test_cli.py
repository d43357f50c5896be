"""The command-line interface."""

import pytest

from repro.cli import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_QUARANTINED,
    EXIT_RESUME_MISMATCH,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "lbm"])
        args_dict = vars(args)
        assert args_dict["benchmark"] == "lbm"
        assert args_dict["subtree_level"] == 3

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_protocols_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "lbm", "--protocols", "made-up"]
            )


class TestCommands:
    def test_protocols_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("amnt", "amnt++", "leaf", "strict", "anubis", "bmf"):
            assert name in out

    def test_area_table(self, capsys):
        assert main(["area-table"]) == 0
        out = capsys.readouterr().out
        assert "96B" in out
        assert "37.0KB" in out

    def test_recovery_table(self, capsys):
        assert main(["recovery-table"]) == 0
        out = capsys.readouterr().out
        assert "6222.22" in out
        assert "AMNT L3" in out

    def test_sweep_runs_small(self, capsys):
        code = main(
            [
                "sweep",
                "swaptions",
                "--accesses",
                "2000",
                "--protocols",
                "volatile",
                "leaf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert "leaf" in out

    def test_sweep_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["sweep", "not-a-benchmark"])

    def test_profiles_lists_all_suites(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("canneal", "xz", "kvstore"):
            assert name in out

    def test_crash_drill_succeeds_for_amnt(self, capsys):
        assert main(["crash-drill", "--protocol", "amnt", "--records", "80"]) == 0
        out = capsys.readouterr().out
        assert "recovery=OK" in out
        assert "records_intact=80/80" in out

    def test_crash_drill_fails_for_volatile(self, capsys):
        assert main(
            ["crash-drill", "--protocol", "volatile", "--records", "40"]
        ) == 1
        assert "recovery=FAILED" in capsys.readouterr().out


class TestResilienceCLI:
    """Exit codes of the supervised sweep/faults modes.

    The full kill-at-a-checkpoint → resume → bit-identical-artifact
    round trip, through the real argv surface an operator uses.
    """

    def _faults_argv(self, tmp_path, *extra):
        return [
            "faults",
            "--protocols", "leaf",
            "--workloads", "hotshift",
            "--accesses", "300",
            "--crash-every", "150",
            "--phase-samples", "0",
            "--tamper-crashes", "0",
            "--output", str(tmp_path / "report.json"),
            *extra,
        ]

    def test_faults_kill_then_resume_bit_identical(self, tmp_path, capsys):
        clean_dir = tmp_path / "clean"
        killed_dir = tmp_path / "killed"

        code = main(
            self._faults_argv(tmp_path, "--run-dir", str(clean_dir))
        )
        assert code == EXIT_OK
        clean_report = (tmp_path / "report.json").read_bytes()

        code = main(
            self._faults_argv(
                tmp_path,
                "--run-dir", str(killed_dir),
                "--die-after-flushes", "1",
            )
        )
        assert code == EXIT_INTERRUPTED
        assert "continue with --resume" in capsys.readouterr().err

        code = main(self._faults_argv(tmp_path, "--resume", str(killed_dir)))
        assert code == EXIT_OK
        assert (tmp_path / "report.json").read_bytes() == clean_report

    def test_faults_resume_refused_on_changed_grid(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(
            self._faults_argv(
                tmp_path,
                "--run-dir", str(run_dir),
                "--die-after-flushes", "1",
            )
        )
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()

        argv = self._faults_argv(tmp_path, "--resume", str(run_dir))
        argv[argv.index("300")] = "400"  # different trace length
        assert main(argv) == EXIT_RESUME_MISMATCH
        assert "resume refused" in capsys.readouterr().err

    def test_run_dir_and_resume_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                self._faults_argv(
                    tmp_path,
                    "--run-dir", str(tmp_path / "a"),
                    "--resume", str(tmp_path / "b"),
                )
            )

    def test_sweep_quarantine_exit_code(self, tmp_path, capsys, monkeypatch):
        """A journaled sweep that completes with quarantined cells exits
        3 and prints each failure with its traceback."""
        from repro.sim import runner
        from repro.sim.supervisor import CellFailure

        failure = CellFailure(
            key="0001/leaf/blackscholes/a300/s2024",
            attempts=3,
            error_type="ValueError",
            message="injected",
            traceback="Traceback: injected failure",
        )

        def fake_sweep(run_dir, **kwargs):
            return {
                "cells": 2,
                "completed": 1,
                "failures": [failure],
                "outcomes": ["ok", failure],
                "artifact": run_dir / "SWEEP_results.json",
                "journal": run_dir / "journal.jsonl",
            }

        monkeypatch.setattr(runner, "run_resilient_sweep", fake_sweep)
        code = main(
            ["sweep", "blackscholes", "--run-dir", str(tmp_path / "run")]
        )
        assert code == EXIT_QUARANTINED
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "QUARANTINED" in captured.err
        assert "injected failure" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--subtree-level", "4"],
            ["--scatter-chunks", "8"],
        ],
    )
    @pytest.mark.parametrize("journal_flag", ["--run-dir", "--resume"])
    def test_sweep_run_dir_refuses_non_default_geometry(
        self, tmp_path, extra, journal_flag
    ):
        """The journaled grid runs the default machine unscattered, so
        flags it would silently ignore are refused before any work."""
        run_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match="--subtree-level"):
            main(["sweep", "blackscholes", journal_flag, str(run_dir)] + extra)
        assert not run_dir.exists()

    def test_sweep_run_dir_refuses_spec_benchmark(self, tmp_path):
        with pytest.raises(SystemExit, match="PARSEC"):
            main(["sweep", "lbm", "--run-dir", str(tmp_path / "run")])
