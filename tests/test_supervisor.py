"""Supervision layer: journal, manifest, retries, quarantine, resume."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.errors import (
    CellTimeoutError,
    OrchestrationError,
    ResumeManifestMismatch,
)
from repro.sim.supervisor import (
    CellFailure,
    RunJournal,
    SupervisedRunner,
    SupervisionPolicy,
    build_manifest,
    check_manifest,
    split_outcomes,
)

#: Policy with near-zero backoff so retry tests run in milliseconds.
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.02)


# -- pool-target helpers (top level: picklable for pool workers) --------


def _double(payload):
    return payload * 2


def _fail_until_marker(payload):
    """Raise OSError on the first call, succeed afterwards (the marker
    file carries the attempt count across process boundaries)."""
    marker, value = payload
    if not os.path.exists(marker):
        Path(marker).touch()
        raise OSError("transient failure injected")
    return value


def _always_raise(payload):
    raise ValueError(f"poison {payload}")


def _die_once(payload):
    """Hard worker death (no exception, no result) on the first call."""
    marker, value = payload
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(17)
    return value


def _hang(payload):
    time.sleep(60)


def _interrupt_on(payload):
    flag, value = payload
    if value == flag:
        raise KeyboardInterrupt
    return value


class TestSupervisionPolicy:
    def test_backoff_grows_and_caps(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=1.0,
            backoff_factor=2.0,
            backoff_max_seconds=3.0,
            jitter_fraction=0.0,
        )
        assert policy.backoff_seconds(1) == 1.0
        assert policy.backoff_seconds(2) == 2.0
        assert policy.backoff_seconds(3) == 3.0  # capped
        assert policy.backoff_seconds(10) == 3.0

    def test_jitter_bounded(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=1.0, jitter_fraction=0.5
        )
        for _ in range(20):
            delay = policy.backoff_seconds(1)
            assert 1.0 <= delay <= 1.5

    def test_invalid_policy_rejected(self):
        with pytest.raises(OrchestrationError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(OrchestrationError):
            SupervisionPolicy(checkpoint_every=0)


class TestManifest:
    def test_deterministic(self):
        a = build_manifest("exp", "config-repr", ["k1", "k2"], {"n": 1})
        b = build_manifest("exp", "config-repr", ["k1", "k2"], {"n": 1})
        assert a == b

    def test_sensitive_to_config_and_grid(self):
        base = build_manifest("exp", "config-a", ["k1"], {})
        assert build_manifest("exp", "config-b", ["k1"], {}) != base
        assert build_manifest("exp", "config-a", ["k2"], {}) != base

    def test_check_manifest_raises_with_fields(self):
        stored = build_manifest("exp", "config-a", ["k1"], {"n": 1})
        current = build_manifest("exp", "config-a", ["k1"], {"n": 2})
        with pytest.raises(ResumeManifestMismatch) as excinfo:
            check_manifest(stored, current)
        assert "parameters" in excinfo.value.mismatches

    def test_check_manifest_accepts_equal(self):
        manifest = build_manifest("exp", "c", ["k"], {})
        check_manifest(manifest, dict(manifest))


class TestRunJournal:
    def _manifest(self):
        return build_manifest("test", "cfg", ["a", "b"], {})

    def test_create_load_round_trip(self, tmp_path):
        journal = RunJournal.open(tmp_path, self._manifest())
        journal.record_done("a", {"value": 1}, attempts=1)
        journal.record_failed(
            CellFailure("b", 3, "ValueError", "boom", "tb-text")
        )
        journal.flush()
        loaded = RunJournal.load(tmp_path)
        assert loaded.manifest == journal.manifest
        assert loaded.entry("a")["payload"] == {"value": 1}
        failure = loaded.failure_for("b")
        assert failure.error_type == "ValueError"
        assert failure.traceback == "tb-text"
        assert loaded.counts() == {"done": 1, "failed": 1}

    def test_flush_leaves_no_temp_files(self, tmp_path):
        journal = RunJournal.open(tmp_path, self._manifest())
        for i in range(5):
            journal.record_done(f"k{i}", i, attempts=1)
            journal.flush()
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]

    def test_load_missing_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunJournal.load(tmp_path)

    def test_resume_checks_manifest(self, tmp_path):
        RunJournal.open(tmp_path, self._manifest())
        other = build_manifest("test", "different-config", ["a", "b"], {})
        with pytest.raises(ResumeManifestMismatch):
            RunJournal.open(tmp_path, other, resume=True)

    def test_resume_with_matching_manifest(self, tmp_path):
        journal = RunJournal.open(tmp_path, self._manifest())
        journal.record_done("a", 41, attempts=1)
        journal.flush()
        resumed = RunJournal.open(tmp_path, self._manifest(), resume=True)
        assert resumed.entry("a")["payload"] == 41

    def test_tolerates_torn_trailing_line(self, tmp_path):
        journal = RunJournal.open(tmp_path, self._manifest())
        journal.record_done("a", 1, attempts=1)
        journal.flush()
        with open(journal.path, "a") as handle:
            handle.write('{"key": "b", "status": "do')  # torn append
        loaded = RunJournal.load(tmp_path)
        assert loaded.entry("a") is not None
        assert loaded.entry("b") is None


class TestSupervisedSerial:
    """workers=1: in-process execution with inline retries."""

    def test_plain_map_in_order(self):
        runner = SupervisedRunner(workers=1)
        assert runner.map(_double, [1, 2, 3], ["a", "b", "c"]) == [2, 4, 6]

    def test_transient_failure_retried(self, tmp_path):
        runner = SupervisedRunner(
            workers=1, policy=SupervisionPolicy(max_attempts=3, **FAST)
        )
        marker = str(tmp_path / "m")
        out = runner.map(
            _fail_until_marker, [(marker, "ok")], ["cell"]
        )
        assert out == ["ok"]

    def test_poison_cell_quarantined_run_completes(self):
        runner = SupervisedRunner(
            workers=1, policy=SupervisionPolicy(max_attempts=2, **FAST)
        )
        out = runner.map(
            _always_raise_or_pass,
            ["good-1", "poison", "good-2"],
            ["a", "b", "c"],
        )
        results, failures = split_outcomes(out)
        assert results == ["good-1", "good-2"]
        assert len(failures) == 1
        assert failures[0].key == "b"
        assert failures[0].attempts == 2
        assert failures[0].error_type == "ValueError"
        assert "poison" in failures[0].traceback

    def test_duplicate_keys_rejected(self):
        runner = SupervisedRunner(workers=1)
        with pytest.raises(OrchestrationError, match="unique"):
            runner.map(_double, [1, 2], ["same", "same"])

    def test_empty_grid(self):
        assert SupervisedRunner(workers=1).map(_double, [], []) == []


class TestSupervisedPool:
    """workers>1: pool execution, worker death, wall-clock budget."""

    def test_transient_pool_failure_retried(self, tmp_path):
        runner = SupervisedRunner(
            workers=2,
            policy=SupervisionPolicy(
                max_attempts=3, cell_timeout_seconds=30.0, **FAST
            ),
        )
        marker = str(tmp_path / "m")
        out = runner.map(
            _fail_until_marker,
            [(marker, "recovered"), (str(tmp_path / "n"), "steady")],
            ["cell-a", "cell-b"],
        )
        assert out[0] == "recovered"

    def test_poison_quarantined_others_complete(self):
        runner = SupervisedRunner(
            workers=2,
            policy=SupervisionPolicy(
                max_attempts=2, cell_timeout_seconds=30.0, **FAST
            ),
        )
        out = runner.map(
            _always_raise_or_pass,
            ["ok-1", "poison", "ok-2", "ok-3"],
            list("abcd"),
        )
        results, failures = split_outcomes(out)
        assert results == ["ok-1", "ok-2", "ok-3"]
        assert [f.key for f in failures] == ["b"]
        assert failures[0].error_type == "ValueError"

    def test_worker_death_retried_on_fresh_pool(self, tmp_path):
        """os._exit in a worker loses the task; the timeout watchdog
        reclaims it and the retry on a fresh pool succeeds."""
        runner = SupervisedRunner(
            workers=2,
            policy=SupervisionPolicy(
                max_attempts=3, cell_timeout_seconds=3.0, **FAST
            ),
        )
        marker = str(tmp_path / "died")
        out = runner.map(
            _die_once, [(marker, "revived"), (str(tmp_path / "n"), "fine")][:2],
            ["d", "e"],
        )
        assert out[0] == "revived"

    def test_hung_cell_times_out_and_quarantines(self):
        runner = SupervisedRunner(
            workers=2,
            policy=SupervisionPolicy(
                max_attempts=1, cell_timeout_seconds=1.0, **FAST
            ),
        )
        start = time.monotonic()
        out = runner.map(_hang_or_pass, ["hang", "ok-1", "ok-2"], list("abc"))
        elapsed = time.monotonic() - start
        results, failures = split_outcomes(out)
        assert results == ["ok-1", "ok-2"]
        assert failures[0].error_type == "CellTimeoutError"
        assert elapsed < 20  # watchdog, not the 60s sleep


def _always_raise_or_pass(payload):
    if payload == "poison":
        raise ValueError("poison cell")
    return payload


def _hang_or_pass(payload):
    if payload == "hang":
        time.sleep(60)
    return payload


class TestJournaledRuns:
    """Checkpointing, interruption, and resume at the runner level."""

    def _journal(self, tmp_path, keys):
        manifest = build_manifest("unit", "cfg", keys, {})
        return RunJournal.open(tmp_path, manifest, resume=False)

    def test_results_checkpointed_per_cell(self, tmp_path):
        keys = ["a", "b", "c"]
        journal = self._journal(tmp_path, keys)
        runner = SupervisedRunner(workers=1, journal=journal)
        runner.map(_double, [1, 2, 3], keys)
        loaded = RunJournal.load(tmp_path)
        assert loaded.counts() == {"done": 3, "failed": 0}
        assert [loaded.entry(k)["payload"] for k in keys] == [2, 4, 6]

    def test_die_after_flushes_leaves_loadable_journal(self, tmp_path):
        keys = ["a", "b", "c"]
        journal = self._journal(tmp_path, keys)
        runner = SupervisedRunner(
            workers=1,
            journal=journal,
            policy=SupervisionPolicy(die_after_flushes=1, **FAST),
        )
        with pytest.raises(KeyboardInterrupt):
            runner.map(_double, [1, 2, 3], keys)
        loaded = RunJournal.load(tmp_path)
        assert loaded.counts()["done"] == 1
        assert loaded.entry("a")["payload"] == 2

    def test_keyboard_interrupt_flushes_journal(self, tmp_path):
        keys = ["a", "b", "c"]
        journal = self._journal(tmp_path, keys)
        runner = SupervisedRunner(workers=1, journal=journal)
        with pytest.raises(KeyboardInterrupt):
            runner.map(_interrupt_on, [("x", "v1"), ("x", "x"), ("x", "v3")], keys)
        loaded = RunJournal.load(tmp_path)
        assert loaded.entry("a")["payload"] == "v1"

    def test_resume_skips_done_cells_and_matches_uninterrupted(self, tmp_path):
        keys = ["a", "b", "c"]
        clean = SupervisedRunner(workers=1).map(_double, [1, 2, 3], keys)

        journal = self._journal(tmp_path, keys)
        runner = SupervisedRunner(
            workers=1,
            journal=journal,
            policy=SupervisionPolicy(die_after_flushes=2, **FAST),
        )
        with pytest.raises(KeyboardInterrupt):
            runner.map(_double, [1, 2, 3], keys)

        manifest = build_manifest("unit", "cfg", keys, {})
        resumed_journal = RunJournal.open(tmp_path, manifest, resume=True)
        calls = []

        def counting(payload):
            calls.append(payload)
            return _double(payload)

        resumed = SupervisedRunner(workers=1, journal=resumed_journal).map(
            counting, [1, 2, 3], keys
        )
        assert resumed == clean
        assert calls == [3]  # only the un-journaled cell re-ran

    def test_failed_cells_stay_quarantined_on_resume(self, tmp_path):
        keys = ["a"]
        journal = self._journal(tmp_path, keys)
        journal.record_failed(CellFailure("a", 3, "ValueError", "m", "tb"))
        journal.flush()
        manifest = build_manifest("unit", "cfg", keys, {})
        resumed = RunJournal.open(tmp_path, manifest, resume=True)
        out = SupervisedRunner(workers=1, journal=resumed).map(
            _double, [1], keys
        )
        assert isinstance(out[0], CellFailure)

    def test_codec_normalization(self, tmp_path):
        """With a journal, fresh results round-trip the codec so a
        resumed run returns indistinguishable objects."""
        keys = ["a"]
        journal = self._journal(tmp_path, keys)
        out = SupervisedRunner(workers=1, journal=journal).map(
            lambda payload: (payload, payload),
            [1],
            keys,
            encode=lambda value: list(value),
            decode=tuple,
        )
        assert out == [(1, 1)]

    def test_cell_timeout_error_carries_key(self):
        error = CellTimeoutError("probe/0001/amnt", 12.5)
        assert error.key == "probe/0001/amnt"
        assert "12.5" in str(error)


# -- unit functions (a list of payloads in, their results out) ----------


def _touch_unit(payloads):
    """Touch each payload's marker file, then double its value."""
    for marker, _ in payloads:
        Path(marker).touch()
    return [value * 2 for _, value in payloads]


def _poison_unit(payloads):
    if "poison" in payloads:
        raise ValueError("poison in unit")
    return list(payloads)


def _slow_unit(payloads):
    """Half a second per cell; a lone cell fails, so a split shows."""
    if len(payloads) == 1:
        raise ValueError("unit was split")
    time.sleep(0.5 * len(payloads))
    return list(payloads)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
class TestSupervisedUnits:
    """``run_units``: one journal entry per cell, units split on failure."""

    KEYS = list("abcde")
    UNITS = [[0, 1], [2, 3], [4]]

    def _journal(self, tmp_path):
        manifest = build_manifest("units", "cfg", self.KEYS, {})
        return RunJournal.open(tmp_path / "run", manifest)

    def _payloads(self, tmp_path):
        return [(str(tmp_path / f"ran-{key}"), i) for i, key in enumerate(self.KEYS)]

    def test_fully_journaled_unit_is_never_dispatched(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        journal.record_done("a", 100, attempts=1)
        journal.record_done("b", 102, attempts=1)
        out = SupervisedRunner(workers=workers, journal=journal).run_units(
            _touch_unit, self._payloads(tmp_path), self.KEYS, self.UNITS
        )
        assert out == [100, 102, 4, 6, 8]
        ran = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ran-"))
        assert ran == ["ran-c", "ran-d", "ran-e"]

    def test_partly_journaled_unit_reruns_keeping_entries(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        journal.record_done("b", "journaled", attempts=2)
        out = SupervisedRunner(workers=workers, journal=journal).run_units(
            _touch_unit, self._payloads(tmp_path), self.KEYS, self.UNITS
        )
        assert out == [0, "journaled", 4, 6, 8]
        assert (tmp_path / "ran-b").exists()  # the whole unit reran
        loaded = RunJournal.load(tmp_path / "run")
        assert loaded.entry("b")["payload"] == "journaled"
        assert loaded.entry("b")["attempts"] == 2
        assert loaded.entry("a")["attempts"] == 1

    def test_poison_unit_splits_and_quarantines_one_key(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        runner = SupervisedRunner(
            workers=workers,
            journal=journal,
            policy=SupervisionPolicy(
                max_attempts=2, cell_timeout_seconds=30.0, **FAST
            ),
        )
        out = runner.run_units(
            _poison_unit,
            ["ok-1", "poison", "ok-2", "ok-3", "ok-4"],
            self.KEYS,
            [[0, 1, 2], [3, 4]],
        )
        results, failures = split_outcomes(out)
        assert results == ["ok-1", "ok-2", "ok-3", "ok-4"]
        assert [f.key for f in failures] == ["b"]
        assert failures[0].attempts == 2  # lone tries only
        assert failures[0].error_type == "ValueError"
        loaded = RunJournal.load(tmp_path / "run")
        assert [loaded.entry(k)["attempts"] for k in "acde"] == [1, 1, 1, 1]


def test_unit_timeout_budget_scales_with_cell_count():
    """Units of 3 and 2 cells take 1.5 s and 1.0 s against a 1 s
    budget per cell: neither times out, so neither splits."""
    runner = SupervisedRunner(
        workers=2,
        policy=SupervisionPolicy(
            max_attempts=1, cell_timeout_seconds=1.0, **FAST
        ),
    )
    out = runner.run_units(
        _slow_unit, list("abcde"), list("abcde"), [[0, 1, 2], [3, 4]]
    )
    assert out == list("abcde")
