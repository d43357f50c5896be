"""Content-addressed result store: fingerprints, CAS semantics,
incremental sweeps, journal composition, CLI surface."""

import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import EXIT_INTEGRITY, EXIT_OK, main
from repro.config import default_config
from repro.core.protocol import protocol_names
from repro.sim.parallel import ParallelSweepRunner, SweepCell
from repro.sim.runner import run_protocol_sweep, sweep_normalized
from repro.store import (
    RESULT_EPOCH,
    STORE_SCHEMA,
    ResultStore,
    cell_fingerprint,
    fingerprint_payload,
    resolve_store_dir,
)
from repro.store.store import STORE_DIR_ENV
from repro.util.units import MB
from repro.workloads.registry import profile_spec

SPEC = profile_spec("parsec", "blackscholes", 300, 7)
PROTOCOLS = ("volatile", "leaf", "amnt")


def small_cells(protocols=PROTOCOLS, **changes):
    return [
        SweepCell(protocol=name, trace=SPEC, seed=7, **changes)
        for name in protocols
    ]


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _restore_telemetry_switch():
    """CLI runs below pass ``--no-telemetry``, which flips the global
    collection switch; leave it as found for later test modules."""
    prev = telemetry.enabled()
    yield
    telemetry.set_enabled(prev)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self, small_config):
        cell = small_cells()[0]
        assert cell_fingerprint(cell, small_config) == cell_fingerprint(
            cell, small_config
        )

    def test_payload_contents(self, small_config):
        cell = small_cells()[0]
        payload = fingerprint_payload(cell, small_config)
        assert payload["schema"] == STORE_SCHEMA
        assert payload["epoch"] == RESULT_EPOCH
        assert payload["protocol"] == "volatile"
        assert payload["seed"] == 7
        assert payload["config"] is small_config

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 8},
            {"protocol": "leaf"},
            {"churn_interval": 999},
            {"scatter_span_chunks": 4},
            {"functional": True},
            # A cell-level config override wins over the runner's.
            {"config": default_config(capacity_bytes=128 * MB)},
            {"trace": profile_spec("parsec", "blackscholes", 301, 7)},
        ],
    )
    def test_every_semantic_knob_changes_the_fingerprint(
        self, small_config, changes
    ):
        """Negative aliasing tests: any fingerprint-relevant change must
        miss — a stale result must never be served for a changed knob."""
        cell = small_cells()[0]
        assert cell_fingerprint(cell, small_config) != cell_fingerprint(
            replace(cell, **changes), small_config
        )

    def test_geometry_changes_the_fingerprint(self):
        cell = small_cells()[0]
        base = default_config(capacity_bytes=64 * MB)
        assert cell_fingerprint(cell, base) != cell_fingerprint(
            cell, default_config(capacity_bytes=128 * MB)
        )
        assert cell_fingerprint(cell, base) != cell_fingerprint(
            cell, default_config(capacity_bytes=64 * MB, subtree_level=2)
        )

    def test_persist_model_changes_the_fingerprint(self):
        cell = small_cells()[0]
        base = default_config(capacity_bytes=64 * MB)
        wpq = replace(base, persist_model="wpq")
        assert cell_fingerprint(cell, base) != cell_fingerprint(cell, wpq)

    def test_cell_config_override_wins(self, small_config):
        cell = small_cells()[0]
        other = default_config(capacity_bytes=128 * MB)
        pinned = replace(cell, config=other)
        # The runner-level config is irrelevant once the cell pins one.
        assert cell_fingerprint(pinned, small_config) == cell_fingerprint(
            pinned, other
        )

    def test_execution_strategy_is_excluded(self, small_config):
        """The direct and compiled-plan paths are bit-identical
        (property-tested elsewhere), so ``replay`` MUST NOT fragment the
        store."""
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        for replay in (True, False):
            assert cell_fingerprint(replace(cell, replay=replay), small_config) == fp


# ----------------------------------------------------------------------
# CAS semantics
# ----------------------------------------------------------------------


def _one_result(config, cell=None):
    cell = cell or small_cells()[0]
    return ParallelSweepRunner(workers=1).run([cell], config)[0]


class TestResultStore:
    def test_round_trip_bit_identical(self, store, small_config):
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        result = _one_result(small_config, cell)
        assert not store.contains(fp)
        store.put(fp, result, meta={"protocol": cell.protocol})
        assert store.contains(fp)
        fetched = store.get(fp)
        assert fetched.to_json() == ResultStore.normalize(result).to_json()
        assert store.session == {
            "hits": 1, "misses": 0, "puts": 1, "corrupt": 0,
        }

    def test_missing_object_is_a_miss(self, store):
        assert store.get("ab" * 32) is None
        assert store.session["misses"] == 1

    def test_corrupt_object_is_never_served(self, store, small_config):
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        store.put(fp, _one_result(small_config, cell))
        path = store.object_path(fp)
        # Torn write: a truncated JSON prefix.
        path.write_text(path.read_text()[:50])
        assert store.get(fp) is None
        assert store.session["corrupt"] == 1
        report = store.verify()
        assert report["checked"] == 1 and len(report["corrupt"]) == 1
        assert "torn" in report["corrupt"][0]["problem"]

    def test_bitflip_fails_digest_check(self, store, small_config):
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        store.put(fp, _one_result(small_config, cell))
        path = store.object_path(fp)
        document = json.loads(path.read_text())
        document["payload"]["cycles"] += 1
        path.write_text(json.dumps(document))
        assert store.get(fp) is None
        assert any(
            "digest mismatch" in item["problem"]
            for item in store.verify()["corrupt"]
        )

    def test_misaddressed_object_is_rejected(self, store, small_config):
        """An object copied to the wrong address must not be served."""
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        store.put(fp, _one_result(small_config, cell))
        wrong = ("0" if fp[0] != "0" else "1") + fp[1:]
        target = store.object_path(wrong)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.object_path(fp).read_text())
        assert store.get(wrong) is None

    def test_recompute_heals_corruption(self, store, small_config):
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        result = _one_result(small_config, cell)
        store.put(fp, result)
        store.object_path(fp).write_text("garbage")
        assert store.get(fp) is None
        store.put(fp, result)  # what the incremental path does on a miss
        assert store.get(fp) is not None
        assert not store.verify()["corrupt"]

    def test_verify_clean_store(self, store, small_config):
        for cell in small_cells():
            store.put(
                cell_fingerprint(cell, small_config),
                _one_result(small_config, cell),
            )
        report = store.verify()
        assert report == {"checked": 3, "ok": 3, "corrupt": []}

    def test_stats_and_ls(self, store, small_config):
        cells = small_cells()
        for cell in cells:
            store.put(
                cell_fingerprint(cell, small_config),
                _one_result(small_config, cell),
                meta={"protocol": cell.protocol, "workload": "blackscholes"},
            )
        stats = store.stats()
        assert stats["objects"] == 3
        assert stats["index_entries"] == 3
        assert stats["bytes"] > 0
        rows = store.ls()
        assert {row["protocol"] for row in rows} == set(PROTOCOLS)
        assert len(store.ls(limit=2)) == 2

    def test_duplicate_puts_collapse_in_ls(self, store, small_config):
        cell = small_cells()[0]
        fp = cell_fingerprint(cell, small_config)
        result = _one_result(small_config, cell)
        store.put(fp, result, meta={"protocol": cell.protocol})
        store.put(fp, result, meta={"protocol": cell.protocol})
        assert store.stats()["index_entries"] == 2  # append-only log
        assert len(store.ls()) == 1  # one live object, last entry wins


class TestGc:
    def _populate(self, store, small_config):
        cells = small_cells()
        for cell in cells:
            store.put(
                cell_fingerprint(cell, small_config),
                _one_result(small_config, cell),
            )
        return [cell_fingerprint(cell, small_config) for cell in cells]

    def test_max_objects_keeps_newest(self, store, small_config):
        fps = self._populate(store, small_config)
        # Make the first object decisively the oldest.
        old = store.object_path(fps[0])
        os.utime(old, (1, 1))
        report = store.gc(max_objects=2)
        assert report["removed"] == 1 and report["kept"] == 2
        assert not store.contains(fps[0])
        assert store.contains(fps[1]) and store.contains(fps[2])

    def test_max_age_uses_horizon(self, store, small_config):
        fps = self._populate(store, small_config)
        os.utime(store.object_path(fps[0]), (1, 1))
        mtime = store.object_path(fps[1]).stat().st_mtime
        report = store.gc(max_age_seconds=3600, now=mtime + 10)
        assert report["removed"] == 1
        assert not store.contains(fps[0])

    def test_index_keeps_live_entries_only(self, store, small_config):
        fps = self._populate(store, small_config)
        os.utime(store.object_path(fps[0]), (1, 1))
        store.gc(max_objects=2)
        kept = {entry["fingerprint"] for entry in store.ls()}
        assert kept == set(fps[1:])
        # Every index entry points at a live object.
        assert store.stats()["index_entries"] == 2

    def test_noop_gc_compacts_only(self, store, small_config):
        fps = self._populate(store, small_config)
        report = store.gc()
        assert report["removed"] == 0
        assert all(store.contains(fp) for fp in fps)


# -- concurrent writers (top-level target: picklable for spawn) ---------


def _writer_task(args):
    directory, protocols, config = args
    store = ResultStore(directory)
    for cell in small_cells(protocols):
        fp = cell_fingerprint(cell, config)
        store.put(fp, _one_result(config, cell))
    return store.session["puts"]


class TestConcurrentWriters:
    def test_two_processes_converge(self, tmp_path, small_config):
        """Two writers racing on overlapping grids: every object lands
        intact (identical content makes last-writer-wins a no-op)."""
        directory = tmp_path / "shared-store"
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=2) as pool:
            puts = pool.map(
                _writer_task,
                [
                    (str(directory), PROTOCOLS, small_config),
                    (str(directory), PROTOCOLS, small_config),
                ],
            )
        assert puts == [3, 3]
        store = ResultStore(directory)
        assert store.stats()["objects"] == 3
        assert not store.verify()["corrupt"]
        for cell in small_cells():
            assert store.get(cell_fingerprint(cell, small_config)) is not None


# ----------------------------------------------------------------------
# incremental sweeps
# ----------------------------------------------------------------------


class TestIncrementalRunner:
    def test_warm_equals_cold_equals_storeless(self, store, small_config):
        cells = small_cells()
        runner = ParallelSweepRunner(workers=1)
        cold = runner.run(cells, small_config, store=store)
        assert store.session["misses"] == 3 and store.session["puts"] == 3
        warm = runner.run(cells, small_config, store=store)
        assert store.session["hits"] == 3
        plain = runner.run(cells, small_config)
        for c, w, p in zip(cold, warm, plain):
            assert c.to_json() == w.to_json() == p.to_json()

    def test_partial_hit_partition(self, store, small_config):
        runner = ParallelSweepRunner(workers=1)
        runner.run(small_cells(("volatile",)), small_config, store=store)
        results = runner.run(small_cells(), small_config, store=store)
        assert store.session["hits"] == 1
        assert store.session["misses"] == 3  # probe misses + first cold run
        assert [r.protocol for r in results] == list(PROTOCOLS)

    def test_knob_change_misses(self, store, small_config):
        runner = ParallelSweepRunner(workers=1)
        runner.run(small_cells(), small_config, store=store)
        before = dict(store.session)
        runner.run(
            [replace(cell, seed=8) for cell in small_cells()],
            small_config,
            store=store,
        )
        assert store.session["hits"] == before["hits"]
        assert store.session["puts"] == before["puts"] + 3

    def test_all_protocols_bit_identical(self, small_config, tmp_path):
        """The acceptance property: warm is bit-identical to cold for
        every protocol, with functional state engaged."""
        cells = [
            SweepCell(protocol=name, trace=SPEC, seed=7, functional=True)
            for name in protocol_names()
        ]
        store = ResultStore(tmp_path / "property-store")
        runner = ParallelSweepRunner(workers=1)
        cold = runner.run(cells, small_config, store=store)
        assert store.session["puts"] == len(cells)
        warm = runner.run(cells, small_config, store=store)
        assert store.session["hits"] == len(cells)
        for cell, c, w in zip(cells, cold, warm):
            assert c.to_json() == w.to_json(), cell.protocol

    def test_run_protocol_sweep_store_path(self, store, small_config):
        kwargs = dict(protocols=PROTOCOLS, seed=7)
        cold = run_protocol_sweep(SPEC, small_config, store=store, **kwargs)
        warm = run_protocol_sweep(SPEC, small_config, store=store, **kwargs)
        plain = run_protocol_sweep(SPEC, small_config, **kwargs)
        for name in PROTOCOLS:
            assert (
                cold[name].to_json()
                == warm[name].to_json()
                == plain[name].to_json()
            )

    def test_sweep_normalized_store_path(self, store, small_config):
        kwargs = dict(protocols=PROTOCOLS, seed=7, baseline="volatile")
        cold = sweep_normalized(SPEC, small_config, store=store, **kwargs)
        warm = sweep_normalized(SPEC, small_config, store=store, **kwargs)
        assert cold == warm == sweep_normalized(SPEC, small_config, **kwargs)

    def test_raw_trace_is_fingerprinted_literally(self, store, small_config):
        from repro.workloads.registry import materialize_trace

        trace = materialize_trace(SPEC)
        cold = run_protocol_sweep(
            trace, small_config, protocols=("volatile",), store=store
        )
        warm = run_protocol_sweep(
            trace, small_config, protocols=("volatile",), store=store
        )
        assert store.session["hits"] == 1
        assert cold["volatile"].to_json() == warm["volatile"].to_json()


class TestJournalStoreCompose:
    def run(self, run_dir, store, **kwargs):
        from repro.sim.runner import run_resilient_sweep

        return run_resilient_sweep(
            run_dir,
            benchmarks=("blackscholes",),
            protocols=PROTOCOLS,
            accesses=300,
            seed=7,
            store=store,
            **kwargs,
        )

    def test_warm_run_artifact_bit_identical(self, tmp_path, store):
        cold = self.run(tmp_path / "cold", store)
        assert store.session["puts"] == 3
        warm = self.run(tmp_path / "warm", store)
        assert store.session["hits"] >= 3
        storeless = self.run(tmp_path / "plain", None)
        blob = Path(cold["artifact"]).read_bytes()
        assert blob == Path(warm["artifact"]).read_bytes()
        assert blob == Path(storeless["artifact"]).read_bytes()

    def test_warm_run_journals_zero_attempts(self, tmp_path, store):
        self.run(tmp_path / "cold", store)
        warm = self.run(tmp_path / "warm", store)
        assert warm["completed"] == 3
        journal = [
            json.loads(line)
            for line in Path(warm["journal"]).read_text().splitlines()
        ]
        entries = [rec for rec in journal if rec.get("status") == "done"]
        assert len(entries) == 3
        assert all(entry["attempts"] == 0 for entry in entries)

    def test_warm_run_compiles_no_stream(self, tmp_path, store, monkeypatch):
        from repro.sim import replay
        from repro.workloads.registry import compiled_cache_clear

        self.run(tmp_path / "cold", store)
        compiled_cache_clear()
        compiles = []
        real_compile = replay.compile_boundary_stream

        def counting_compile(*args, **kwargs):
            compiles.append(None)
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(replay, "compile_boundary_stream", counting_compile)
        warm = self.run(tmp_path / "warm", store, workers=2)
        assert warm["completed"] == 3
        assert len(compiles) == 0

    def test_resumed_journal_backfills_store(self, tmp_path, store):
        self.run(tmp_path / "run", None)  # journal only, store off
        outcome = self.run(tmp_path / "run", store, resume=True)
        assert outcome["completed"] == 3
        # Nothing recomputed, yet every journaled cell is now stored.
        assert store.session["puts"] == 3
        assert store.stats()["objects"] == 3


# ----------------------------------------------------------------------
# resolution + CLI surface
# ----------------------------------------------------------------------


class TestResolveStoreDir:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert resolve_store_dir() is None

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, "/env/store")
        assert resolve_store_dir("/flag/store") == Path("/flag/store")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, "/env/store")
        assert resolve_store_dir() == Path("/env/store")

    def test_no_store_wins(self, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, "/env/store")
        assert resolve_store_dir("/flag/store", no_store=True) is None


class TestStoreCli:
    def sweep(self, tmp_path, extra=()):
        return main(
            [
                "sweep", "blackscholes", "--accesses", "300",
                "--protocols", "volatile", "amnt",
                "--store-dir", str(tmp_path / "store"),
                "--no-telemetry", *extra,
            ]
        )

    def test_sweep_populates_then_hits(self, tmp_path, capsys):
        assert self.sweep(tmp_path) == EXIT_OK
        assert "2 miss(es)" in capsys.readouterr().out
        assert self.sweep(tmp_path) == EXIT_OK
        assert "2 hit(s)" in capsys.readouterr().out

    def test_no_store_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
        assert (
            main(
                [
                    "sweep", "blackscholes", "--accesses", "300",
                    "--protocols", "volatile",
                    "--no-store", "--no-telemetry",
                ]
            )
            == EXIT_OK
        )
        assert "store:" not in capsys.readouterr().out
        assert not (tmp_path / "env-store").exists()

    def test_stats_verify_ls_gc(self, tmp_path, capsys):
        self.sweep(tmp_path)
        capsys.readouterr()
        directory = str(tmp_path / "store")
        assert main(["store", "stats", "--store-dir", directory]) == EXIT_OK
        assert "objects" in capsys.readouterr().out
        assert main(["store", "verify", "--store-dir", directory]) == EXIT_OK
        assert "2 ok, 0 corrupt" in capsys.readouterr().out
        assert main(["store", "ls", "--store-dir", directory]) == EXIT_OK
        assert "volatile" in capsys.readouterr().out
        assert (
            main(
                [
                    "store", "gc", "--store-dir", directory,
                    "--max-objects", "1",
                ]
            )
            == EXIT_OK
        )
        assert "removed 1" in capsys.readouterr().out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        self.sweep(tmp_path)
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprints()[0]
        store.object_path(fp).write_text("torn")
        assert (
            main(["store", "verify", "--store-dir", str(store.directory)])
            == EXIT_INTEGRITY
        )
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.err

    def test_store_requires_directory(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        with pytest.raises(SystemExit):
            main(["store", "stats"])


class TestCacheLimitFlag:
    def test_cli_flag_applies(self, tmp_path, capsys):
        from repro.sim.parallel import MEMORY_TIER
        from repro.workloads.registry import (
            effective_cache_limits,
            set_compiled_cache_limit,
            set_trace_cache_limit,
        )

        before = effective_cache_limits()
        try:
            assert (
                main(
                    [
                        "sweep", "blackscholes", "--accesses", "300",
                        "--protocols", "volatile",
                        "--cache-limit", "5", "--no-telemetry",
                    ]
                )
                == EXIT_OK
            )
            assert effective_cache_limits() == {
                "trace": 5, "compiled": 5, "result": 5,
            }
        finally:
            set_trace_cache_limit(before["trace"])
            set_compiled_cache_limit(before["compiled"])
            MEMORY_TIER.cache.set_limit(before["result"])

    def test_invalid_limit_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "blackscholes", "--cache-limit", "0",
                    "--no-telemetry",
                ]
            )

    @pytest.mark.parametrize(
        "value,expected",
        [("7", {"trace": 7, "compiled": 7, "result": 7}),
         ("bogus", {"trace": 64, "compiled": 32, "result": 128}),
         ("0", {"trace": 64, "compiled": 32, "result": 128})],
    )
    def test_env_var_applies_at_import(self, value, expected):
        """$REPRO_CACHE_LIMIT is read at module import (so spawned
        workers inherit it); invalid values fall back to defaults."""
        import subprocess
        import sys

        out = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.workloads.registry import effective_cache_limits;"
                "import json; print(json.dumps(effective_cache_limits()))",
            ],
            env={**os.environ, "REPRO_CACHE_LIMIT": value},
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == expected
