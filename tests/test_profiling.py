"""The profiling subsystem: phase attribution, schema, CLI artifact."""

import json

import pytest

from repro.bench.profiling import (
    MEASURED_PHASES,
    PROFILE_SCHEMA,
    format_profile,
    profile_run,
    validate_profile_document,
    write_profile_artifact,
)
from repro.cli import main


@pytest.fixture(scope="module")
def document():
    """One small timing-mode profile, shared across the module."""
    return profile_run(
        benchmark="blackscholes",
        protocol="leaf",
        accesses=1500,
        seed=11,
        capture_cprofile=True,
        top=5,
    )


class TestProfileRun:
    def test_schema_valid(self, document):
        assert validate_profile_document(document) == []

    def test_schema_tag(self, document):
        assert document["schema"] == PROFILE_SCHEMA

    def test_all_phases_measured(self, document):
        for name in MEASURED_PHASES + ("engine_other", "total"):
            assert document["phases"][name] >= 0.0

    def test_engine_subphases_partition_engine(self, document):
        phases = document["phases"]
        parts = phases["mee"] + phases["bmt"] + phases["engine_other"]
        assert parts == pytest.approx(phases["engine"], rel=1e-3, abs=1e-5)

    def test_direct_run_keeps_data_side_out_of_mee(self, document):
        # simulate() runs its data-side walk inside the MEE's event-loop
        # call; address translation, the LLC and churn must still land
        # in engine_other, not in mee.
        phases = document["phases"]
        assert phases["engine_other"] > 0.0
        assert phases["engine_other"] > 0.05 * phases["engine"]

    def test_timing_mode_has_no_bmt_time(self, document):
        assert document["phases"]["bmt"] == 0.0

    def test_result_matches_sweep_semantics(self, document):
        assert document["result"]["accesses"] == 1500
        assert document["result"]["cycles"] > 0

    def test_hotspots_captured_and_bounded(self, document):
        hotspots = document["hotspots"]
        assert 0 < len(hotspots) <= 5
        assert all(row["tottime"] >= 0 for row in hotspots)

    def test_fractions_sum_to_one(self, document):
        fractions = document["phase_fractions"]
        top_level = (
            fractions["trace_gen"]
            + fractions["setup"]
            + fractions["engine"]
            + fractions["export"]
        )
        assert top_level == pytest.approx(1.0, abs=0.01)

    def test_functional_run_attributes_bmt(self):
        doc = profile_run(
            benchmark="blackscholes",
            protocol="leaf",
            accesses=400,
            seed=11,
            functional=True,
            integrity_mode="lazy",
            capture_cprofile=False,
        )
        assert validate_profile_document(doc) == []
        assert doc["phases"]["bmt"] > 0.0
        assert doc["hotspots"] == []

    def test_unknown_integrity_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            profile_run(integrity_mode="never")

    def test_plan_run_measures_boundary_plan(self):
        doc = profile_run(
            benchmark="blackscholes",
            protocol="leaf",
            accesses=1500,
            seed=11,
            capture_cprofile=False,
            replay=True,
        )
        assert validate_profile_document(doc) == []
        assert doc["run"]["replay"] is True
        assert doc["run"]["plan"] is True
        assert doc["phases"]["boundary_compile"] > 0.0
        assert doc["phases"]["boundary_plan"] > 0.0
        # The planned replay produces the same result as the direct run.
        direct = profile_run(
            benchmark="blackscholes",
            protocol="leaf",
            accesses=1500,
            seed=11,
            capture_cprofile=False,
        )
        assert doc["result"] == direct["result"]

    def test_direct_run_compiles_nothing(self, document):
        assert document["run"]["replay"] is False
        assert document["run"]["plan"] is False
        assert document["phases"]["boundary_compile"] == 0.0
        assert document["phases"]["boundary_plan"] == 0.0


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_profile_document([]) != []

    def test_rejects_wrong_schema(self, document):
        bad = dict(document, schema="repro.profile/v0")
        assert any("schema" in p for p in validate_profile_document(bad))

    def test_rejects_missing_phase(self, document):
        bad = dict(document, phases={"engine": 1.0})
        assert any("phases" in p for p in validate_profile_document(bad))

    def test_rejects_negative_phase(self, document):
        phases = dict(document["phases"], engine=-0.1)
        bad = dict(document, phases=phases)
        assert any("engine" in p for p in validate_profile_document(bad))

    def test_rejects_malformed_hotspots(self, document):
        bad = dict(document, hotspots=[{"tottime": 1.0}])
        assert any("hotspots" in p for p in validate_profile_document(bad))


class TestArtifactAndCli:
    def test_artifact_roundtrip(self, document, tmp_path):
        path = tmp_path / "PROFILE_run.json"
        write_profile_artifact(document, path)
        assert validate_profile_document(json.loads(path.read_text())) == []

    def test_format_profile_mentions_phases(self, document):
        text = format_profile(document)
        for name in ("trace_gen", "engine", "mee", "bmt", "export"):
            assert name in text

    def test_cli_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "PROFILE_cli.json"
        code = main(
            [
                "profile",
                "blackscholes",
                "--protocol",
                "leaf",
                "--accesses",
                "1000",
                "--no-cprofile",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "phase attribution" in capsys.readouterr().out
        assert validate_profile_document(json.loads(out.read_text())) == []

    def test_cli_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "nosuchbench", "--output", ""])
