"""Golden results: every cell of a small grid equals its committed value.

``tests/golden/results.json`` holds the full
:meth:`~repro.sim.results.SimulationResult.to_json_dict` of every
registered protocol on four rows (see ``tests/golden/regenerate.py``,
the file's only writer). Each cell is recomputed twice — through the
plan-driven sweep and through a direct ``simulate()`` cell — so a drift
that both engine paths share fails here instead of passing as
"bit-identical to each other". On canneal the functional (real-crypto)
machine is checked too, through both paths.

``tests/golden/campaign.json`` holds a reduced crash campaign under the
write-pending queue model; it is recomputed and compared cell by cell,
so a recovery procedure that changes a verdict, a crash-state count or
``nodes_recomputed`` fails here.
"""

from __future__ import annotations

import json

import pytest

from repro.core.protocol import protocol_names
from repro.sim.parallel import SweepCell, run_cell
from repro.sim.runner import run_protocol_sweep
from repro.store.fingerprint import RESULT_EPOCH
from repro.workloads.registry import TraceSpec, literal_spec
from tests.golden.regenerate import (
    CAMPAIGN_PATH,
    GOLDEN_PATH,
    SEED,
    compute_campaign_slice,
    golden_traces,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traces():
    return golden_traces()


def _spec(trace) -> TraceSpec:
    return trace if isinstance(trace, TraceSpec) else literal_spec(trace)


def test_epoch_matches_result_epoch(golden):
    # A regenerated file that moved any number must bump RESULT_EPOCH so
    # warm result stores invalidate; the committed file records the
    # epoch it was generated under.
    assert golden["epoch"] == RESULT_EPOCH
    assert golden["seed"] == SEED


def test_grid_covers_every_protocol(golden, traces):
    assert sorted(golden["cells"]) == sorted(traces)
    for cells in golden["cells"].values():
        assert sorted(cells) == protocol_names()


ROWS = ["canneal", "canneal-llc64k", "bodytrack+fluidanimate", "kvstore"]


@pytest.mark.parametrize("name", ROWS)
def test_plan_sweep_matches_golden(golden, traces, name):
    trace, scatter, config = traces[name]
    results = run_protocol_sweep(
        trace,
        config,
        protocols=protocol_names(),
        seed=SEED,
        scatter_span_chunks=scatter,
    )
    for protocol, result in results.items():
        assert result.to_json_dict() == golden["cells"][name][protocol], protocol


@pytest.mark.parametrize("name", ROWS)
def test_direct_cells_match_golden(golden, traces, name):
    trace, scatter, config = traces[name]
    for protocol in protocol_names():
        cell = SweepCell(
            protocol=protocol,
            trace=_spec(trace),
            seed=SEED,
            scatter_span_chunks=scatter,
            replay=False,
        )
        expected = golden["cells"][name][protocol]
        assert run_cell(cell, config).to_json_dict() == expected, protocol


@pytest.mark.parametrize("replay", [True, False], ids=["plan", "direct"])
def test_functional_canneal_matches_golden(golden, traces, replay):
    trace, scatter, config = traces["canneal"]
    for protocol in protocol_names():
        cell = SweepCell(
            protocol=protocol,
            trace=trace,
            seed=SEED,
            scatter_span_chunks=scatter,
            functional=True,
            replay=replay,
        )
        expected = golden["cells"]["canneal"][protocol]
        assert run_cell(cell, config).to_json_dict() == expected, protocol


def test_campaign_slice_matches_golden():
    with open(CAMPAIGN_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed["seed"] == SEED
    assert compute_campaign_slice() == committed["cells"]
