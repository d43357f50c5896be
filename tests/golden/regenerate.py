"""Regenerate the committed golden results in ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

This script is the only writer of ``results.json`` and
``campaign.json``. ``tests/test_golden.py`` recomputes every cell and
compares it with the committed value, so any change to a simulated
number or a recovery outcome fails tier-1 until the files are
regenerated. A regenerated ``results.json`` that differs must come with
a ``RESULT_EPOCH`` bump (``repro/store/fingerprint.py``); either file
changing needs a line in CHANGES.md saying why the results moved.

``results.json``'s grid is every registered protocol on four rows:

* ``canneal``: one PARSEC program, 2,000 accesses;
* ``canneal-llc64k``: the same trace behind a 64 KB LLC. At the
  default 16 MB LLC nothing is evicted at this length, so this is the
  row where dirty evictions reach the MEE and the persistence protocols
  write through;
* ``bodytrack+fluidanimate``: the scattered multiprogram pair, 1,000
  accesses each over an allocator aged by ``scatter_span_chunks=40``
  (the AMNT++ OS places its pages differently);
* ``kvstore``: the fenced storage trace, 2,000 accesses.

``campaign.json`` is a reduced crash campaign under the write-pending
queue model (``persist_model="wpq"``): leaf, anubis and amnt on
``faults/hotshift``, 600 accesses, a crash every 200 accesses, one
sample per crash window and one data-tamper crash. Each cell keeps its
verdict, crash-state coverage and recovery counts, so a change to a
recovery procedure or to the crash-state explorer shows up here.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "results.json")
CAMPAIGN_PATH = os.path.join(_HERE, "campaign.json")

SEED = 2024
CANNEAL_ACCESSES = 2_000
PAIR = ("bodytrack", "fluidanimate")
PAIR_ACCESSES_EACH = 1_000
PAIR_SCATTER_SPAN_CHUNKS = 40
STORAGE_APP = "kvstore"
STORAGE_ACCESSES = 2_000
SMALL_LLC_BYTES = 64 * 1024
CAMPAIGN_PROTOCOLS = ("leaf", "anubis", "amnt")
CAMPAIGN_ACCESSES = 600
CAMPAIGN_CRASH_EVERY = 200
#: The per-cell fields the campaign slice records.
CAMPAIGN_FIELDS = (
    "protocol",
    "trigger",
    "tamper",
    "verdict",
    "crash_states_total",
    "crash_states_explored",
    "torn_states",
    "nodes_recomputed",
    "pages_verified",
    "blocks_checked",
)


def golden_traces():
    """``{name: (trace, scatter_span_chunks, config)}`` for the grid's
    rows.

    ``trace`` is a :class:`~repro.workloads.registry.TraceSpec` for the
    PARSEC traces and a materialized ``Trace`` for the storage one (the
    storage generator has no spec kind), so a plan sweep covers both the
    cached and the sweep-local compile.
    """
    from dataclasses import replace

    from repro.config import DataCacheConfig, default_config
    from repro.workloads.registry import multiprogram_spec, profile_spec
    from repro.workloads.storage import generate_storage_trace, storage_profile

    config = default_config()
    canneal = profile_spec("parsec", "canneal", CANNEAL_ACCESSES, SEED)
    small_llc = replace(
        config,
        llc=DataCacheConfig(capacity_bytes=SMALL_LLC_BYTES, associativity=16),
    )
    return {
        "canneal": (canneal, 0, config),
        "canneal-llc64k": (canneal, 0, small_llc),
        "+".join(PAIR): (
            multiprogram_spec("parsec", PAIR, PAIR_ACCESSES_EACH, SEED),
            PAIR_SCATTER_SPAN_CHUNKS,
            config,
        ),
        STORAGE_APP: (
            generate_storage_trace(
                storage_profile(STORAGE_APP), seed=SEED, accesses=STORAGE_ACCESSES
            ),
            0,
            config,
        ),
    }


def compute_cells() -> Dict[str, Dict[str, dict]]:
    """Every grid cell's full result, through the plan-driven sweep."""
    from repro.core.protocol import protocol_names
    from repro.sim.runner import run_protocol_sweep

    cells: Dict[str, Dict[str, dict]] = {}
    for name, (trace, scatter, config) in golden_traces().items():
        results = run_protocol_sweep(
            trace,
            config,
            protocols=protocol_names(),
            seed=SEED,
            scatter_span_chunks=scatter,
        )
        cells[name] = {
            protocol: result.to_json_dict() for protocol, result in results.items()
        }
    return cells


def compute_campaign_slice() -> List[dict]:
    """Every crash cell of the reduced WPQ campaign, in campaign order."""
    from repro.faults.campaign import default_fault_config, run_campaign
    from repro.workloads.registry import profile_spec

    report = run_campaign(
        CAMPAIGN_PROTOCOLS,
        [profile_spec("faults", "hotshift", CAMPAIGN_ACCESSES, SEED)],
        config=default_fault_config(persist_model="wpq"),
        crash_every=CAMPAIGN_CRASH_EVERY,
        phase_samples=1,
        tamper_crashes=1,
        seed=SEED,
    )
    return [
        {name: getattr(cell, name) for name in CAMPAIGN_FIELDS}
        for cell in report.cells
    ]


def _write(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    from repro.store.fingerprint import RESULT_EPOCH

    _write(
        GOLDEN_PATH,
        {"epoch": RESULT_EPOCH, "seed": SEED, "cells": compute_cells()},
    )
    _write(CAMPAIGN_PATH, {"seed": SEED, "cells": compute_campaign_slice()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
