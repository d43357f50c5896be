"""Regenerate ``tests/golden/results.json``, the committed golden results.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

This script is the only writer of the file. ``tests/test_golden.py``
recomputes every cell through both engine paths and compares it with
the committed value, so any change to a simulated number fails tier-1
until the file is regenerated. A regenerated file that differs must
come with a ``RESULT_EPOCH`` bump (``repro/store/fingerprint.py``) and a
line in CHANGES.md saying why the results moved.

The grid is every registered protocol on four rows:

* ``canneal``: one PARSEC program, 2,000 accesses;
* ``canneal-llc64k``: the same trace behind a 64 KB LLC. At the
  default 16 MB LLC nothing is evicted at this length, so this is the
  row where dirty evictions reach the MEE and the persistence protocols
  write through;
* ``bodytrack+fluidanimate``: the scattered multiprogram pair, 1,000
  accesses each over an allocator aged by ``scatter_span_chunks=40``
  (the AMNT++ OS places its pages differently);
* ``kvstore``: the fenced storage trace, 2,000 accesses.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results.json")

SEED = 2024
CANNEAL_ACCESSES = 2_000
PAIR = ("bodytrack", "fluidanimate")
PAIR_ACCESSES_EACH = 1_000
PAIR_SCATTER_SPAN_CHUNKS = 40
STORAGE_APP = "kvstore"
STORAGE_ACCESSES = 2_000
SMALL_LLC_BYTES = 64 * 1024


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


def main() -> int:
    from repro.store.fingerprint import RESULT_EPOCH

    document = {"epoch": RESULT_EPOCH, "seed": SEED, "cells": compute_cells()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
