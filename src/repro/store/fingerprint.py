"""Cell fingerprints: the result store's content addresses.

A fingerprint must satisfy two properties or the store is worse than
useless:

1. **Completeness** — every input that can change a
   :class:`~repro.sim.results.SimulationResult` is in the hashed
   closure. Miss one and the store serves a stale result for a changed
   knob (silent wrong numbers, the cardinal sin of a cache).
2. **Stability modulo execution strategy** — inputs that provably
   *cannot* change the result stay out. The direct and compiled-plan
   drivers run the MEE's one event loop and are bit-identical
   (property-tested in ``tests/test_plan.py``), so ``replay`` does not
   participate; a warm sweep hits regardless of which driver computed
   the entry.

The closure hashed here is therefore: the full effective
:class:`~repro.config.SystemConfig` (geometry, timing, metadata cache,
protocol knobs, ``persist_model`` — everything, via its dataclass
fields), the resolved :class:`~repro.workloads.registry.TraceSpec`
recipe including its seed, the engine seed and churn schedule, the
allocator aging knob, ``functional``, the protocol name, and a
schema + code-epoch version so entries written by an older simulator
can never alias a newer one's.

The digest itself is :func:`repro.util.fingerprint.digest_payload` —
the same canonical-JSON sha256 the run journals' manifests are built
on. One digest implementation, everywhere.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.util.fingerprint import digest_payload

#: Store object schema tag. Bump when the on-disk object layout changes.
STORE_SCHEMA = "repro.store/v1"

#: Result-semantics epoch. Bump this whenever a change to the simulator
#: alters SimulationResults for unchanged inputs (a timing-model fix, a
#: stat rename, a protocol behaviour change): every fingerprint changes,
#: so stale entries from the previous epoch can never be served. The
#: library version participates too, but the epoch is the explicit,
#: reviewable switch — a version bump for docs-only changes should NOT
#: invalidate a store, and this constant is how that distinction is
#: drawn.
RESULT_EPOCH = 1


def _library_version() -> str:
    from repro import __version__

    return __version__


def fingerprint_payload(cell: Any, config: Any) -> Dict[str, Any]:
    """The jsonable input closure of one sweep cell.

    ``cell`` is a :class:`~repro.sim.parallel.SweepCell` (duck-typed to
    avoid an import cycle: ``repro.sim`` imports this package for the
    incremental path). ``config`` is the runner-level
    :class:`~repro.config.SystemConfig`; a cell-level override wins,
    exactly as in :func:`repro.sim.parallel.run_cell`.

    Exposed separately from :func:`cell_fingerprint` so tests (and
    curious humans) can inspect *what* was hashed, not just the hash.
    """
    effective = cell.config if cell.config is not None else config
    return {
        "schema": STORE_SCHEMA,
        "epoch": RESULT_EPOCH,
        "library_version": _library_version(),
        "protocol": cell.protocol,
        # TraceSpec is a frozen dataclass; jsonable() inside
        # digest_payload reduces it (names tuple, literal payload and
        # all) to canonical JSON.
        "trace": cell.trace,
        "seed": cell.seed,
        "churn_interval": cell.churn_interval,
        "scatter_span_chunks": cell.scatter_span_chunks,
        "functional": cell.functional,
        # The *entire* effective config: data/metadata geometry, PCM
        # timing, every protocol's knobs, and persist_model. Hashing
        # the whole dataclass means a future config field is in the
        # closure the day it is added — completeness by construction.
        "config": effective,
    }


def cell_fingerprint(cell: Any, config: Any) -> str:
    """The store address of one sweep cell's result (64-char hex)."""
    return digest_payload(fingerprint_payload(cell, config))
