"""Content-addressed result store with incremental sweeps.

Every sweep cell in this repository is a *pure function* of its inputs:
``(protocol, trace recipe, seeds, geometry, persist model) ->
SimulationResult``, bit-identically, on any machine. The
replay and plan compilers (:mod:`repro.sim.replay`,
:mod:`repro.sim.plan`) made each cell cheap *within* a process; this
package makes results free *across* processes: a persistent,
content-addressed store keyed by the cell's full input closure, and an
incremental execution path that consults it before computing.

* :mod:`repro.store.fingerprint` — canonical, stable cell fingerprints
  (the store addresses);
* :mod:`repro.store.store` — the on-disk CAS: sharded JSON objects plus
  a JSONL index, atomic-rename writers, digest-verified readers, GC.

The incremental path is threaded through
:meth:`repro.sim.parallel.ParallelSweepRunner.run`,
:func:`repro.sim.runner.run_protocol_sweep`, and
:func:`repro.sim.runner.run_resilient_sweep` via their ``store=``
parameter; fault campaigns never pass a store (they mutate machine
state mid-run through :func:`repro.faults.campaign.run_fault_cell`,
which pins the direct path). See docs/STORE.md.
"""

from repro.store.fingerprint import (
    RESULT_EPOCH,
    STORE_SCHEMA,
    cell_fingerprint,
    fingerprint_payload,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    STORE_DIR_ENV,
    ResultStore,
    resolve_store_dir,
)

__all__ = [
    "RESULT_EPOCH",
    "STORE_SCHEMA",
    "cell_fingerprint",
    "fingerprint_payload",
    "DEFAULT_STORE_DIR",
    "STORE_DIR_ENV",
    "ResultStore",
    "resolve_store_dir",
]
