"""In-memory storage application workloads (the paper's headline case).

The abstract claims AMNT's biggest wins "for in-memory storage
applications": databases and KV stores that use SCM for durable data
and *explicitly persist* their writes (CLWB + fence) rather than
letting them drain lazily through cache evictions. Every persisted
write reaches memory immediately, so the metadata persistence protocol
sits directly on the application's commit path — the harshest setting
for strict persistence and the best case for AMNT.

Profiles here model three canonical shapes:

* ``kvstore`` — point updates over a keyspace with a hot working set
  (YCSB-like), every update persisted;
* ``oltp`` — small transactions touching a few records plus an
  append-only log, log appends persisted;
* ``logger`` — an append-dominated stream (message queue / WAL),
  everything persisted, extreme spatial locality.

:func:`generate_storage_trace` augments the base synthetic generator
with a ``persist_fraction``: that share of writes carries the
``flush`` flag the simulation engine turns into an immediate memory
write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.util.rng import Seed, make_rng
from repro.util.units import MB
from repro.workloads.synthetic import BLOCK_BYTES, WorkloadProfile, generate_trace
from repro.workloads.trace import (
    _FLUSH_BIT,
    _WRITE_BIT,
    ColumnarAccesses,
    Trace,
)


@dataclass(frozen=True)
class StorageProfile:
    """A persistence-aware workload: base profile + flush behaviour."""

    base: WorkloadProfile
    #: Fraction of writes the application explicitly persists.
    persist_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.persist_fraction <= 1.0:
            raise ValueError(
                f"persist_fraction must be in [0, 1], got "
                f"{self.persist_fraction}"
            )

    @property
    def name(self) -> str:
        return self.base.name


STORAGE_PROFILES: Dict[str, StorageProfile] = {
    "kvstore": StorageProfile(
        base=WorkloadProfile(
            name="kvstore",
            footprint_bytes=48 * MB,
            num_accesses=120_000,
            write_fraction=0.45,
            hot_fraction=0.08,
            hot_access_fraction=0.85,
            sequential_fraction=0.15,
            stream_window_fraction=0.2,
            think_cycles=12,
        ),
        persist_fraction=1.0,
    ),
    "oltp": StorageProfile(
        base=WorkloadProfile(
            name="oltp",
            footprint_bytes=64 * MB,
            num_accesses=120_000,
            write_fraction=0.35,
            hot_fraction=0.10,
            hot_access_fraction=0.70,
            sequential_fraction=0.40,
            stream_window_fraction=0.15,
            think_cycles=18,
        ),
        persist_fraction=0.6,  # log appends + commit records
    ),
    "logger": StorageProfile(
        base=WorkloadProfile(
            name="logger",
            footprint_bytes=32 * MB,
            num_accesses=120_000,
            write_fraction=0.70,
            hot_fraction=0.05,
            hot_access_fraction=0.90,
            sequential_fraction=0.85,
            stream_window_fraction=0.10,
            think_cycles=8,
        ),
        persist_fraction=1.0,
    ),
}


def storage_profile(name: str) -> StorageProfile:
    try:
        return STORAGE_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown storage workload {name!r}; known: "
            f"{sorted(STORAGE_PROFILES)}"
        ) from None


def storage_names() -> List[str]:
    return sorted(STORAGE_PROFILES)


def generate_storage_trace(
    profile: StorageProfile,
    seed: Seed = 0,
    pid: int = 0,
    accesses: int = 0,
) -> Trace:
    """Generate a trace whose writes carry flush flags.

    Built on the base generator so the address stream is identical to
    the non-persistent variant with the same seed — only the flush
    marking differs, which makes persist-on/persist-off comparisons
    controlled.
    """
    base = profile.base
    if accesses:
        base = base.scaled(accesses=accesses)
    vaddr, pids, think, flags = generate_trace(
        base, seed=seed, pid=pid
    ).accesses.columns()
    # The base trace is this call's own: keep its columns and mark the
    # flush bit in its flags, drawing once per write in trace order.
    rng = make_rng(f"{seed}/flush/{profile.name}/{pid}")
    random = rng.random
    persist_fraction = profile.persist_fraction
    for i, flag in enumerate(flags):
        if flag & _WRITE_BIT and random() < persist_fraction:
            flags[i] = flag | _FLUSH_BIT
    return Trace(
        profile.name, ColumnarAccesses(_columns=(vaddr, pids, think, flags))
    )


def persisted_write_count(trace: Trace) -> int:
    """Writes the application explicitly persisted (flush-tagged)."""
    return sum(1 for access in trace if access.flush)
