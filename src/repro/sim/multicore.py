"""Per-core private caches in front of the shared LLC.

The paper's multiprogram configuration gives each core a private L2
(128 kB) beneath a shared L3; the figure harnesses in this reproduction
fold the private levels into the LLC (the protocols only see
LLC-to-memory traffic, and all results are normalized). For studies
where the private/shared split matters — cache-contention questions,
per-core traffic attribution — this module adds that layer explicitly.

:class:`PrivateCacheLayer` holds one write-back, write-allocate cache
per pid. A reference first probes its pid's private cache; private
misses fill from the shared LLC, and private dirty victims write *into*
the shared LLC (marking the line dirty there), so data still reaches
memory only via shared-LLC evictions — the same place the MEE sits.

Use :func:`simulate_multicore`, a drop-in alternative to
:func:`repro.sim.engine.simulate`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import build_cache
from repro.config import DataCacheConfig
from repro.mem.address import AddressSpace
from repro.sim.engine import INSTRUCTIONS_PER_PAGE_FAULT, _trace_columns
from repro.sim.machine import Machine
from repro.sim.results import SimulationResult
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import Trace


class PrivateCacheLayer:
    """One private write-back cache per core (pid)."""

    def __init__(
        self,
        config: DataCacheConfig,
        address_space: AddressSpace,
    ) -> None:
        self.config = config
        self.address_space = address_space
        self._caches: Dict[int, object] = {}

    def _cache_for(self, pid: int):
        cache = self._caches.get(pid)
        if cache is None:
            cache = build_cache(
                self.config.capacity_bytes,
                self.config.line_bytes,
                self.config.associativity,
                name=f"l2.core{pid}",
                set_of=lambda key: key,
            )
            self._caches[pid] = cache
        return cache

    def access(self, pid: int, paddr: int, is_write: bool):
        """Probe the core's private cache.

        Returns ``(hit, fill_block, dirty_victims)`` where
        ``fill_block`` is the block to request from the shared level on
        a miss and ``dirty_victims`` are blocks to write into it.
        """
        cache = self._cache_for(pid)
        block = self.address_space.block_index(paddr)
        if cache.lookup(block):
            if is_write:
                cache.mark_dirty(block)
            return True, None, ()
        victim = cache.insert(block, dirty=is_write)
        victims = (victim.key,) if victim is not None and victim.dirty else ()
        return False, block, victims

    def hit_rate(self, pid: int) -> float:
        return self._cache_for(pid).hit_rate()

    def cores(self) -> List[int]:
        return sorted(self._caches)


def simulate_multicore(
    machine: Machine,
    trace: Trace,
    private_config: Optional[DataCacheConfig] = None,
    seed: Seed = 0,
    churn_interval: int = 16384,
) -> SimulationResult:
    """Run ``trace`` with per-core private caches beneath the LLC.

    The shared LLC and MEE come from ``machine``; private caches use
    ``private_config`` (default: the paper's 128 kB multiprogram L2
    with a 12-cycle latency). As in :func:`repro.sim.engine.simulate`,
    the walk is a generator the MEE's event loop consumes in one call.
    """
    if private_config is None:
        private_config = DataCacheConfig(
            capacity_bytes=128 * 1024,
            associativity=8,
            access_latency_cycles=12,
        )
    rng = make_rng(f"{seed}/mc-engine/{trace.name}")
    mee = machine.mee
    llc = machine.llc
    mm = machine.mm
    block_bytes = machine.config.security.block_bytes
    private = PrivateCacheLayer(private_config, mee.address_space)
    vaddrs, pids, thinks, flag_col = _trace_columns(trace)
    private_misses = 0

    def events():
        """The shared LLC's boundary events, ``(kind, addr, record)``."""
        nonlocal private_misses
        translate = mm.translate
        private_access = private.access
        llc_access = llc.access
        record_of = mee.record_of
        position = 0
        for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
            position += 1
            paddr = translate(pid, vaddr)
            hit, fill_block, victims = private_access(pid, paddr, flags & 1)
            if not hit:
                private_misses += 1
                # Private dirty victims land in the shared LLC as dirty
                # lines; the demand fill follows, clean at that level.
                for victim_block in victims:
                    traffic = llc_access(victim_block * block_bytes, True)
                    if traffic.fill_block is not None:
                        addr = traffic.fill_block * block_bytes
                        yield 0, addr, record_of(addr)
                    for evicted in traffic.writeback_blocks:
                        addr = evicted * block_bytes
                        yield 1, addr, record_of(addr)
                traffic = llc_access(fill_block * block_bytes, False)
                if traffic.fill_block is not None:
                    addr = traffic.fill_block * block_bytes
                    yield 0, addr, record_of(addr)
                for evicted in traffic.writeback_blocks:
                    addr = evicted * block_bytes
                    yield 1, addr, record_of(addr)
            # Churn keeps simulate()'s schedule: every churn_interval-th
            # reference, whether or not it reached the shared LLC.
            if churn_interval and position % churn_interval == 0:
                mm.churn(rng)

    # Per reference: think cycles and a private-cache probe; per private
    # miss: one shared-LLC access.
    think_total = sum(thinks)
    cycles = think_total + len(thinks) * private_config.access_latency_cycles
    cycles += mee.run_events(events())
    cycles += private_misses * machine.config.llc.access_latency_cycles
    app_instructions = think_total + len(thinks)

    os_instructions = (
        mm.allocator.instructions()
        + mm.stats.get("page_faults") * INSTRUCTIONS_PER_PAGE_FAULT
    )
    return SimulationResult(
        workload=trace.name,
        protocol=mee.protocol.display_name,
        cycles=cycles,
        accesses=len(trace),
        llc_hit_rate=llc.hit_rate(),
        mdcache_hit_rate=mee.mdcache.hit_rate(),
        instructions=app_instructions + os_instructions,
        os_instructions=os_instructions,
        page_faults=mm.stats.get("page_faults"),
        nvm_stats=mee.nvm.stats.snapshot(),
        protocol_stats=mee.protocol.stats.snapshot(),
        mee_stats=mee.stats.snapshot(),
    )
