"""Machine construction: wire the substrates into a runnable system.

A :class:`Machine` bundles what a simulated node needs: the memory
manager (buddy allocator + page tables, optionally AMNT++-modified),
the last-level data cache, and the memory encryption engine with its
bound persistence protocol. :func:`build_machine` is the one place the
wiring happens, so every harness, test, and example builds identical
systems from a :class:`~repro.config.SystemConfig` and a protocol name.
Its two halves are built by :func:`build_engine` (all a compiled-plan
replay needs) and :func:`build_data_side` (all the stream compiler
needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.hierarchy import DataCache
from repro.config import SystemConfig
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import (
    MetadataPersistencePolicy,
    make_protocol,
    protocol_uses_modified_os,
)
from repro.integrity.geometry import TreeGeometry
from repro.mem.address import AddressSpace
from repro.os.amntpp import AMNTPlusPlusRestructurer
from repro.os.buddy import BuddyAllocator
from repro.os.process import MemoryManager
from repro.util.rng import Seed, make_rng


@dataclass
class Machine:
    """A complete simulated secure-SCM node."""

    config: SystemConfig
    mee: MemoryEncryptionEngine
    llc: DataCache
    mm: MemoryManager

    @property
    def protocol(self) -> MetadataPersistencePolicy:
        return self.mee.protocol

    @property
    def modified_os(self) -> bool:
        return self.mm.modified_os


def build_data_side(
    config: SystemConfig,
    modified_os: bool,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
    address_space: Optional[AddressSpace] = None,
    geometry: Optional[TreeGeometry] = None,
) -> Tuple[DataCache, MemoryManager]:
    """Build the protocol-independent data side: LLC + memory manager.

    This is the half of the machine the boundary-event compiler
    (:mod:`repro.sim.replay`) simulates once per trace — everything in
    front of the memory encryption engine. :func:`build_machine` and the
    compiler both wire it through this one function so the direct and
    compiled paths cannot drift: same allocator aging, same modified-OS
    boot restructuring, same stats baseline.

    ``address_space``/``geometry`` let :func:`build_machine` reuse the
    MEE's instances; when omitted they are derived from ``config``
    (identical values — both are pure functions of the config).
    """
    if address_space is None:
        address_space = AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        )
    llc = DataCache(config.llc, address_space)

    page_bytes = config.security.page_bytes
    total_pages = config.pcm.capacity_bytes // page_bytes
    allocator = BuddyAllocator(total_pages)
    if scatter_span_chunks:
        allocator.scatter(
            make_rng(f"{seed}/scatter"), span_chunks=scatter_span_chunks
        )

    restructurer: Optional[AMNTPlusPlusRestructurer] = None
    if modified_os:
        if geometry is None:
            geometry = TreeGeometry.from_config(config)
        region_bytes = geometry.region_bytes(config.amnt.subtree_level)
        pages_per_region = max(1, region_bytes // page_bytes)
        restructurer = AMNTPlusPlusRestructurer(
            region_of_pfn=lambda pfn: pfn // pages_per_region
        )
        # The modified OS has been reordering free lists since boot; the
        # machine starts in that steady state rather than discovering it
        # mid-measurement.
        restructurer.restructure(allocator)
    mm = MemoryManager(
        allocator, page_bytes=page_bytes, restructurer=restructurer
    )
    # Boot-time work (scatter aging, the modified OS's initial free-list
    # state) is setup, not measurement: instruction accounting starts at
    # the region of interest, as the paper's Table 2 methodology does.
    allocator.stats.reset()
    return llc, mm


def build_engine(
    config: SystemConfig, protocol_name: str, functional: bool = False
) -> MemoryEncryptionEngine:
    """Build the memory encryption engine with ``protocol_name`` bound:
    the only part of a machine that a compiled-plan replay
    (:func:`~repro.sim.engine.simulate_from_plan`) drives, since the
    stream it replays already holds the data side's events."""
    return MemoryEncryptionEngine(
        config, make_protocol(protocol_name, config), functional=functional
    )


def build_machine(
    config: SystemConfig,
    protocol_name: str,
    functional: bool = False,
    seed: Seed = 0,
    scatter_span_chunks: int = 0,
) -> Machine:
    """Build a machine running ``protocol_name``.

    ``protocol_name == "amnt++"`` selects the AMNT hardware *plus* the
    modified OS allocator — the protocol registry knows which names
    imply the modified OS. ``scatter_span_chunks > 0`` pre-ages the
    buddy allocator over that many max-order chunks (multiprogram
    methodology; see :meth:`BuddyAllocator.scatter`).
    """
    mee = build_engine(config, protocol_name, functional=functional)
    llc, mm = build_data_side(
        config,
        modified_os=protocol_uses_modified_os(protocol_name),
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
        address_space=mee.address_space,
        geometry=mee.geometry,
    )
    return Machine(config=config, mee=mee, llc=llc, mm=mm)
