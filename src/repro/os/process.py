"""Processes and the demand-paging memory manager.

The memory manager owns the buddy allocator and one page table per
process. Workload traces reference *virtual* addresses; the first touch
of a virtual page faults, allocates a physical frame, and installs the
mapping — so the physical layout (and therefore which BMT subtree
region a process's hot data lands in) is decided here, by either the
stock allocator or the AMNT++-modified one. This is exactly the lever
the paper pulls in Section 5.

Transient page churn (:meth:`MemoryManager.churn`) emulates unrelated
system activity: short-lived allocations that free back and trigger the
reclamation path, which is where AMNT++'s restructuring runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AllocationError
from repro.os.amntpp import AMNTPlusPlusRestructurer
from repro.os.buddy import BuddyAllocator
from repro.os.pagetable import PageTable
from repro.util.stats import StatRegistry


@dataclass
class Process:
    """One simulated address space."""

    pid: int
    page_table: PageTable


class MemoryManager:
    """Demand paging over a buddy allocator, with optional AMNT++."""

    def __init__(
        self,
        allocator: BuddyAllocator,
        page_bytes: int = 4096,
        restructurer: Optional[AMNTPlusPlusRestructurer] = None,
    ) -> None:
        self.allocator = allocator
        self.page_bytes = page_bytes
        self.restructurer = restructurer
        self.stats = StatRegistry("mm")
        self._processes: Dict[int, Process] = {}
        # translate() runs once per trace record: resolve the fault
        # counter once and keep, per process, a flat virtual-page ->
        # physical-base mirror of the page table so the common case is
        # two dict probes, a shift, and an add. The PageTable stays the
        # authoritative mapping (release_process walks it); the mirror
        # is dropped whenever its process is.
        self._page_faults = self.stats.counter("page_faults")
        self._tables: Dict[int, PageTable] = {}
        self._bases: Dict[int, Dict[int, int]] = {}
        # Shift/mask decode when the page size allows it (it always
        # does under the validated configs; the divmod fallback keeps
        # odd hand-built managers working).
        if page_bytes > 0 and page_bytes & (page_bytes - 1) == 0:
            self._page_shift: Optional[int] = page_bytes.bit_length() - 1
        else:
            self._page_shift = None
        self._page_mask = page_bytes - 1

    @property
    def modified_os(self) -> bool:
        """True when the AMNT++ allocator modification is active."""
        return self.restructurer is not None

    def process(self, pid: int) -> Process:
        existing = self._processes.get(pid)
        if existing is None:
            existing = Process(pid, PageTable(self.page_bytes))
            self._processes[pid] = existing
            self._tables[pid] = existing.page_table
            self._bases[pid] = {
                vpage: frame * self.page_bytes
                for vpage, frame in existing.page_table.mapped_pages()
            }
        return existing

    def translate(self, pid: int, vaddr: int) -> int:
        """Virtual to physical byte address, faulting pages in on
        demand from the buddy allocator."""
        bases = self._bases.get(pid)
        if bases is None:
            self.process(pid)
            bases = self._bases[pid]
        shift = self._page_shift
        if shift is not None:
            vpage = vaddr >> shift
            offset = vaddr & self._page_mask
        else:
            vpage, offset = divmod(vaddr, self.page_bytes)
        base = bases.get(vpage)
        if base is not None:
            return base + offset
        frame = self.allocator.alloc_pages(order=0)
        self._tables[pid].map(vpage, frame)
        bases[vpage] = page_base = frame * self.page_bytes
        self._page_faults.value += 1
        return page_base + offset

    def release_process(self, pid: int) -> int:
        """Tear down a process, freeing every frame (reclamation)."""
        process = self._processes.pop(pid, None)
        self._tables.pop(pid, None)
        self._bases.pop(pid, None)
        if process is None:
            return 0
        freed = 0
        for _, frame in list(process.page_table.mapped_pages()):
            self._free_frame(frame)
            freed += 1
        return freed

    def _free_frame(self, frame: int) -> None:
        self.allocator.free_pages(frame, order=0)
        if self.restructurer is not None:
            self.restructurer.on_free(self.allocator)

    def churn(self, rng, bursts: int = 2, pages_per_burst: int = 32) -> None:
        """Unrelated-system-activity model: allocate short-lived pages
        and free them back, exercising the reclamation path (and, under
        the modified OS, the AMNT++ restructuring pass).

        The defaults are the one churn shape every run uses: the
        simulation and fault drivers call ``churn(rng)`` every
        ``churn_interval`` references, so only the interval varies."""
        for _ in range(bursts):
            frames: List[int] = []
            for _ in range(pages_per_burst):
                try:
                    frames.append(self.allocator.alloc_pages(order=0))
                except AllocationError:
                    break
            rng.shuffle(frames)
            for frame in frames:
                self._free_frame(frame)
            self.stats.add("churn_bursts")
