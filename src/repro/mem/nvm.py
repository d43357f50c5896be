"""Non-volatile memory device model: access counting and PCM timing.

The device exposes :meth:`read_access` / :meth:`write_access`, each of
which records the event per region and returns the access latency in
cycles. The simulation engine accumulates these latencies into the
run's cycle total; protocols call the device for every off-chip
metadata fetch or persist they issue, which is precisely the quantity
the paper's protocols differ in.

Persist operations (write-throughs required for crash consistency) are
ordinary writes from the device's perspective but are counted
separately so results can report the *persistence traffic* each
protocol adds over the volatile baseline.

Persistence ordering (``persist_model="wpq"``). Real controllers hold
stores in a volatile write-pending queue (WPQ) and the ADR domain
promises — but a fault model must not assume — that the queue drains on
power loss. :class:`WritePendingQueue` models that window as an *undo
log*: every store still lands in the backend immediately (reads always
see the newest value, and timing is untouched), but the line's
pre-image and per-fence-epoch values are recorded so fault injection
can roll any fence-respecting subset of un-drained lines back
(repro.faults.crashstates). Persist write-throughs are ordering fences:
everything enqueued before a fence must drain before anything after
it. :meth:`WritePendingQueue.drain` — called by the engine at each
persist group's commit point — empties the queue, making the staged
lines durable in every reachable crash state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import PCMConfig
from repro.mem.backend import Key, MetadataRegion, SparseMemory
from repro.telemetry import metrics as _metrics
from repro.util.stats import StatRegistry

#: ``nvm.wpq.depth`` histogram bounds: lines pending at each fence.
WPQ_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(slots=True)
class PendingLine:
    """Undo-log entry for one line with un-drained stores.

    ``versions`` holds at most one ``(epoch, value)`` pair per fence
    epoch, in increasing epoch order: stores to the same line within
    one epoch write-combine in the queue (no fence separates them, so
    no drain order can expose the intermediate value — torn-line
    variants cover sub-line partial application instead).
    """

    region: MetadataRegion
    key: Key
    #: Whether the line existed in the backend before the first
    #: un-drained store (rollback erases never-written lines so they
    #: read as zeros/genesis again).
    existed: bool
    original: Optional[bytes]
    versions: List[Tuple[int, bytes]]


class WritePendingQueue:
    """Volatile store queue with fence-ordered drain semantics.

    ``epoch`` counts persist fences; a line's version tagged with epoch
    ``e`` may only be lost if every version tagged with a *later* epoch
    is lost too (on every line). ``auto_drain`` is the equivalence test
    hook: draining fully at every fence collapses the model to
    write-through.
    """

    def __init__(self, auto_drain: bool = False) -> None:
        self.auto_drain = auto_drain
        self.epoch = 0
        self.recording = True
        self.entries: Dict[Tuple[MetadataRegion, Key], PendingLine] = {}
        self._epoch_dirty = False
        self.fences = 0
        self.drains = 0
        self._depth_hist = _metrics.histogram(
            "nvm.wpq.depth", WPQ_DEPTH_BUCKETS
        )

    def record(
        self,
        region: MetadataRegion,
        key: Key,
        existed: bool,
        original: Optional[bytes],
        value: bytes,
    ) -> None:
        """Note one store (called by the backend *before* it applies)."""
        if not self.recording:
            return
        entry = self.entries.get((region, key))
        if entry is None:
            self.entries[(region, key)] = PendingLine(
                region, key, existed, original, [(self.epoch, value)]
            )
        elif entry.versions[-1][0] == self.epoch:
            entry.versions[-1] = (self.epoch, value)  # write-combine
        else:
            entry.versions.append((self.epoch, value))
        self._epoch_dirty = True

    def fence(self) -> None:
        """A persist write-through: order everything enqueued so far
        before anything enqueued later."""
        self.fences += 1
        self._depth_hist.observe(float(len(self.entries)))
        if self._epoch_dirty:
            self.epoch += 1
            self._epoch_dirty = False
        if self.auto_drain:
            self.drain()

    def drain(self) -> int:
        """ADR drain point: every staged line becomes durable.

        Returns the number of lines drained.
        """
        drained = len(self.entries)
        self.entries.clear()
        self._epoch_dirty = False
        self.drains += 1
        return drained

    def depth(self) -> int:
        return len(self.entries)

    def freeze(self) -> List[PendingLine]:
        """Stop recording and hand over the pending set (crash time).

        Recovery and the oracle keep writing through the same backend;
        freezing first keeps their traffic out of the crash's undo log.
        """
        self.recording = False
        return list(self.entries.values())


class PendingSparseMemory(SparseMemory):
    """A :class:`SparseMemory` that journals stores into a WPQ.

    Reads are untouched (stores write through, so the newest value is
    always visible); only ``write`` records the pre-image first. Used
    as the functional backend under ``persist_model="wpq"`` — the MEE,
    tree, and protocols all share the one backend object, so every
    functional byte store is covered without touching their code.
    """

    def __init__(
        self, wpq: WritePendingQueue, default_line_bytes: int = 64
    ) -> None:
        super().__init__(default_line_bytes=default_line_bytes)
        self.wpq = wpq

    @classmethod
    def wrap(
        cls, memory: SparseMemory, wpq: WritePendingQueue
    ) -> "PendingSparseMemory":
        """Adopt an existing store's contents (shares the line dicts)."""
        wrapped = cls(wpq, default_line_bytes=memory.default_line_bytes)
        wrapped._store = memory._store
        return wrapped

    def write(self, region: MetadataRegion, key: Key, value: bytes) -> None:
        original = self._store[region].get(key)
        self.wpq.record(region, key, original is not None, original, value)
        super().write(region, key, value)


@dataclass
class NVMDevice:
    """A DDR-based PCM main memory with per-region access statistics."""

    config: PCMConfig
    #: Optional byte-level store; timing-only simulations omit it.
    backend: Optional[SparseMemory] = None
    #: Persistence-ordering model (``persist_model="wpq"``): set when
    #: ``backend`` is a :class:`PendingSparseMemory`, None under
    #: write-through. Purely functional bookkeeping — no timing impact.
    wpq: Optional[WritePendingQueue] = None
    stats: StatRegistry = field(default_factory=lambda: StatRegistry("nvm"))

    def attach_wpq(self, auto_drain: bool = False) -> WritePendingQueue:
        """Switch the backend to WPQ (undo-log) persistence staging."""
        if self.backend is None:
            raise RuntimeError("a WPQ needs a functional backend to journal")
        if self.wpq is None:
            self.wpq = WritePendingQueue(auto_drain=auto_drain)
            self.backend = PendingSparseMemory.wrap(self.backend, self.wpq)
        return self.wpq

    def fence(self) -> None:
        """Persist-ordering fence (no-op under write-through)."""
        if self.wpq is not None:
            self.wpq.fence()

    def drain(self) -> int:
        """Drain the write-pending queue; returns lines drained."""
        if self.wpq is not None:
            return self.wpq.drain()
        return 0

    def __post_init__(self) -> None:
        self._read_cycles = self.config.read_latency_cycles
        self._write_cycles = self.config.write_latency_cycles
        # Pre-resolved counters: these sit on the simulator's innermost
        # loop, so per-access string formatting is avoided.
        self._read_total = self.stats.counter("reads.total")
        self._write_total = self.stats.counter("writes.total")
        self._persist_total = self.stats.counter("persists.total")
        self._read_by_region = {
            region: self.stats.counter(f"reads.{region.value}")
            for region in MetadataRegion
        }
        self._write_by_region = {
            region: self.stats.counter(f"writes.{region.value}")
            for region in MetadataRegion
        }
        self._persist_by_region = {
            region: self.stats.counter(f"persists.{region.value}")
            for region in MetadataRegion
        }

    # -- timing-accounted accesses -----------------------------------

    def read_access(self, region: MetadataRegion) -> int:
        """Record one line read in ``region``; returns latency cycles."""
        self._read_total.value += 1
        self._read_by_region[region].value += 1
        return self._read_cycles

    def write_access(self, region: MetadataRegion, persist: bool = False) -> int:
        """Record one line write; ``persist`` marks crash-consistency
        write-throughs (counted separately from lazy writebacks)."""
        self._write_total.value += 1
        self._write_by_region[region].value += 1
        if persist:
            self._persist_total.value += 1
            self._persist_by_region[region].value += 1
        return self._write_cycles

    # -- pre-bound access closures (hot-path callers) -------------------

    def writer(self, region: MetadataRegion):
        """A zero-argument equivalent of ``write_access(region)`` — same
        counters, same returned latency. Callers that write one region
        hundreds of thousands of times per run (the engine's lazy
        writebacks) bind it once: no per-call region dispatch, nor the
        enum hash behind the per-region counter dict."""
        total = self._write_total
        by_region = self._write_by_region[region]
        latency = self._write_cycles

        def write() -> int:
            total.value += 1
            by_region.value += 1
            return latency

        return write

    def persister(self, *regions: MetadataRegion):
        """A counted persist writer: ``persist(lines)`` records ``lines``
        write-throughs — what ``lines`` calls of ``write_access(region,
        persist=True)`` record — and returns their summed full latency.

        With one region every line of a call is in it. With several, a
        call writes at most one line per region, the i-th in
        ``regions[i]``: ``persister(COUNTERS, HMACS)`` charges a leaf
        pair's counter line and then its HMAC line.
        """
        total = self._write_total
        persist_total = self._persist_total
        by_region = [
            (self._write_by_region[region], self._persist_by_region[region])
            for region in regions
        ]
        latency = self._write_cycles
        if len(by_region) == 1:
            ((writes, persists),) = by_region

            def persist(lines: int) -> int:
                total.value += lines
                writes.value += lines
                persist_total.value += lines
                persists.value += lines
                return lines * latency

            return persist

        # bumps[k]: the region counters a call of k lines adds one to.
        bumps = [()]
        for pair in by_region:
            bumps.append(bumps[-1] + pair)

        def persist_each(lines: int) -> int:
            total.value += lines
            persist_total.value += lines
            for counter in bumps[lines]:
                counter.value += 1
            return lines * latency

        return persist_each

    # -- content plumbing (functional mode) ----------------------------

    def load(self, region: MetadataRegion, key: object, width: int = 64) -> bytes:
        """Fetch line contents (requires a backend)."""
        if self.backend is None:
            raise RuntimeError("this NVM device was built without a backend")
        return self.backend.read(region, key, width)

    def store(self, region: MetadataRegion, key: object, value: bytes) -> None:
        """Store line contents (requires a backend)."""
        if self.backend is None:
            raise RuntimeError("this NVM device was built without a backend")
        self.backend.write(region, key, value)

    # -- convenience ----------------------------------------------------

    @property
    def read_latency_cycles(self) -> int:
        return self._read_cycles

    @property
    def write_latency_cycles(self) -> int:
        return self._write_cycles

    def reads(self, region: Optional[MetadataRegion] = None) -> int:
        name = "reads.total" if region is None else f"reads.{region.value}"
        return self.stats.get(name)

    def writes(self, region: Optional[MetadataRegion] = None) -> int:
        name = "writes.total" if region is None else f"writes.{region.value}"
        return self.stats.get(name)

    def persists(self, region: Optional[MetadataRegion] = None) -> int:
        name = "persists.total" if region is None else f"persists.{region.value}"
        return self.stats.get(name)
