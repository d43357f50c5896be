"""System configuration dataclasses (the paper's Table 1).

A :class:`SystemConfig` fully describes a simulated machine: the
protected memory geometry, the security metadata layout, the metadata
cache, the PCM device timing, and the AMNT-specific knobs (subtree
level, history buffer size, movement interval). Configurations are
validated eagerly at construction so misconfiguration fails loudly
before any simulation starts.

Defaults reproduce the paper's configuration:

* 8 GB DDR-based PCM, 305 ns read / 391 ns write latency,
* 64 B blocks, 4 KB pages,
* 64-ary counter blocks (8 B major + 64 x 7 bit minor counters),
* 8-ary Bonsai Merkle Tree integrity nodes,
* 64 kB metadata cache with 2-cycle access latency,
* AMNT subtree level 3, 64-write movement interval, 64-entry history
  buffer (768 bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigValidationError
from repro.util.bitops import ilog2, is_power_of_two
from repro.util.units import GB, KB, cycles_from_ns

#: Persistence-ordering models for the functional NVM image (see
#: repro.mem.nvm). ``writethrough`` applies every store to the
#: persistent image immediately (the pre-WPQ behaviour; the default, so
#: all existing results are bit-identical); ``wpq`` stages stores in a
#: volatile write-pending queue whose drain order is only constrained
#: by persist fences, enabling crash-state exploration
#: (repro.faults.crashstates).
PERSIST_MODELS = ("writethrough", "wpq")


def validate_persist_model(model: str) -> None:
    """Reject an unknown persistence model with a field-named error."""
    if model not in PERSIST_MODELS:
        raise ConfigValidationError(
            "persist_model",
            f"unknown model {model!r}; known: {PERSIST_MODELS}",
        )


@dataclass(frozen=True)
class PCMConfig:
    """Timing and capacity of the DDR-based PCM main memory device."""

    capacity_bytes: int = 8 * GB
    read_latency_ns: float = 305.0
    write_latency_ns: float = 391.0
    clock_ghz: float = 2.0
    channels: int = 6
    #: Sustained per-DIMM mixed-workload bandwidth (Optane 200 series
    #: brief, as cited by the paper's recovery analysis).
    dimm_total_bandwidth_gbps: float = 4.0
    #: Fraction of the mixed bandwidth available to reads under the
    #: 8:1 read:write recovery workload.
    read_bandwidth_fraction: float = 0.5
    #: Share of a write's device latency that lands on the critical
    #: path for *posted* writes (ordinary data writebacks and lazy
    #: metadata writebacks, which drain from the controller's write
    #: queue). Crash-consistency persists are ordered/synchronous and
    #: always pay the full latency — that asymmetry is precisely why
    #: strict persistence "places writes on the critical path of
    #: application execution" (§6.5).
    posted_write_latency_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or not is_power_of_two(self.capacity_bytes):
            raise ConfigValidationError(
                "pcm.capacity_bytes",
                f"must be a positive power of two, got {self.capacity_bytes}",
            )
        if self.read_latency_ns <= 0:
            raise ConfigValidationError(
                "pcm.read_latency_ns",
                f"must be positive, got {self.read_latency_ns}",
            )
        if self.write_latency_ns <= 0:
            raise ConfigValidationError(
                "pcm.write_latency_ns",
                f"must be positive, got {self.write_latency_ns}",
            )
        if self.clock_ghz <= 0:
            raise ConfigValidationError(
                "pcm.clock_ghz", f"must be positive, got {self.clock_ghz}"
            )
        if self.channels <= 0:
            raise ConfigValidationError(
                "pcm.channels", f"must be positive, got {self.channels}"
            )

    @property
    def read_latency_cycles(self) -> int:
        return cycles_from_ns(self.read_latency_ns, self.clock_ghz)

    @property
    def write_latency_cycles(self) -> int:
        return cycles_from_ns(self.write_latency_ns, self.clock_ghz)

    @property
    def recovery_read_bandwidth_bytes_per_s(self) -> float:
        """Aggregate read bandwidth available to the recovery procedure."""
        per_dimm = self.dimm_total_bandwidth_gbps * self.read_bandwidth_fraction
        return per_dimm * self.channels * float(GB)


@dataclass(frozen=True)
class SecurityConfig:
    """Geometry of the security metadata (counters, HMACs, BMT)."""

    block_bytes: int = 64
    page_bytes: int = 4096
    #: Data blocks covered by one counter block ("64-ary counters").
    counters_per_block: int = 64
    #: Children per BMT integrity node ("8-ary integrity nodes").
    tree_arity: int = 8
    #: Bytes of a BMT node / counter block / HMAC line in memory.
    node_bytes: int = 64
    hmac_bytes: int = 8
    major_counter_bits: int = 64
    minor_counter_bits: int = 7

    def __post_init__(self) -> None:
        for name in ("block_bytes", "page_bytes", "counters_per_block", "tree_arity"):
            value = getattr(self, name)
            if value <= 0 or not is_power_of_two(value):
                raise ConfigValidationError(
                    f"security.{name}",
                    f"must be a positive power of two, got {value}",
                )
        for name in ("node_bytes", "hmac_bytes"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigValidationError(
                    f"security.{name}", f"must be positive, got {value}"
                )
        if self.page_bytes % self.block_bytes:
            raise ConfigValidationError(
                "security.page_bytes",
                "must be a multiple of the block size",
            )
        blocks_per_page = self.page_bytes // self.block_bytes
        if blocks_per_page != self.counters_per_block:
            raise ConfigValidationError(
                "security.counters_per_block",
                "counter arity must match blocks-per-page: one counter block "
                f"covers one page ({blocks_per_page} blocks), got "
                f"{self.counters_per_block}",
            )

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes


@dataclass(frozen=True)
class MetadataCacheConfig:
    """On-chip metadata cache (counters + BMT nodes + HMAC lines)."""

    capacity_bytes: int = 64 * KB
    line_bytes: int = 64
    associativity: int = 8
    access_latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or not is_power_of_two(self.capacity_bytes):
            raise ConfigValidationError(
                "metadata_cache.capacity_bytes",
                f"must be a positive power of two, got {self.capacity_bytes}",
            )
        if self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigValidationError(
                "metadata_cache.line_bytes",
                "line size and associativity must be positive",
            )
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ConfigValidationError(
                "metadata_cache.associativity",
                "cache sets do not divide evenly",
            )
        if self.access_latency_cycles < 0:
            raise ConfigValidationError(
                "metadata_cache.access_latency_cycles",
                f"cannot be negative, got {self.access_latency_cycles}",
            )

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class DataCacheConfig:
    """A single level of the data-side cache hierarchy."""

    capacity_bytes: int = 1 * 1024 * KB
    line_bytes: int = 64
    associativity: int = 16
    access_latency_cycles: int = 20

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigValidationError(
                "llc.capacity_bytes",
                "capacity, line size, and associativity must be positive",
            )
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ConfigValidationError(
                "llc.associativity", "data cache sets do not divide evenly"
            )


@dataclass(frozen=True)
class AMNTConfig:
    """Knobs specific to the AMNT protocol (the paper's Section 4)."""

    #: BMT level holding the fast subtree root. Levels count from the
    #: root = 1, so level L has arity**(L-1) candidate subtree regions.
    subtree_level: int = 3
    #: Data writes between history-buffer driven subtree re-selection.
    movement_interval_writes: int = 64
    #: Entries in the hot-region history buffer.
    history_buffer_entries: int = 64
    #: Concurrent fast subtrees for the ``amnt-multi`` variant — the
    #: "per-core subtrees" alternative the paper considers and rejects
    #: for hardware cost (Section 5). Plain AMNT uses exactly one.
    multi_subtrees: int = 4

    def __post_init__(self) -> None:
        if self.subtree_level < 2:
            raise ConfigValidationError(
                "amnt.subtree_level",
                "must be >= 2 (level 1 is the global root), "
                f"got {self.subtree_level}",
            )
        if self.movement_interval_writes <= 0:
            raise ConfigValidationError(
                "amnt.movement_interval_writes",
                f"must be positive, got {self.movement_interval_writes}",
            )
        if self.history_buffer_entries <= 0 or not is_power_of_two(
            self.history_buffer_entries
        ):
            raise ConfigValidationError(
                "amnt.history_buffer_entries",
                f"must be a positive power of two, got {self.history_buffer_entries}",
            )
        if self.multi_subtrees <= 0:
            raise ConfigValidationError(
                "amnt.multi_subtrees",
                f"must be positive, got {self.multi_subtrees}",
            )

    @property
    def history_buffer_bits(self) -> int:
        """On-chip bits: n entries x (log2 n index + log2 n counter)."""
        index_bits = ilog2(self.history_buffer_entries)
        return self.history_buffer_entries * 2 * index_bits


@dataclass(frozen=True)
class OsirisConfig:
    """Stop-loss interval for the Osiris comparator protocol."""

    stop_loss_interval: int = 4

    def __post_init__(self) -> None:
        if self.stop_loss_interval <= 0:
            raise ConfigValidationError(
                "osiris.stop_loss_interval",
                f"must be positive, got {self.stop_loss_interval}",
            )


@dataclass(frozen=True)
class TriadConfig:
    """Triad-NVM comparator: static level-partitioned persistence."""

    #: Deepest integrity-node levels written through on every data
    #: write (counters and HMACs always persist). Levels above stay
    #: lazy and are rebuilt at recovery.
    persist_levels: int = 2

    def __post_init__(self) -> None:
        if self.persist_levels < 0:
            raise ConfigValidationError(
                "triad.persist_levels",
                f"cannot be negative, got {self.persist_levels}",
            )


@dataclass(frozen=True)
class BMFConfig:
    """Bonsai Merkle Forest comparator configuration."""

    #: Non-volatile on-chip cache for the persistent root set (4 kB in
    #: the original work).
    root_set_bytes: int = 4 * KB
    root_entry_bytes: int = 64
    #: Accesses between prune/merge re-evaluations.
    adjust_interval: int = 512
    #: Bits of frequency counter added per volatile metadata cache line.
    frequency_counter_bits: int = 6

    def __post_init__(self) -> None:
        if self.root_entry_bytes <= 0 or self.root_set_bytes <= 0:
            raise ConfigValidationError(
                "bmf.root_set_bytes",
                "root set and entry sizes must be positive",
            )
        if self.root_set_bytes % self.root_entry_bytes:
            raise ConfigValidationError(
                "bmf.root_set_bytes",
                "root set size must be a multiple of entry size",
            )

    @property
    def root_set_entries(self) -> int:
        return self.root_set_bytes // self.root_entry_bytes


@dataclass(frozen=True)
class AnubisConfig:
    """Anubis comparator configuration (shadow table sizing)."""

    #: The shadow table mirrors the metadata cache: one entry per
    #: metadata cache line (address + MAC + bookkeeping, 37 bytes),
    #: stored in untrusted memory and shadowed on-chip in a dedicated
    #: cache — 37 kB for the 1024-line metadata cache, matching the
    #: paper's Table 3.
    shadow_entry_bytes: int = 37
    #: Fraction of shadow-table traffic absorbed by the on-chip shadow
    #: cache (the paper caches the whole shadow Merkle tree on-chip).
    shadow_cache_on_chip: bool = True


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a simulated secure-SCM machine."""

    pcm: PCMConfig = field(default_factory=PCMConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    metadata_cache: MetadataCacheConfig = field(default_factory=MetadataCacheConfig)
    llc: DataCacheConfig = field(default_factory=DataCacheConfig)
    amnt: AMNTConfig = field(default_factory=AMNTConfig)
    osiris: OsirisConfig = field(default_factory=OsirisConfig)
    bmf: BMFConfig = field(default_factory=BMFConfig)
    anubis: AnubisConfig = field(default_factory=AnubisConfig)
    triad: TriadConfig = field(default_factory=TriadConfig)
    seed: int = 2024
    #: Persistence-ordering model for the functional NVM image (one of
    #: PERSIST_MODELS). Timing is identical either way; ``wpq`` only
    #: changes which crash states fault injection can reach.
    persist_model: str = "writethrough"

    def __post_init__(self) -> None:
        validate_persist_model(self.persist_model)
        if self.pcm.capacity_bytes < self.security.page_bytes:
            raise ConfigValidationError(
                "pcm.capacity_bytes",
                f"memory ({self.pcm.capacity_bytes} B) smaller than one page "
                f"({self.security.page_bytes} B)",
            )
        # The subtree level must exist in the tree this geometry builds.
        from repro.integrity.geometry import TreeGeometry  # local import: avoid cycle

        geometry = TreeGeometry.from_config(self)
        if self.amnt.subtree_level > geometry.num_levels:
            raise ConfigValidationError(
                "amnt.subtree_level",
                f"level {self.amnt.subtree_level} exceeds tree depth "
                f"{geometry.num_levels}",
            )

    def with_amnt(self, **changes: object) -> "SystemConfig":
        """Copy of this config with AMNT knobs replaced."""
        return replace(self, amnt=replace(self.amnt, **changes))

    def with_pcm(self, **changes: object) -> "SystemConfig":
        """Copy of this config with PCM parameters replaced."""
        return replace(self, pcm=replace(self.pcm, **changes))


def default_config(capacity_bytes: Optional[int] = None, **amnt_changes: object) -> SystemConfig:
    """The paper's Table 1 machine, optionally resized or re-leveled."""
    config = SystemConfig()
    if capacity_bytes is not None:
        config = config.with_pcm(capacity_bytes=capacity_bytes)
    if amnt_changes:
        config = config.with_amnt(**amnt_changes)
    return config
