"""The metadata persistence protocol interface and registry.

A protocol decides, for every data write reaching memory, which pieces
of security metadata (counter line, HMAC line, BMT path nodes) are
written through to NVM immediately versus left dirty in the volatile
metadata cache — the crash-consistency/performance trade-off at the
heart of the paper. Protocols also shape the read path (extra trust
anchors shorten verification) and hook metadata cache events (Anubis's
shadow-table slow path lives there), and describe their recovery
behaviour for Table 4 and the functional crash tests.

Shared mechanics — fetching metadata through the cache, charging NVM
latencies, lazy writeback of dirty evictions, functional tree updates —
live in :class:`repro.core.mee.MemoryEncryptionEngine`; protocols call
back into it through the ``mee`` attribute set by :meth:`bind`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Container, Dict, List, Optional, Type

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.integrity.geometry import NodeId
from repro.util.stats import StatRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.area import AreaOverhead
    from repro.core.mee import MemoryEncryptionEngine
    from repro.core.recovery import RecoveryOutcome
    from repro.integrity.bmt import BonsaiMerkleTree
    from repro.mem.bandwidth import RecoveryBandwidthModel


class MetadataPersistencePolicy(ABC):
    """Base class for every persistence protocol in the study."""

    #: Registry key and display name, e.g. ``"amnt"``.
    name: str = "abstract"
    #: False only for the volatile baseline, which sacrifices crash
    #: consistency entirely (it is the normalization reference).
    is_crash_consistent: bool = True

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = StatRegistry(f"protocol.{self.name}")
        self.mee: Optional["MemoryEncryptionEngine"] = None
        #: Harness label; differs from ``name`` only for ``amnt++``,
        #: which is the same hardware run on the modified OS.
        self.display_name = self.name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bind(self, mee: "MemoryEncryptionEngine") -> None:
        """Attach to an engine; allocates NV registers, etc."""
        self.mee = mee
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook run after ``self.mee`` is available."""

    def fire_phase(self, name: str) -> None:
        """Report a crash-window boundary inside this protocol to the
        engine's fault probe (no-op when none is attached)."""
        self.mee.fire_phase(name)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    @abstractmethod
    def on_data_write(
        self,
        counter_index: int,
        block_index: int,
        path: List[NodeId],
        fenced: bool = False,
    ) -> int:
        """Persistence work for one data write reaching memory.

        Called by the engine *after* the counter, HMAC line, and path
        nodes have been updated (dirty) in the metadata cache. Returns
        extra cycles charged to this write. Implementations persist
        lines via ``self.mee.persist_*`` helpers, which also clean the
        corresponding cache lines.

        ``fenced`` marks writes issued under an application persistence
        fence (CLWB + sfence): any bookkeeping the protocol would
        normally coalesce off the critical path must complete before
        the fence retires and is charged synchronously.
        """

    # ------------------------------------------------------------------
    # trust anchors (read and write paths)
    # ------------------------------------------------------------------

    def trusted_nodes(self) -> Container[NodeId]:
        """The nodes held in on-chip NV registers (AMNT's subtree slots,
        BMF's persistent root set): the one trust rule for both
        directions. A read's verification walk stops at the first
        member on its bottom-up path, and a write updates (dirties) the
        path nodes strictly below it, because the register absorbs the
        new value on-chip. Default: none, so reads climb to a cache hit
        and writes update the whole path. The engine reads this once
        and tests membership per path level, so an override must return
        the same container object for the engine's lifetime and update
        it in place."""
        return ()

    def save_anchors(self) -> object:
        """A copy of the crash-surviving anchors this protocol keeps in
        Python rather than in the engine's
        :class:`~repro.persist.root_register.RegisterFile` (AMNT's
        subtree slots, BMF's root set and its NV values), for
        :meth:`restore_anchors` on another engine of the same protocol.
        Default: none."""
        return None

    def restore_anchors(self, saved: object) -> None:
        """Install anchors :meth:`save_anchors` returned. An anchor
        container that :meth:`trusted_nodes` hands the engine is
        updated in place, since the engine's event loop holds that
        object from bind time. Default: nothing to restore."""

    # ------------------------------------------------------------------
    # metadata cache events
    # ------------------------------------------------------------------

    def on_metadata_fill(self, key: tuple) -> int:
        """Called on every metadata cache miss/fill. Returns extra
        cycles (Anubis's shadow-table persist happens here)."""
        return 0

    def on_metadata_writeback(self, key: tuple) -> int:
        """Called when a dirty metadata line is written back on
        eviction (the lazy path). Returns extra cycles."""
        return 0

    # ------------------------------------------------------------------
    # recovery characterization
    # ------------------------------------------------------------------

    def stale_data_bytes(self, memory_bytes: int) -> float:
        """Protected-data coverage of BMT state that may be stale at a
        crash — the input to the Table 4 bandwidth model. Default:
        everything (full-tree rebuild, i.e. leaf persistence)."""
        return float(memory_bytes)

    def recovery_ms(
        self, model: "RecoveryBandwidthModel", memory_bytes: int
    ) -> float:
        """Analytic recovery time (Table 4)."""
        return model.rebuild_milliseconds(self.stale_data_bytes(memory_bytes))

    def recover(self, tree: "BonsaiMerkleTree") -> "RecoveryOutcome":
        """Functional post-crash recovery over the persisted image.

        Default behaviour is the leaf-persistence procedure: rebuild
        the whole tree from persisted counters and verify against the
        on-chip root register. Subclasses override with their own
        mechanism.
        """
        from repro.core.recovery import RecoveryOutcome

        nodes = tree.rebuild_all_from_persisted()
        return RecoveryOutcome(
            protocol=self.name, ok=True, nodes_recomputed=nodes
        )

    # ------------------------------------------------------------------
    # area accounting (Table 3)
    # ------------------------------------------------------------------

    def area_overhead(self) -> "AreaOverhead":
        """Additional hardware beyond the baseline secure-memory MEE."""
        from repro.core.area import AreaOverhead

        return AreaOverhead(protocol=self.name)

    def __repr__(self) -> str:
        return f"<protocol {self.name}>"


#: name -> (protocol class, use modified OS). ``amnt++`` is AMNT run on
#: the AMNT++-modified operating system; the protocol hardware is
#: identical, which is the paper's point.
PROTOCOL_REGISTRY: Dict[str, tuple] = {}


def register_protocol(
    cls: Type[MetadataPersistencePolicy],
    alias: Optional[str] = None,
    modified_os: bool = False,
) -> Type[MetadataPersistencePolicy]:
    key = alias or cls.name
    if key in PROTOCOL_REGISTRY:
        raise ConfigError(f"protocol {key!r} registered twice")
    PROTOCOL_REGISTRY[key] = (cls, modified_os)
    return cls


def make_protocol(name: str, config: SystemConfig) -> MetadataPersistencePolicy:
    """Instantiate a registered protocol by name (``amnt++`` included)."""
    _ensure_registry_populated()
    try:
        cls, _ = PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOL_REGISTRY)}"
        ) from None
    protocol = cls(config)
    protocol.display_name = name
    return protocol


def protocol_uses_modified_os(name: str) -> bool:
    _ensure_registry_populated()
    try:
        _, modified = PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown protocol {name!r}") from None
    return modified


def shares_residency(cls: Type[MetadataPersistencePolicy]) -> bool:
    """True when ``cls`` keeps the base :meth:`~MetadataPersistencePolicy.
    trusted_nodes`.

    Such a protocol has no NV anchor: a read walk stops only at a cache
    hit, and a write dirties the whole path. Its persists only clear
    dirty bits in place, so on one event stream every such protocol
    sees the same metadata-cache hits, misses, fills and evictions —
    the residency a :class:`~repro.core.mee.ReplayGroup` simulates once
    for all of them.
    """
    return cls.trusted_nodes is MetadataPersistencePolicy.trusted_nodes


def protocol_shares_residency(name: str) -> bool:
    """:func:`shares_residency` of the registered protocol ``name``."""
    _ensure_registry_populated()
    try:
        cls, _ = PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown protocol {name!r}") from None
    return shares_residency(cls)


def protocol_names() -> List[str]:
    _ensure_registry_populated()
    return sorted(PROTOCOL_REGISTRY)


def _ensure_registry_populated() -> None:
    """Import the protocol modules so their classes self-register."""
    if PROTOCOL_REGISTRY:
        return
    # Imports are for their registration side effects.
    from repro.core import (  # noqa: F401
        amnt,
        anubis,
        baselines,
        bmf,
        osiris,
        static_hybrid,
    )
