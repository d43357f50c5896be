"""Sparse byte-level backing store for the simulated NVM.

The store is organized by :class:`MetadataRegion`: protected data,
encryption counters, data HMACs, BMT nodes, and protocol-private
regions (e.g. Anubis's shadow table). Each region is a sparse mapping
from an integer key (block index, counter index, node id, ...) to a
``bytes`` payload, so an 8 GB — or 128 TB — device costs memory only
for the lines a workload actually touches.

The backend is purely functional storage; all *timing* lives in
:class:`repro.mem.nvm.NVMDevice`, and all *policy* in the protocols.
Separating them lets functional tests validate contents without a
timing model and timing sweeps skip byte materialization entirely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Optional, Tuple


class MetadataRegion(enum.Enum):
    """Namespaces within the non-volatile device."""

    DATA = "data"
    COUNTERS = "counters"
    HMACS = "hmacs"
    TREE = "tree"
    SHADOW_TABLE = "shadow_table"
    SHADOW_TREE = "shadow_tree"

    #: Members are singletons, so identity hashing is exact and runs at
    #: C speed (``Enum.__hash__`` hashes the name in Python on every
    #: region lookup).
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # compact in test output
        return f"<{self.value}>"


Key = Hashable


@dataclass
class SparseMemory:
    """Sparse content store: ``(region, key) -> bytes``."""

    #: Value returned for never-written lines; mimics zero-initialized
    #: media. Line width varies by region so the default is built lazily
    #: from the requested width.
    default_line_bytes: int = 64
    _store: Dict[MetadataRegion, Dict[Key, bytes]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every region's bucket exists up front, so lookups are one
        # dict index with no create-on-miss branch.
        for region in MetadataRegion:
            self._store.setdefault(region, {})

    def _region(self, region: MetadataRegion) -> Dict[Key, bytes]:
        return self._store[region]

    def read(
        self,
        region: MetadataRegion,
        key: Key,
        width: Optional[int] = None,
    ) -> bytes:
        """Read the line at ``key``; unwritten lines read as zeros."""
        line = self._store[region].get(key)
        if line is not None:
            return line
        return bytes(width if width is not None else self.default_line_bytes)

    def write(self, region: MetadataRegion, key: Key, value: bytes) -> None:
        """Persist ``value`` at ``key`` (overwrites)."""
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"expected bytes, got {type(value).__name__}")
        self._store[region][key] = bytes(value)

    def contains(self, region: MetadataRegion, key: Key) -> bool:
        return key in self._store[region]

    def erase(self, region: MetadataRegion, key: Key) -> None:
        self._region(region).pop(key, None)

    def keys(self, region: MetadataRegion) -> Iterator[Key]:
        return iter(self._region(region).keys())

    def lines_written(self, region: MetadataRegion) -> int:
        """Distinct lines ever written in ``region`` (footprint proxy)."""
        return len(self._region(region))

    def snapshot(self) -> "SparseMemory":
        """Deep copy — used by crash-injection tests to freeze media."""
        clone = SparseMemory(default_line_bytes=self.default_line_bytes)
        for region, bucket in self._store.items():
            clone._store[region] = dict(bucket)
        return clone

    def corrupt(
        self,
        region: MetadataRegion,
        key: Key,
        new_value: Optional[bytes] = None,
    ) -> Tuple[bytes, bytes]:
        """Adversarially flip a stored line; returns (old, new).

        Used by tamper-injection tests: by default the first byte is
        XOR-flipped, which any sound MAC must detect.
        """
        old = self.read(region, key)
        if new_value is None:
            mutated = bytearray(old if old else bytes(self.default_line_bytes))
            mutated[0] ^= 0xFF
            new_value = bytes(mutated)
        self.write(region, key, new_value)
        return old, new_value
