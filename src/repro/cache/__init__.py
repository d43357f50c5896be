"""On-chip cache models: generic set-associative cache, the data-side
hierarchy, and the security metadata cache."""

from repro.cache.cache import EvictedLine, SetAssociativeCache
from repro.cache.hierarchy import DataCache, MemoryTraffic
from repro.cache.metadata_cache import MetadataCache

__all__ = [
    "SetAssociativeCache",
    "EvictedLine",
    "DataCache",
    "MemoryTraffic",
    "MetadataCache",
]
