"""The paper's core: metadata persistence protocols over a shared MEE.

``repro.core`` contains the memory encryption engine (the shared read
and write datapath), the protocol interface, the two classical
baselines (strict and leaf persistence, plus the volatile normalization
baseline), the three comparators the paper implements (Osiris, Anubis,
Bonsai Merkle Forest), AMNT itself, the crash/recovery engine, and the
hardware-area accounting behind Table 3.
"""

from repro.core.amnt import AMNTMultiProtocol, AMNTProtocol
from repro.core.anubis import AnubisProtocol
from repro.core.area import AreaOverhead, protocol_area_table
from repro.core.baselines import (
    LeafPersistenceProtocol,
    StrictPersistenceProtocol,
    VolatileProtocol,
)
from repro.core.bmf import BMFProtocol
from repro.core.history_buffer import HistoryBuffer
from repro.core.mee import MemoryEncryptionEngine
from repro.core.osiris import OsirisProtocol
from repro.core.protocol import (
    PROTOCOL_REGISTRY,
    MetadataPersistencePolicy,
    make_protocol,
    protocol_names,
)
from repro.core.recovery import CrashInjector, RecoveryAnalysis, RecoveryOutcome
from repro.core.static_hybrid import PLPProtocol, TriadNVMProtocol

__all__ = [
    "MemoryEncryptionEngine",
    "MetadataPersistencePolicy",
    "PROTOCOL_REGISTRY",
    "make_protocol",
    "protocol_names",
    "VolatileProtocol",
    "StrictPersistenceProtocol",
    "LeafPersistenceProtocol",
    "OsirisProtocol",
    "AnubisProtocol",
    "BMFProtocol",
    "AMNTProtocol",
    "AMNTMultiProtocol",
    "TriadNVMProtocol",
    "PLPProtocol",
    "HistoryBuffer",
    "AreaOverhead",
    "protocol_area_table",
    "CrashInjector",
    "RecoveryAnalysis",
    "RecoveryOutcome",
]
