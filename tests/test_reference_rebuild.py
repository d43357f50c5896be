"""A reference full-tree rebuild that shares no code with the BMT.

It recomputes every integrity node and the root hash from the persisted
counter lines with ``hashlib.blake2b`` directly, in the General BMT
format (a node is its children's 8-byte keyed hashes, zero-filled at the
tree edge; the root is level 1). The result must equal what
``rebuild_all_from_persisted`` writes and what
``verify_counter(persisted_only=True)`` concludes.
"""

import hashlib
import random

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.errors import CrashConsistencyError
from repro.mem.backend import MetadataRegion
from repro.util.units import MB

ENGINE_KEY = b"amnt-reproduction-key"  # RealCryptoEngine's default key


def keyed_hash8(line):
    return hashlib.blake2b(line, key=ENGINE_KEY, digest_size=8).digest()


def reference_tree(backend, num_counters, arity):
    """Every node as ``{(level, index): bytes}``, and the root's hash."""
    hashes = [
        keyed_hash8(backend.read(MetadataRegion.COUNTERS, i, 64))
        for i in range(num_counters)
    ]
    levels = []  # deepest integrity level first
    while not levels or len(levels[-1]) > 1:
        nodes = [
            b"".join(hashes[i : i + arity]).ljust(64, b"\0")
            for i in range(0, len(hashes), arity)
        ]
        levels.append(nodes)
        hashes = [keyed_hash8(node) for node in nodes]
    depth = len(levels)
    nodes = {
        (depth - k, i): node
        for k, level in enumerate(levels)
        for i, node in enumerate(level)
    }
    return nodes, hashes[0]


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("protocol", ["leaf", "strict", "amnt"])
def test_rebuild_matches_reference(protocol, seed, tamper):
    config = default_config(capacity_bytes=64 * MB)
    mee = MemoryEncryptionEngine(
        config, make_protocol(protocol, config), functional=True
    )
    num_counters = config.pcm.capacity_bytes // config.security.page_bytes
    rng = random.Random(seed)
    pages = rng.sample(range(num_counters), 8)
    for _ in range(300):
        addr = rng.choice(pages) * config.security.page_bytes + rng.randrange(64) * 64
        mee.write_block(addr, data=rng.randbytes(64))
    mee.crash()
    if tamper:
        mee.nvm.backend.corrupt(MetadataRegion.COUNTERS, pages[0])

    tree = mee.tree
    expected, root_hash = reference_tree(
        mee.nvm.backend, num_counters, config.security.tree_arity
    )
    consistent = root_hash == tree.root_register
    assert consistent == (not tamper)
    if consistent:
        tree.rebuild_all_from_persisted()
    else:
        with pytest.raises(CrashConsistencyError):
            tree.rebuild_all_from_persisted()
    assert len(expected) == tree.geometry.total_nodes()
    for node, value in expected.items():
        assert tree.persisted_node_bytes(node) == value, node
    for index in pages:
        assert tree.verify_counter(index, persisted_only=True).ok == consistent
