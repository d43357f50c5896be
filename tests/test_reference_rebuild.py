"""A reference full-tree rebuild that shares no code with the BMT.

It recomputes every integrity node and the root hash from the persisted
counter lines with ``hashlib.blake2b`` directly, in the General BMT
format (a node is its children's 8-byte keyed hashes, zero-filled at the
tree edge; the root is level 1). The result must equal what
``rebuild_all_from_persisted`` writes and what
``verify_counter(persisted_only=True)`` concludes.

The rebuild only hashes what was written and takes genesis values for
everything else, so the reference also pins the genesis values of
ragged trees, a stale stored node above unwritten counters, and AMNT's
subtree repair; a counting engine bounds a full rebuild's hashes by the
written footprint.
"""

import hashlib
import random

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.crypto.engine import RealCryptoEngine
from repro.errors import CrashConsistencyError
from repro.integrity.bmt import BonsaiMerkleTree
from repro.integrity.geometry import TreeGeometry
from repro.mem.backend import MetadataRegion, SparseMemory
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


def written_machine(config, protocol, pages, rng, writes=300):
    """A functional machine after ``writes`` random block writes that
    land on ``pages``."""
    mee = MemoryEncryptionEngine(
        config, make_protocol(protocol, config), functional=True
    )
    for _ in range(writes):
        addr = rng.choice(pages) * config.security.page_bytes + rng.randrange(64) * 64
        mee.write_block(addr, data=rng.randbytes(64))
    return mee


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("protocol", ["leaf", "strict", "amnt"])
def test_rebuild_matches_reference(protocol, seed, tamper):
    config = default_config(capacity_bytes=64 * MB)
    num_counters = config.pcm.capacity_bytes // config.security.page_bytes
    rng = random.Random(seed)
    pages = rng.sample(range(num_counters), 8)
    mee = written_machine(config, protocol, pages, rng)
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


@pytest.mark.parametrize("num_counters", [121, 968, 1000])
def test_genesis_matches_reference_on_ragged_trees(num_counters):
    # Counter counts that are not a power of the arity leave partial
    # nodes on the right edge at several levels; each node's genesis
    # value depends on its whole shape, not its level and child count.
    geometry = TreeGeometry(num_counter_blocks=num_counters, arity=8)
    tree = BonsaiMerkleTree(geometry, RealCryptoEngine(), SparseMemory())
    expected, root_hash = reference_tree(tree.backend, num_counters, 8)
    assert len(expected) == geometry.total_nodes()
    for node, value in expected.items():
        assert tree.persisted_node_bytes(node) == value, node
    assert tree.root_register == root_hash


def test_stale_node_over_unwritten_counters_is_rewritten():
    # A WPQ rollback can leave a stored tree node whose counters are all
    # back to unwritten; the rebuild must overwrite it like any node.
    config = default_config(capacity_bytes=64 * MB)
    num_counters = config.pcm.capacity_bytes // config.security.page_bytes
    mee = written_machine(config, "leaf", [0, 1, 9], random.Random(5), writes=100)
    mee.crash()
    tree = mee.tree
    stale = [(2, 3), (4, 100), (tree.geometry.num_node_levels, 2000)]
    for node in stale:
        first, last = tree.geometry.counter_range_of(node)
        assert not any(
            tree.backend.contains(MetadataRegion.COUNTERS, i)
            for i in range(first, last)
        )
        tree.backend.write(MetadataRegion.TREE, node, bytes([0xA5]) * 64)
    expected, root_hash = reference_tree(
        tree.backend, num_counters, config.security.tree_arity
    )
    assert root_hash == tree.root_register
    assert tree.rebuild_all_from_persisted() == tree.geometry.total_nodes()
    for node, value in expected.items():
        assert tree.persisted_node_bytes(node) == value, node


def test_amnt_level3_subtree_rebuild_matches_reference():
    config = default_config(capacity_bytes=64 * MB)
    assert config.amnt.subtree_level == 3
    num_counters = config.pcm.capacity_bytes // config.security.page_bytes
    mee = written_machine(config, "amnt", [3, 4, 70, 300], random.Random(6))
    mee.crash()
    tree = mee.tree
    subtree = tuple(mee.protocol._registers[0].tag)
    assert subtree[0] == 3
    expected, root_hash = reference_tree(
        tree.backend, num_counters, config.security.tree_arity
    )
    assert root_hash == tree.root_register
    outcome = mee.protocol.recover(tree)
    assert outcome.ok, outcome.detail
    # The level-3 subtree's 1 + 8 + 64 nodes, plus its two ancestors.
    assert outcome.nodes_recomputed == 73 + 2
    for node, value in expected.items():
        assert tree.persisted_node_bytes(node) == value, node


class _CountingEngine(RealCryptoEngine):
    def __init__(self):
        super().__init__()
        self.hash8_calls = 0

    def hash8(self, data):
        self.hash8_calls += 1
        return super().hash8(data)


def test_leaf_recovery_hashes_scale_with_the_written_footprint():
    # At the default 8 GB a full rebuild models 299,593 nodes over 2**21
    # counter lines; the host hashes only what was written and the
    # paths above it, while nodes_recomputed stays the modeled count.
    config = default_config()
    num_counters = config.pcm.capacity_bytes // config.security.page_bytes
    rng = random.Random(7)
    pages = rng.sample(range(num_counters), 200)
    mee = written_machine(config, "leaf", pages, rng)
    mee.crash()
    tree = mee.tree
    touched = (
        tree.backend.lines_written(MetadataRegion.COUNTERS)
        + tree.backend.lines_written(MetadataRegion.TREE)
    )
    engine = _CountingEngine()
    tree.engine = engine
    outcome = mee.protocol.recover(tree)
    assert outcome.ok, outcome.detail
    assert outcome.nodes_recomputed == tree.geometry.total_nodes()
    depth = tree.geometry.num_node_levels
    assert 0 < engine.hash8_calls <= touched * (depth + 1)
    assert engine.hash8_calls < num_counters // 100
