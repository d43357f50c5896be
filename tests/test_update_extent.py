"""A write's path update stops where a read's walk stops.

A protocol's NV anchors are one container, ``trusted_nodes()``. A
read's verification walk climbs the bottom-up ancestor path until the
first member, and a write updates (fetches and dirties) only the path
nodes below that member, because its register absorbs the new value
on-chip. These tests drive the rule through the engine: on a fresh
engine, after one ``write_block``, the metadata-cache lines resident on
the write's path are exactly the nodes below the first trusted one. For
``amnt-multi`` that is the nodes below the subtree level inside a fast
subtree and the whole path outside; for ``bmf`` the nodes below the
nearest persistent root; for a protocol without anchors the whole path.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.metadata_cache import node_key
from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.util.units import MB

CONFIG = default_config(capacity_bytes=64 * MB)
PAGE = CONFIG.security.page_bytes
COUNTERS = CONFIG.pcm.capacity_bytes // PAGE

#: The protocols without NV anchors, named here rather than derived.
ANCHORLESS = ("volatile", "leaf", "strict", "anubis", "osiris", "triad", "plp")


def engine_for(name, config=CONFIG):
    return MemoryEncryptionEngine(config, make_protocol(name, config))


def below_first_trusted(path, trusted):
    """The prefix of ``path`` a read's walk may climb past."""
    for n, node in enumerate(path):
        if node in trusted:
            return path[:n]
    return path


def write_and_check(mee, counter_index):
    """Write one block of ``counter_index`` on ``mee`` and check that the
    path nodes it left resident are exactly those below the first
    trusted node; returns them."""
    path = mee.geometry.ancestors_of_counter(counter_index)
    expected = below_first_trusted(path, mee.protocol.trusted_nodes())
    assert not any(mee.mdcache.contains(node_key(*node)) for node in path)
    mee.write_block(counter_index * PAGE)
    resident = [node for node in path if mee.mdcache.contains(node_key(*node))]
    assert resident == expected
    return path, expected


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(min_value=2, max_value=4),
    regions=st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    own=st.booleans(),
    counter_index=st.integers(min_value=0, max_value=COUNTERS - 1),
)
def test_amnt_write_updates_the_path_below_a_fast_subtree(
    level, regions, own, counter_index
):
    config = dataclasses.replace(
        CONFIG,
        amnt=dataclasses.replace(
            CONFIG.amnt, subtree_level=level, multi_subtrees=len(regions)
        ),
    )
    mee = engine_for("amnt-multi", config)
    protocol = mee.protocol
    slots = protocol.trusted_nodes()
    width = mee.geometry.nodes_at_level(level)
    for slot, region in enumerate(regions):
        slots[slot] = (level, region % width)
    if own:
        slots[0] = (level, protocol.region_of_counter(counter_index))
    inside = protocol.in_subtree(counter_index)
    path, updated = write_and_check(mee, counter_index)
    if inside:
        assert updated == [node for node in path if node[0] > level]
    else:
        assert updated == path
    assert protocol.trusted_nodes() is slots


@settings(max_examples=60, deadline=None)
@given(
    prunes=st.lists(st.integers(min_value=0), max_size=12),
    counter_index=st.integers(min_value=0, max_value=COUNTERS - 1),
)
def test_bmf_write_updates_the_path_below_the_nearest_persistent_root(
    prunes, counter_index
):
    mee = engine_for("bmf")
    protocol = mee.protocol
    roots = protocol.trusted_nodes()
    # Grow a root set by pruning drawn roots into their children, as
    # BMF's adaptation does; the set stays a covering antichain.
    deepest = mee.geometry.num_node_levels
    for choice in prunes:
        candidates = [node for node in sorted(roots) if node[0] < deepest]
        if not candidates:
            break
        protocol._prune(candidates[choice % len(candidates)])
    assert protocol.covers_all_leaves()
    path, updated = write_and_check(mee, counter_index)
    assert path[len(updated)] == protocol.nearest_persistent_root(path)
    assert protocol.trusted_nodes() is roots


def test_anchorless_writes_update_the_whole_path():
    for name in ANCHORLESS:
        for counter_index in (0, 5, COUNTERS - 1):
            mee = engine_for(name)
            assert not mee.protocol.trusted_nodes()
            path, updated = write_and_check(mee, counter_index)
            assert updated == path, name
            assert path[-1] not in mee.protocol.trusted_nodes()


def test_trusted_containers_survive_selection_and_adaptation():
    """The engine reads ``trusted_nodes()`` once, so movement and
    prune/merge must update the same container."""
    for name, adaptations in (("amnt", "movements"), ("bmf", "prunes")):
        mee = engine_for(name)
        trusted = mee.protocol.trusted_nodes()
        for write in range(4 * CONFIG.bmf.adjust_interval):
            mee.write_block((write % 3) * 512 * 4096 + 64 * (write % 64))
        assert mee.protocol.stats.get(adaptations) > 0
        assert mee.protocol.trusted_nodes() is trusted
        assert next(iter(trusted)) in mee.protocol.trusted_nodes()
