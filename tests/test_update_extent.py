"""A protocol's update extent is a prefix of the ancestor path.

``path_update_extent`` returns a length ``n``; the engine updates
``path[:n]`` of the bottom-up path, slicing the event record's chain.
For ``amnt`` the prefix is exactly the nodes below the subtree level
when the write lands in a fast subtree, and the whole path otherwise.
For ``bmf`` it stops just below the nearest persistent root, so
``path[n]`` is that root. The NV anchors a walk stops at are one
container per protocol (``trusted_nodes()``), updated in place.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.util.units import MB

CONFIG = default_config(capacity_bytes=64 * MB)
COUNTERS = CONFIG.pcm.capacity_bytes // CONFIG.security.page_bytes


def engine_for(name, config=CONFIG):
    return MemoryEncryptionEngine(config, make_protocol(name, config))


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(min_value=2, max_value=4),
    regions=st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    counter_index=st.integers(min_value=0, max_value=COUNTERS - 1),
)
def test_amnt_extent_is_the_prefix_below_a_fast_subtree(
    level, regions, counter_index
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
    path = mee.geometry.ancestors_of_counter(counter_index)
    n = protocol.path_update_extent(counter_index, path)
    if protocol.in_subtree(counter_index):
        assert path[:n] == [node for node in path if node[0] > level]
    else:
        assert n == len(path)
    assert protocol.trusted_nodes() is slots


@settings(max_examples=60, deadline=None)
@given(
    prunes=st.lists(st.integers(min_value=0), max_size=12),
    counter_index=st.integers(min_value=0, max_value=COUNTERS - 1),
)
def test_bmf_extent_stops_below_the_nearest_persistent_root(
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
    path = mee.geometry.ancestors_of_counter(counter_index)
    n = protocol.path_update_extent(counter_index, path)
    assert path[n] == protocol.nearest_persistent_root(path)
    assert not any(node in roots for node in path[:n])
    assert protocol.trusted_nodes() is roots


def test_default_extent_is_the_whole_path():
    mee = engine_for("strict")
    path = mee.geometry.ancestors_of_counter(5)
    assert mee.protocol.path_update_extent(5, path) == len(path)
    assert not mee.protocol.trusted_register_node(path[-1], 5)


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
        assert mee.protocol.trusted_register_node(next(iter(trusted)), 0)
