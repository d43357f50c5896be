"""Shared fixtures: small machines that keep functional tests fast.

The paper's 8 GB geometry is exercised where the numbers matter
(geometry, Table 3/4); functional crash tests run on a 64 MB device —
identical code paths, much smaller trees.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.config import default_config
from repro.sim.machine import build_machine
from repro.util.units import MB
from repro.workloads.registry import result_cache_clear


@pytest.fixture(autouse=True)
def _cold_result_tier():
    """Every test starts with an empty in-memory result tier, so a
    ``run()`` leg simulates its cells whatever earlier tests ran."""
    result_cache_clear()


@pytest.fixture
def tier_misses():
    """Read the result tier's miss counter: a store-less ``run()``
    simulated ``n`` distinct cells exactly when it grew by ``n``.
    Telemetry collection must be on (the default)."""
    return lambda: telemetry.get_registry().counter("result_cache.misses").value


@pytest.fixture
def cold_leg(tier_misses):
    """Run one store-less ``run()`` leg against an empty result tier
    and check that it simulated ``cells`` distinct cells, so a leg
    compared with another cannot pass by reading the other's results
    back from the tier."""

    def leg(call, cells):
        result_cache_clear()
        before = tier_misses()
        value = call()
        assert tier_misses() - before == cells, "leg did not simulate"
        return value

    return leg


@pytest.fixture
def small_config():
    """64 MB PCM: 16k counter blocks, 5 integrity levels."""
    return default_config(capacity_bytes=64 * MB)


@pytest.fixture
def paper_config():
    """The paper's Table 1 machine (8 GB, level-3 subtree)."""
    return default_config()


@pytest.fixture
def functional_machine_factory(small_config):
    """Build functional-mode machines on the small device."""

    def factory(protocol_name: str, config=None, **kwargs):
        return build_machine(
            config or small_config, protocol_name, functional=True, **kwargs
        )

    return factory


@pytest.fixture
def timing_machine_factory(small_config):
    """Build timing-only machines on the small device."""

    def factory(protocol_name: str, config=None, **kwargs):
        return build_machine(config or small_config, protocol_name, **kwargs)

    return factory
