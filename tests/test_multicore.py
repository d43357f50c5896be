"""Per-core private caches beneath the shared LLC."""

from dataclasses import replace

import pytest

from repro.config import DataCacheConfig, default_config
from repro.mem.address import AddressSpace
from repro.sim.machine import build_machine
from repro.sim.multicore import PrivateCacheLayer, simulate_multicore
from repro.util.units import KB, MB
from repro.workloads.multiprogram import multiprogram_trace
from repro.workloads.synthetic import WorkloadProfile, generate_trace


@pytest.fixture
def config():
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base, llc=DataCacheConfig(capacity_bytes=256 * KB, associativity=16)
    )


@pytest.fixture
def layer():
    space = AddressSpace(capacity_bytes=64 * MB)
    return PrivateCacheLayer(
        DataCacheConfig(capacity_bytes=4 * KB, associativity=2), space
    )


class TestPrivateCacheLayer:
    def test_per_pid_isolation(self, layer):
        hit, fill, _ = layer.access(0, 0, False)
        assert not hit and fill == 0
        # The same block from another core misses its own cache.
        hit, fill, _ = layer.access(1, 0, False)
        assert not hit and fill == 0
        # But hits its own on re-access.
        hit, _, _ = layer.access(0, 0, False)
        assert hit

    def test_dirty_victims_surface(self, layer):
        sets = 32  # 4 kB / 64 B / 2 ways
        layer.access(0, 0, True)
        layer.access(0, sets * 64, False)
        _, _, victims = layer.access(0, 2 * sets * 64, False)
        assert victims == (0,)

    def test_cores_listed(self, layer):
        layer.access(3, 0, False)
        layer.access(1, 0, False)
        assert layer.cores() == [1, 3]

    def test_hit_rate_per_core(self, layer):
        layer.access(0, 0, False)
        layer.access(0, 0, False)
        assert layer.hit_rate(0) == pytest.approx(0.5)


class TestSimulateMulticore:
    def test_runs_and_reports(self, config):
        trace = multiprogram_trace(
            [
                WorkloadProfile(
                    name="mc-a", footprint_bytes=1 * MB, num_accesses=2000,
                    write_fraction=0.4, think_cycles=4,
                ),
                WorkloadProfile(
                    name="mc-b", footprint_bytes=1 * MB, num_accesses=2000,
                    write_fraction=0.4, think_cycles=4,
                ),
            ],
            seed=6,
        )
        machine = build_machine(config, "amnt", seed=6)
        result = simulate_multicore(machine, trace, seed=6)
        assert result.cycles > 0
        assert result.accesses == 4000

    def test_private_layer_filters_shared_traffic(self, config):
        """With private caches absorbing reuse, the shared LLC sees
        fewer probes than the flat model's."""
        from repro.sim.engine import simulate

        profile = WorkloadProfile(
            name="mc-filter", footprint_bytes=512 * KB, num_accesses=4000,
            write_fraction=0.3, think_cycles=4,
        )
        trace = generate_trace(profile, seed=2)
        flat = build_machine(config, "leaf", seed=2)
        simulate(flat, trace, seed=2)
        layered = build_machine(config, "leaf", seed=2)
        simulate_multicore(layered, trace, seed=2)
        flat_probes = (
            flat.llc.stats.get("hits") + flat.llc.stats.get("misses")
        )
        layered_probes = (
            layered.llc.stats.get("hits") + layered.llc.stats.get("misses")
        )
        assert layered_probes < flat_probes

    def test_protocol_ordering_survives_the_layer(self, config):
        trace = generate_trace(
            WorkloadProfile(
                name="mc-order", footprint_bytes=2 * MB, num_accesses=4000,
                write_fraction=0.5, think_cycles=4,
            ),
            seed=3,
        )
        cycles = {}
        for name in ("leaf", "strict"):
            machine = build_machine(config, name, seed=3)
            cycles[name] = simulate_multicore(machine, trace, seed=3).cycles
        assert cycles["leaf"] < cycles["strict"]

    def test_churn_follows_the_access_count(self, config):
        """Churn fires every churn_interval-th reference, as in
        simulate(), even when that reference hits in a private cache
        (blackscholes, seed 7: reference 1,900 hits privately)."""
        from repro.sim.engine import simulate
        from repro.workloads.registry import materialize_trace, profile_spec

        trace = materialize_trace(profile_spec("parsec", "blackscholes", 2000, 7))
        churns = {}
        for driver in (simulate, simulate_multicore):
            machine = build_machine(config, "leaf", seed=7)
            calls = []
            churn = machine.mm.churn
            machine.mm.churn = lambda *a, **k: calls.append(1) or churn(*a, **k)
            driver(machine, trace, seed=7, churn_interval=100)
            churns[driver.__name__] = len(calls)
        assert churns == {"simulate": 20, "simulate_multicore": 20}
