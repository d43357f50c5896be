"""Experiment definitions: one function per table/figure of the paper.

Every function is deterministic in its (seed, size) arguments and
returns plain data structures the harnesses print and assert on. Trace
lengths default to laptop-scale values; the statistical structure of
the workloads is length-invariant, so growing them sharpens the numbers
without changing the shapes (see DESIGN.md's substitution notes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, default_config
from repro.core.area import AreaOverhead, protocol_area_table
from repro.core.recovery import RecoveryAnalysis
from repro.sim.machine import build_machine
from repro.sim.parallel import ParallelSweepRunner, SweepCell
from repro.sim.results import SimulationResult, normalized_cycles
from repro.sim.runner import FIGURE_PROTOCOLS
from repro.util.rng import Seed
from repro.workloads.multiprogram import multiprogram_trace, pair_label
from repro.workloads.parsec import MULTIPROGRAM_PAIRS, parsec_names, parsec_profile
from repro.workloads.registry import multiprogram_spec, profile_spec
from repro.workloads.spec import spec_names, spec_profile
from repro.workloads.synthetic import generate_trace

#: Scatter aging used by the multiprogram methodology: ~40 max-order
#: chunks (160 MB) so the free pool straddles two level-3 subtree
#: regions unevenly — interleaved co-runners then split across regions
#: (Figure 3b's effect) without the split being a perfect coin flip.
MULTIPROGRAM_SCATTER_CHUNKS = 40

#: Single-program protocol lineup of Figure 4 (plus the baseline).
FIG4_PROTOCOLS = ("volatile", "leaf", "strict", "anubis", "bmf", "amnt", "amnt++")


# ---------------------------------------------------------------------------
# Figure 3 — memory accesses per address, single vs multiprogram
# ---------------------------------------------------------------------------

def fig3_hotness(
    accesses: int = 60_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
) -> Dict[str, Dict[str, float]]:
    """Accesses-per-physical-region concentration, lbm alone (Fig. 3a)
    versus perlbench+lbm co-running (Fig. 3b).

    Returns, per scenario, the share of physical-memory accesses landing
    in the most-accessed level-3 subtree region, the number of regions
    needed to cover 90 % of accesses, and the count of touched regions —
    the quantities the paper's scatter plots convey visually.
    """
    config = config or default_config()

    def region_histogram(trace, machine) -> Dict[int, int]:
        region_bytes = machine.mee.geometry.region_bytes(
            config.amnt.subtree_level
        )
        histogram: Dict[int, int] = {}
        for access in trace:
            paddr = machine.mm.translate(access.pid, access.vaddr)
            region = paddr // region_bytes
            histogram[region] = histogram.get(region, 0) + 1
        return histogram

    def summarize(histogram: Dict[int, int]) -> Dict[str, float]:
        total = sum(histogram.values())
        shares = sorted(histogram.values(), reverse=True)
        top_share = shares[0] / total
        covered, needed = 0, 0
        for count in shares:
            covered += count
            needed += 1
            if covered >= 0.9 * total:
                break
        return {
            "top_region_share": top_share,
            "regions_for_90pct": float(needed),
            "touched_regions": float(len(shares)),
        }

    single_trace = generate_trace(
        spec_profile("lbm").scaled(accesses=accesses), seed=seed
    )
    single_machine = build_machine(config, "volatile", seed=seed)
    multi_trace = multiprogram_trace(
        [spec_profile("perlbench"), spec_profile("lbm")],
        seed=seed,
        accesses_each=accesses,
    )
    multi_machine = build_machine(
        config,
        "volatile",
        seed=seed,
        scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
    )
    return {
        "lbm (single)": summarize(region_histogram(single_trace, single_machine)),
        "perlbench+lbm (multi)": summarize(
            region_histogram(multi_trace, multi_machine)
        ),
    }


# ---------------------------------------------------------------------------
# Figure 4 — single-program PARSEC normalized cycles
# ---------------------------------------------------------------------------

def fig4_single_program(
    benchmarks: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = FIG4_PROTOCOLS,
    accesses: int = 60_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Normalized cycles per PARSEC benchmark per protocol.

    ``workers > 1`` fans every (benchmark, protocol) cell out over a
    process pool at once — not one benchmark at a time — so the grid
    saturates the pool even when benchmarks differ wildly in cost.
    """
    config = config or default_config()
    benchmarks = list(benchmarks) if benchmarks else parsec_names()
    specs = {
        name: profile_spec("parsec", name, accesses, seed)
        for name in benchmarks
    }
    return _grid_normalized(specs, config, protocols, seed, workers)


def _grid_normalized(
    specs: Dict[str, "object"],
    config: SystemConfig,
    protocols: Sequence[str],
    seed: Seed,
    workers: int,
    scatter_span_chunks: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Run a full workload × protocol grid and normalize per workload."""
    protocols = tuple(protocols)
    cells = [
        SweepCell(
            protocol=protocol,
            trace=spec,
            seed=seed,
            scatter_span_chunks=scatter_span_chunks,
        )
        for spec in specs.values()
        for protocol in protocols
    ]
    results = ParallelSweepRunner(workers=workers).run(cells, config)
    figure: Dict[str, Dict[str, float]] = {}
    for row, label in enumerate(specs):
        row_results = dict(
            zip(protocols, results[row * len(protocols):(row + 1) * len(protocols)])
        )
        figure[label] = normalized_cycles(row_results)
    return figure


# ---------------------------------------------------------------------------
# Figure 5 — multiprogram PARSEC normalized cycles
# ---------------------------------------------------------------------------

def fig5_multiprogram(
    pairs: Sequence[Tuple[str, str]] = tuple(MULTIPROGRAM_PAIRS),
    protocols: Sequence[str] = FIG4_PROTOCOLS,
    accesses_each: int = 40_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Normalized cycles for the paper's co-running pairs."""
    config = config or default_config()
    specs = {
        pair_label(pair): multiprogram_spec("parsec", pair, accesses_each, seed)
        for pair in pairs
    }
    return _grid_normalized(
        specs,
        config,
        protocols,
        seed,
        workers,
        scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
    )


# ---------------------------------------------------------------------------
# Figures 6 & 7 — subtree-level sensitivity (cycles and hit rates)
# ---------------------------------------------------------------------------

def fig6_fig7_level_sweep(
    pairs: Sequence[Tuple[str, str]] = tuple(MULTIPROGRAM_PAIRS),
    levels: Sequence[int] = (2, 3, 4, 5, 6, 7),
    accesses_each: int = 40_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """AMNT vs AMNT++ across subtree root levels.

    Returns ``{pair: {"amnt_cycles": {level: norm}, "amnt++_cycles": ...,
    "amnt_hitrate": {level: rate}, "amnt++_hitrate": ...}}`` — Figure 6
    is the *_cycles series, Figure 7 the *_hitrate series.

    Every (pair, level, protocol) run is one sweep cell with its own
    level-specific config override, so the whole sensitivity grid fans
    out at once when ``workers > 1``. The volatile baseline runs once
    per pair and normalizes every level: the subtree level is AMNT
    state, and a volatile machine runs the stock OS and never reads it,
    so its result is the same at every level.
    """
    base_config = config or default_config()
    level_protocols = ("amnt", "amnt++")
    cells = []
    for pair in pairs:
        spec = multiprogram_spec("parsec", pair, accesses_each, seed)
        common = dict(
            trace=spec, seed=seed, scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS
        )
        cells.append(SweepCell(protocol="volatile", **common))
        for level in levels:
            level_config = base_config.with_amnt(subtree_level=level)
            for protocol in level_protocols:
                cells.append(
                    SweepCell(protocol=protocol, config=level_config, **common)
                )
    results = iter(ParallelSweepRunner(workers=workers).run(cells, base_config))

    sweep: Dict[str, Dict[str, Dict[int, float]]] = {}
    for pair in pairs:
        label = pair_label(pair)
        sweep[label] = {
            "amnt_cycles": {},
            "amnt++_cycles": {},
            "amnt_hitrate": {},
            "amnt++_hitrate": {},
        }
        baseline = next(results)
        for level in levels:
            for protocol in level_protocols:
                result = next(results)
                sweep[label][f"{protocol}_cycles"][level] = (
                    result.cycles / baseline.cycles
                )
                hit_rate = result.subtree_hit_rate()
                sweep[label][f"{protocol}_hitrate"][level] = (
                    hit_rate if hit_rate is not None else 1.0
                )
    return sweep


# ---------------------------------------------------------------------------
# Figure 8 — SPEC CPU 2017 normalized cycles
# ---------------------------------------------------------------------------

def fig8_spec(
    benchmarks: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    accesses: int = 60_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Normalized cycles per SPEC benchmark per protocol."""
    config = config or default_config()
    benchmarks = list(benchmarks) if benchmarks else spec_names()
    specs = {
        name: profile_spec("spec", name, accesses, seed)
        for name in benchmarks
    }
    return _grid_normalized(specs, config, protocols, seed, workers)


# ---------------------------------------------------------------------------
# Table 2 — cost of the modified operating system
# ---------------------------------------------------------------------------

def table2_os_cost(
    pairs: Sequence[Tuple[str, str]] = tuple(MULTIPROGRAM_PAIRS),
    accesses_each: int = 40_000,
    seed: Seed = 2024,
    config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> List[Dict[str, object]]:
    """Modified-OS impact: cycles ratio and instruction-count ratio.

    Runs each multiprogram workload under AMNT on the stock OS and on
    the AMNT++-modified OS; columns match the paper's Table 2.
    """
    config = config or default_config()
    protocols = ("amnt", "amnt++")
    cells = [
        SweepCell(
            protocol=protocol,
            trace=multiprogram_spec("parsec", pair, accesses_each, seed),
            seed=seed,
            scatter_span_chunks=MULTIPROGRAM_SCATTER_CHUNKS,
        )
        for pair in pairs
        for protocol in protocols
    ]
    results = ParallelSweepRunner(workers=workers).run(cells, config)
    rows: List[Dict[str, object]] = []
    for row, pair in enumerate(pairs):
        runs: Dict[str, SimulationResult] = dict(
            zip(protocols, results[row * len(protocols):(row + 1) * len(protocols)])
        )
        rows.append(
            {
                "workload": pair_label(pair),
                "normalized_performance": (
                    runs["amnt++"].cycles / runs["amnt"].cycles
                ),
                "instruction_overhead": (
                    runs["amnt++"].instructions / runs["amnt"].instructions
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — hardware overheads
# ---------------------------------------------------------------------------

def table3_area(
    config: Optional[SystemConfig] = None,
) -> List[AreaOverhead]:
    """Additional on-chip/in-memory hardware per protocol."""
    return protocol_area_table(config or default_config())


# ---------------------------------------------------------------------------
# Table 4 — recovery times versus memory size
# ---------------------------------------------------------------------------

def table4_recovery(
    config: Optional[SystemConfig] = None,
) -> List[Dict[str, object]]:
    """Recovery milliseconds for 2/16/128 TB memories per protocol."""
    analysis = RecoveryAnalysis(config or default_config())
    return analysis.table4()
