"""Trace-driven simulation: machines, the engine loop, and sweeps."""

from repro.sim.engine import simulate
from repro.sim.machine import Machine, build_machine
from repro.sim.parallel import ParallelSweepRunner, SweepCell, run_cell
from repro.sim.results import SimulationResult, normalized_cycles
from repro.sim.runner import run_protocol_sweep, sweep_normalized

__all__ = [
    "Machine",
    "build_machine",
    "simulate",
    "ParallelSweepRunner",
    "SweepCell",
    "run_cell",
    "SimulationResult",
    "normalized_cycles",
    "run_protocol_sweep",
    "sweep_normalized",
]
