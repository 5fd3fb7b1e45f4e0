"""Cycle-level simulator.

Substitutes for the paper's hardware (DECstation 5000 timing runs, i860
boards): it executes linked programs *functionally* — every instruction's
effect comes from the same Maril semantics that drove selection — while a
pipeline model derived from the same resource vectors and latencies charges
cycles, including structural hazards, multi-issue packing, branch delay
slots and an optional direct-mapped data cache (the effect the paper
identifies as the main source of its actual/estimated gap in Table 4).
"""

from repro.sim.simulator import SimResult, Simulator, run_program
from repro.sim.blockcache import BlockTimingCache
from repro.sim.cache import DirectMappedCache
from repro.sim.pipeline import PipelineModel

__all__ = [
    "BlockTimingCache",
    "DirectMappedCache",
    "PipelineModel",
    "SimResult",
    "Simulator",
    "run_program",
]
