"""The evaluation harness: regenerates every table and figure of the
paper's section 5 (see DESIGN.md's experiment index).

* :mod:`repro.eval.table1` — Maril machine description statistics
* :mod:`repro.eval.table2` — system source code size by phase
* :mod:`repro.eval.table3` — compile time and dilation
* :mod:`repro.eval.table4` — Livermore Loops: execution time and
  actual/estimated ratios
* :mod:`repro.eval.figure7` — the i860 dual-operation schedule
* :mod:`repro.eval.claims` — the section-5 headline comparisons
* :mod:`repro.eval.ablation` — design-choice ablations (temporal
  scheduling; the max-distance heuristic)
* :mod:`repro.eval.grid` — the fault-tolerant parallel work-unit grid
* :mod:`repro.eval.report` — runs everything and renders EXPERIMENTS.md
"""

from repro.eval.table1 import table1
from repro.eval.table2 import table2
from repro.eval.table3 import table3
from repro.eval.table4 import table4
from repro.eval.figure7 import figure7
from repro.eval.claims import claim_strategy_speedup, claim_compile_time_ordering
from repro.eval.ablation import ablation_temporal, ablation_heuristic
from repro.eval.executors import Executor
from repro.eval.grid import (
    FailureCollector,
    GridFailure,
    GridOptions,
    GridTask,
    resolve_jobs,
    resolve_timeout,
    run_grid,
)

__all__ = [
    "Executor",
    "FailureCollector",
    "GridFailure",
    "GridOptions",
    "GridTask",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure7",
    "claim_strategy_speedup",
    "claim_compile_time_ordering",
    "ablation_temporal",
    "ablation_heuristic",
    "resolve_jobs",
    "resolve_timeout",
    "run_grid",
]
