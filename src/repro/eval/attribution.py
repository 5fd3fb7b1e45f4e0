"""The report's stall-attribution section.

Answers "where do the cycles go?" per target and strategy: one
representative Livermore kernel is compiled and simulated with
``SimOptions(trace=True)``, and the cycles the issue point lost come
back attributed to hazard kinds — alongside the scheduler's own
stall-reason histogram for the same binary (why the *static* schedule
carries nop slots).  The runs fan out over the same fault-tolerant
grid as the tables, at a fixed small problem scale so the section
stays cheap regardless of ``--scale``.
"""

from __future__ import annotations

from repro.eval.common import STRATEGIES, kernel_key
from repro.eval.grid import GridFailure, GridOptions, GridTask, run_grid
from repro.obs import stalls as stall_codes
from repro.utils.tables import TextTable

#: the representative kernel (K7: inner-product heavy, exercises loads,
#: latencies and branches) and the fixed scale the section runs at
KERNEL_ID = 7
SCALE = 0.15

TARGETS = ("r2000", "i860")


def measure_stalls(
    targets=TARGETS,
    strategies=STRATEGIES,
    kernel_id: int = KERNEL_ID,
    scale: float = SCALE,
    options: GridOptions | None = None,
):
    """(target, strategy) -> KernelRun with ``cycle_breakdown`` filled.

    Failed units appear as :class:`GridFailure` values instead.
    """
    from repro.eval.common import grid_run_kernel

    tasks = [
        GridTask(
            kernel_key("stalls", target, strategy, kernel_id),
            grid_run_kernel,
            (kernel_id, target, strategy),
            {"scale": scale, "breakdown": True},
        )
        for target in targets
        for strategy in strategies
    ]
    results = run_grid(tasks, options, label="stalls")
    out = {}
    index = 0
    for target in targets:
        for strategy in strategies:
            out[(target, strategy)] = results[index]
            index += 1
    return out


def render_stalls(data) -> str:
    """The section body: simulator cycle breakdown + scheduler reasons."""
    kinds = list(stall_codes.SIM_STALL_KINDS)
    table = TextTable(
        ["Target", "Strat", "Cycles", "Stall"] + [k[:8] for k in kinds]
    )
    failures: list[str] = []
    sched_lines: list[str] = []
    for (target, strategy), run in data.items():
        if isinstance(run, GridFailure):
            failures.append(f"  FAILED: {run.summary()}")
            continue
        breakdown = run.cycle_breakdown or {}
        table.add_row(
            target,
            strategy,
            run.actual_cycles,
            run.stall_cycles,
            *[breakdown.get(kind, 0) for kind in kinds],
        )
        reasons = ", ".join(
            f"{reason} x{count}"
            for reason, count in sorted(
                run.sched_stall_reasons.items(),
                key=lambda item: -item[1],
            )[:4]
        )
        sched_lines.append(
            f"  {target}/{strategy}: {run.sched_nop_slots} scheduled nop "
            f"slots ({reasons or 'none'})"
        )
    parts = [
        f"kernel K{KERNEL_ID} at scale {SCALE} under the accounting "
        "pipeline model; every cycle of issue-point advance is attributed "
        "(columns sum to Cycles - 1; 'resource' includes issue-slot "
        "serialization on single-issue machines)",
        str(table),
        "scheduler stall reasons (static, final pass):",
    ]
    parts.extend(sched_lines)
    parts.extend(failures)
    return "\n".join(parts)
