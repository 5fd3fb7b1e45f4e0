"""Shared helpers for the evaluation harness."""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro
import repro.obs as obs
from repro.sim import DirectMappedCache, SimResult
from repro.workloads import kernel_by_id

STRATEGIES = ("postpass", "ips", "rase")

#: bounded per-process executable memo — maps ``(source, target,
#: CompileOptions)`` to the built executable so every unit that
#: re-compiles the same program reuses the warmed segment JIT and
#: block-timing memo instead of re-warming from zero.  FIFO-evicted at
#: the cap; executables carry their JIT code cache, so the cap bounds
#: worker memory.
_EXE_MEMO: dict = {}
_EXE_MEMO_CAP = 64
#: nonzero inside :func:`shared_executables` — enables the memo without
#: threading a flag through every unit signature
_MEMO_DEPTH = 0


def _target_key(target):
    """A hashable stand-in for a target name or ``TargetMachine``."""
    if isinstance(target, str):
        return target
    return getattr(target, "content_key", None) or id(target)


@contextmanager
def shared_executables():
    """Enable the executable memo for a whole region of code.

    The report runs inside one such scope, in one process, so sections
    that re-compile the same (kernel, target, strategy) triple share one
    warmed segment JIT and block-timing memo instead of unpickling and
    re-materializing per section.  Scopes nest; the memo is dropped when
    the outermost one exits.
    """
    global _MEMO_DEPTH
    _MEMO_DEPTH += 1
    try:
        yield
    finally:
        _MEMO_DEPTH -= 1
        if _MEMO_DEPTH == 0:
            _EXE_MEMO.clear()


def compile_kernel(source: str, target, options=None):
    """``repro.compile_c`` through the executable memo when one is active.

    Evaluation units should compile through this so memo-scoped runs
    share warmed executables; outside any scope it is exactly
    ``compile_c``.
    """
    options = options or repro.CompileOptions()
    if not _MEMO_DEPTH:
        return repro.compile_c(source, target, options)
    key = (source, _target_key(target), options)
    executable = _EXE_MEMO.get(key)
    if executable is None:
        executable = repro.compile_c(source, target, options)
        while len(_EXE_MEMO) >= _EXE_MEMO_CAP:
            _EXE_MEMO.pop(next(iter(_EXE_MEMO)))
        _EXE_MEMO[key] = executable
    return executable


@dataclass
class KernelRun:
    """One (kernel, strategy) measurement for Table 4."""

    kernel_id: int
    strategy: str
    actual_cycles: int
    estimated_cycles: int
    instructions: int
    code_size: int
    checksum: float
    #: profiled blocks with no scheduler cost entry (should be 0; a
    #: nonzero count means a selector/labeling bug is skewing the ratio)
    unmatched_blocks: int = 0
    #: final-pass scheduler stall attribution, summed over the kernel's
    #: functions (reason code -> committed nop slots) — free to collect,
    #: so always filled
    sched_stall_reasons: dict = field(default_factory=dict)
    sched_nop_slots: int = 0
    #: simulator hazard-kind cycle attribution, filled only when the run
    #: used the accounting pipeline model (``run_kernel(breakdown=True)``)
    cycle_breakdown: dict | None = None

    @property
    def stall_cycles(self) -> int:
        return sum(self.cycle_breakdown.values()) if self.cycle_breakdown else 0

    @property
    def ratio(self) -> float:
        return self.actual_cycles / max(1, self.estimated_cycles)


def estimated_cycles_detailed(
    executable, profile: SimResult
) -> tuple[int, int]:
    """The paper's estimate, plus a mismatch count.

    Per-block scheduler cost x execution frequency ("combining basic block
    execution costs computed by each scheduler with execution frequencies
    computed by a separate profiling tool", so cache misses and
    cross-block stalls are not considered).  The second element counts
    profiled blocks that have *no* cost entry: silently scoring such a
    block as zero would deflate the estimate and inflate the
    actual/estimated ratio, so callers surface the count as a warning.
    """
    machine_program = executable.machine_program
    cost_of: dict[str, int] = {}
    for fn in machine_program.functions:
        for block in fn.blocks:
            cost_of[block.label] = block.schedule_cost
    total = 0
    unmatched = 0
    for label, count in profile.block_counts.items():
        cost = cost_of.get(label)
        if cost is None:
            unmatched += 1
            obs.count("eval.profiled_blocks_without_cost")
            continue
        total += cost * count
    if unmatched:
        warnings.warn(
            f"{unmatched} profiled block(s) have no scheduler cost entry; "
            "the actual/estimated ratio is skewed",
            stacklevel=2,
        )
    return total, unmatched


def estimated_cycles(executable, profile: SimResult) -> int:
    """Back-compat wrapper around :func:`estimated_cycles_detailed`."""
    total, _unmatched = estimated_cycles_detailed(executable, profile)
    return total


def kernel_key(
    section: str, target: str, strategy: str, kernel_id: int
) -> str:
    """The stable grid/journal key for one (target, strategy, kernel) unit."""
    return f"{section}/{target}/{strategy}/K{kernel_id}"


def run_kernel(
    spec,
    target: str,
    strategy: str,
    scale: float = 1.0,
    cache: bool = True,
    breakdown: bool = False,
) -> KernelRun:
    """Compile and simulate one Livermore kernel under one strategy.

    ``breakdown=True`` simulates under the accounting pipeline model
    (``SimOptions(trace=True)``), filling ``KernelRun.cycle_breakdown``.
    Table 4's bulk measurement leaves it off; the report's dedicated
    stall-attribution section turns it on.  Either way the run takes
    the simulation engine.
    """
    # inside a shared-executable scope, same-program units share one
    # executable, so its JIT and timing memo arrive warm
    executable = compile_kernel(
        spec.source, target, repro.CompileOptions(strategy=strategy)
    )
    loop, n = spec.args
    n = max(4, int(n * scale))
    data_cache = DirectMappedCache() if cache else None
    result = repro.simulate(
        executable, "bench", args=(loop, n),
        options=repro.SimOptions(cache=data_cache, trace=breakdown),
    )
    estimate, unmatched = estimated_cycles_detailed(executable, result)
    sched_reasons: dict[str, int] = {}
    sched_nop_slots = 0
    for stats in executable.machine_program.stats.values():
        for reason, count in stats.stall_reasons.items():
            sched_reasons[reason] = sched_reasons.get(reason, 0) + count
        sched_nop_slots += stats.nop_slots
    return KernelRun(
        kernel_id=spec.id,
        strategy=strategy,
        actual_cycles=result.cycles,
        estimated_cycles=estimate,
        instructions=result.instructions,
        code_size=executable.instruction_count(),
        checksum=result.return_value["double"],
        unmatched_blocks=unmatched,
        sched_stall_reasons=sched_reasons,
        sched_nop_slots=sched_nop_slots,
        cycle_breakdown=result.cycle_breakdown,
    )


def grid_run_kernel(
    kernel_id: int,
    target: str,
    strategy: str,
    scale: float = 1.0,
    cache: bool = True,
    breakdown: bool = False,
) -> KernelRun:
    """Picklable :func:`run_kernel` wrapper for the process-pool grid."""
    return run_kernel(
        kernel_by_id(kernel_id),
        target,
        strategy,
        scale=scale,
        cache=cache,
        breakdown=breakdown,
    )
