"""The work units a service request becomes.

Module-level callables with picklable arguments and JSON-ready results,
so every executor backend can run them: the local pool pickles the
callable itself, and its workers pull targets and executables from the
persistent artifact cache.

Every unit runs under its own trace
(:func:`~repro.eval.executors.base.run_unit`), so compile provenance —
how many *fresh* kernel compiles and CGG builds it caused — is that
trace's ``compile.compiled`` and ``cgg.builds`` counters, which the
service copies into the response.  On a warm artifact cache both are 0;
``/v1/stats`` and the CI serve smoke assert exactly that.
"""

from __future__ import annotations

import repro
from repro.options import CompileOptions, SimOptions


def compile_unit(source: str, target: str, options: CompileOptions) -> dict:
    """``POST /v1/compile``: source -> scheduled assembly listing."""
    from repro.backend.asmprinter import format_program

    executable = repro.compile_c(source, target, options)
    program = executable.machine_program
    return {
        "target": target,
        "strategy": options.strategy,
        "assembly": format_program(program),
        "functions": [fn.name for fn in program.functions],
        "instructions": executable.instruction_count(),
    }


def explain_unit(source: str, target: str, options: CompileOptions) -> dict:
    """``POST /v1/explain``: the issue-cycle annotated listing plus the
    scheduler's per-function stall-reason tallies."""
    from repro.backend.asmprinter import format_program

    executable = repro.compile_c(source, target, options)
    program = executable.machine_program
    functions = {
        name: {
            "nop_slots": stats.nop_slots,
            "stall_reasons": dict(stats.stall_reasons),
        }
        for name, stats in sorted(program.stats.items())
    }
    return {
        "target": target,
        "strategy": options.strategy,
        "listing": format_program(program, explain=True),
        "functions": functions,
    }


def run_unit(
    source: str,
    target: str,
    options: CompileOptions,
    entry: str,
    args: tuple,
    sim: SimOptions,
) -> dict:
    """``POST /v1/run``: compile, link and simulate one function."""
    executable = repro.compile_c(source, target, options)
    result = repro.simulate(executable, entry, tuple(args), options=sim)
    return {
        "target": target,
        "strategy": options.strategy,
        "entry": entry,
        "result": result.return_value,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "loads": result.loads,
        "stores": result.stores,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cycle_breakdown": (
            dict(result.cycle_breakdown)
            if result.cycle_breakdown is not None
            else None
        ),
    }
