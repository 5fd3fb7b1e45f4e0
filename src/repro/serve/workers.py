"""The work units a service request becomes.

Module-level callables with picklable arguments and JSON-ready results,
so every executor backend can run them: the local pool pickles the
callable itself, and its workers pull targets and executables from the
persistent artifact cache.

Each unit reports compile provenance — how many *fresh* kernel compiles
and CGG builds it caused — by snapshotting the :mod:`repro.utils.timing`
counters around the work.  On a warm artifact cache both deltas are 0;
``/v1/stats`` and the CI serve smoke assert exactly that.
"""

from __future__ import annotations

from repro.options import CompileOptions, SimOptions
from repro.utils import timing


def _compile(source: str, target: str, options: CompileOptions):
    import repro

    before = (
        timing.counter("compile.compiled"),
        timing.counter("cgg.builds"),
    )
    executable = repro.compile_c(source, target, options)
    after = (
        timing.counter("compile.compiled"),
        timing.counter("cgg.builds"),
    )
    return executable, after[0] - before[0], after[1] - before[1]


def compile_unit(source: str, target: str, options: CompileOptions) -> dict:
    """``POST /v1/compile``: source -> scheduled assembly listing."""
    from repro.backend.asmprinter import format_program

    executable, compiled, cgg_builds = _compile(source, target, options)
    program = executable.machine_program
    return {
        "target": target,
        "strategy": options.strategy,
        "assembly": format_program(program),
        "functions": [fn.name for fn in program.functions],
        "instructions": executable.instruction_count(),
        "compiled": compiled,
        "cgg_builds": cgg_builds,
    }


def explain_unit(source: str, target: str, options: CompileOptions) -> dict:
    """``POST /v1/explain``: the issue-cycle annotated listing plus the
    scheduler's per-function stall-reason tallies."""
    from repro.backend.asmprinter import format_program

    executable, compiled, cgg_builds = _compile(source, target, options)
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
        "compiled": compiled,
        "cgg_builds": cgg_builds,
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
    import repro

    executable, compiled, cgg_builds = _compile(source, target, options)
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
        "compiled": compiled,
        "cgg_builds": cgg_builds,
    }
