"""Table 3 — compile time and dilation.

The paper times its front end and the Marion back ends (per strategy,
R2000 and i860) compiling a program suite, and reports *dilation* — the
ratio of instructions executed to instructions generated.  We time our
front end and back ends over the substitute suite (DESIGN.md).  The shape
to reproduce: Postpass < IPS < RASE in back-end time (IPS schedules twice,
RASE gathers extra estimates), and the i860 costing roughly twice the
R2000 (sub-operations multiply the instruction count; temporal scheduling
and classes add work).  Each back-end row also counts the blocks it
scheduled, the deterministic form of the time ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import repro
from repro.backend.codegen import CodeGenerator
from repro.frontend import compile_to_il
from repro.options import CompileOptions
from repro.program import link
from repro.utils.tables import TextTable
from repro.workloads import PROGRAM_SUITE

from repro.eval.common import STRATEGIES, compile_kernel


@dataclass
class CompileTimeRow:
    module: str  # "front end" or "<target>/<strategy>"
    seconds: float
    dilation: float | None = None
    #: block schedulings in one compile of the suite: each function's
    #: schedule passes times its blocks (IPS schedules twice, RASE thrice)
    schedulings: int | None = None


@dataclass
class Table3Data:
    rows: list[CompileTimeRow] = field(default_factory=list)

    def row(self, module: str) -> CompileTimeRow:
        for row in self.rows:
            if row.module == module:
                return row
        raise KeyError(module)


def measure(
    targets=("r2000", "i860"), repeat: int = 1, simulate: bool = True
) -> Table3Data:
    """``simulate=False`` skips the dilation runs (dilation stays
    ``None``) — for callers that only need the compile-time rows."""
    data = Table3Data()

    # front end alone
    start = time.perf_counter()
    for _ in range(repeat):
        il_programs = [compile_to_il(p.source) for p in PROGRAM_SUITE]
    data.rows.append(
        CompileTimeRow("Lcc-analog front end", time.perf_counter() - start)
    )

    for target_name in targets:
        target = repro.load_target(target_name)
        for strategy in STRATEGIES + ("noscheduler",):
            schedule = strategy != "noscheduler"
            real_strategy = strategy if schedule else "postpass"
            start = time.perf_counter()
            executables = []
            for _ in range(repeat):
                executables = []
                for program in PROGRAM_SUITE:
                    generator = CodeGenerator(
                        target,
                        CompileOptions(
                            strategy=real_strategy, schedule=schedule
                        ),
                    )
                    machine_program = generator.compile_il(
                        compile_to_il(program.source)
                    )
                    executable = link(machine_program)
                    executable.machine_program = machine_program
                    executables.append(executable)
            elapsed = time.perf_counter() - start
            schedulings = sum(
                exe.machine_program.stats[fn.name].schedule_passes
                * len(fn.blocks)
                for exe in executables
                for fn in exe.machine_program.functions
            )

            executed = 0
            generated = 0
            for program, executable in zip(PROGRAM_SUITE, executables):
                if not simulate:
                    break
                # the dilation run re-compiles through the cache-aware
                # path (bit-identical program): the timed loop above
                # measures raw compile cost, but the *simulation* can
                # reuse preloaded JIT state instead of re-warming the
                # just-built executable from zero
                sim_exe = compile_kernel(
                    program.source,
                    target,
                    CompileOptions(
                        strategy=real_strategy, schedule=schedule
                    ),
                )
                result = repro.simulate(
                    sim_exe, program.entry, args=program.args,
                    options=repro.SimOptions(model_timing=False),
                )
                executed += result.instructions
                generated += executable.instruction_count()
            label = (
                f"Marion, {target_name}, {strategy}"
                if schedule
                else f"local-only baseline, {target_name}"
            )
            data.rows.append(
                CompileTimeRow(
                    label,
                    elapsed,
                    dilation=(
                        executed / max(1, generated) if simulate else None
                    ),
                    schedulings=schedulings if schedule else None,
                )
            )
    return data


def table3(targets=("r2000", "i860"), repeat: int = 1) -> str:
    data = measure(targets=targets, repeat=repeat)
    table = TextTable(
        ["Module", "Time (s)", "Blocks scheduled", "Dilation"],
        title="Table 3: compile time over the program suite, and dilation",
    )
    for row in data.rows:
        table.add_row(
            row.module,
            f"{row.seconds:.3f}",
            "-" if row.schedulings is None else str(row.schedulings),
            "-" if row.dilation is None else f"{row.dilation:.2f}",
        )
    return str(table)
