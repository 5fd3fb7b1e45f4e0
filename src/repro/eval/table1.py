"""Table 1 — Maril machine description statistics.

The paper reports, per target, the size of each description section and
counts of the special constructs (clocks, class elements, classes, aux
latencies, glue transformations, funcs and their C line counts).  We
compute the same statistics from our descriptions; absolute sizes differ
from the original's (different instruction coverage) but the *shape* —
the i860 description dwarfing the others on every special-construct row —
is the reproduced result.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.maril import parse_maril
from repro.targets import load_target, maril_source
from repro.utils.tables import TextTable


@dataclass
class DescriptionStats:
    target: str
    declare_lines: int = 0
    cwvm_lines: int = 0
    instr_lines: int = 0
    instructions: int = 0
    clocks: int = 0
    elements: int = 0
    classed_instructions: int = 0
    aux_latencies: int = 0
    glue_transformations: int = 0
    funcs: int = 0
    func_python_lines: int = 0


def _section_lines(text: str) -> dict[str, int]:
    """Count non-blank lines inside each section's braces."""
    counts = {"declare": 0, "cwvm": 0, "instr": 0}
    section = None
    depth = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if section is None:
            for name in counts:
                if line.startswith(name):
                    section = name
                    depth = line.count("{") - line.count("}")
                    break
            continue
        depth += line.count("{") - line.count("}")
        if depth <= 0:
            section = None
            continue
        counts[section] += 1
    return counts


def description_stats(target_name: str) -> DescriptionStats:
    text = maril_source(target_name)
    description = parse_maril(text, filename=f"<{target_name}>")
    target = load_target(target_name)

    lines = _section_lines(text)
    stats = DescriptionStats(
        target=target_name,
        declare_lines=lines["declare"],
        cwvm_lines=lines["cwvm"],
        instr_lines=lines["instr"],
        instructions=len(description.instr_decls()),
        clocks=len(target.clocks),
        elements=len(target.elements),
        classed_instructions=sum(
            1 for d in description.instr_decls() if d.classes
        ),
        aux_latencies=len(description.aux_decls()),
        glue_transformations=len(description.glue_decls()),
        funcs=len(target.funcs),
        func_python_lines=sum(
            len(inspect.getsource(fn).splitlines())
            for fn in target.funcs.values()
        ),
    )
    return stats


def table1(
    targets=("m88000", "r2000", "i860"),
    options=None,
) -> str:
    """Render the reproduced Table 1."""
    from repro.eval.grid import GridFailure, GridTask, run_grid

    results = run_grid(
        [
            GridTask(f"table1/{name}", description_stats, (name,))
            for name in targets
        ],
        options,
        label="table1",
    )
    stats = [s for s in results if not isinstance(s, GridFailure)]
    failed = [s for s in results if isinstance(s, GridFailure)]
    table = TextTable(
        ["Section / item"] + [s.target for s in stats],
        title="Table 1: Maril machine description statistics",
    )
    rows = [
        ("Declare lines", "declare_lines"),
        ("Cwvm lines", "cwvm_lines"),
        ("Instr lines", "instr_lines"),
        ("%instr directives", "instructions"),
        ("Clocks", "clocks"),
        ("Elements", "elements"),
        ("Classed sub-ops", "classed_instructions"),
        ("Aux lats", "aux_latencies"),
        ("Glue xforms", "glue_transformations"),
        ("funcs", "funcs"),
        ("func Python lines", "func_python_lines"),
    ]
    for label, attr in rows:
        table.add_row(label, *[getattr(s, attr) for s in stats])
    text = str(table)
    if failed:
        text += "\nFAILED targets:\n" + "\n".join(
            f"  {failure.summary()}" for failure in failed
        )
    return text
