"""Table 2 — system source code size by phase.

The paper splits Marion's C sources into the code generator generator,
the target- and strategy-independent part, per-target dependent parts and
per-strategy dependent parts.  We report the same split over this
repository's Python sources: the shape to reproduce is TSI being the
largest hand-written piece, the i860 target description being the largest
target, and RASE > IPS > Postpass among strategies.  The cycle-level
simulator stands in for the hardware the paper's code ran on, so it has
a row of its own instead of counting toward TSI.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.utils.tables import TextTable

_ROOT = Path(repro.__file__).parent

#: phase -> list of package-relative paths (files or directories)
PHASES = {
    "Code Generator Generator (CGG)": ["maril", "cgg"],
    "Target- and strategy-independent (TSI)": [
        "il",
        "frontend",
        "machine",
        "backend/insts.py",
        "backend/values.py",
        "backend/mfunc.py",
        "backend/lower.py",
        "backend/glue.py",
        "backend/selector.py",
        "backend/codedag.py",
        "backend/scheduler.py",
        "backend/layout.py",
        "backend/delayfill.py",
        "backend/liveness.py",
        "backend/interference.py",
        "backend/regalloc.py",
        "backend/memaccess.py",
        "backend/frame.py",
        "backend/asmprinter.py",
        "backend/codegen.py",
        "program.py",
    ],
    "Simulator, the stand-in for the paper's hardware": ["sim"],
    "Target-dependent (TD), TOYP": ["targets/toyp.py"],
    "Target-dependent (TD), 88000": ["targets/m88000.py"],
    "Target-dependent (TD), R2000": ["targets/r2000.py"],
    "Target-dependent (TD), i860": ["targets/i860.py"],
    "Strategy-dependent (SD), Postpass": ["backend/strategies/postpass.py"],
    "Strategy-dependent (SD), IPS": ["backend/strategies/ips.py"],
    "Strategy-dependent (SD), RASE": ["backend/strategies/rase.py"],
}


def count_lines(path: Path) -> int:
    """Non-blank source lines in a file or directory tree."""
    if path.is_dir():
        return sum(count_lines(child) for child in sorted(path.glob("*.py")))
    return sum(
        1 for line in path.read_text().splitlines() if line.strip()
    )


def phase_sizes() -> dict[str, int]:
    sizes = {}
    for phase, entries in PHASES.items():
        sizes[phase] = sum(count_lines(_ROOT / entry) for entry in entries)
    return sizes


def table2() -> str:
    table = TextTable(
        ["Phase", "Lines"],
        title="Table 2: Marion system source code size (non-blank Python lines)",
    )
    for phase, size in phase_sizes().items():
        table.add_row(phase, size)
    return str(table)
