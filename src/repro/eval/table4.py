"""Table 4 — Livermore Loops: execution time and actual/estimated ratio.

For kernels 1-14 and each strategy: the *actual* cycles come from the
pipeline simulator with the data cache enabled (our DECstation stand-in);
the *estimated* cycles combine each block's scheduler cost with profiled
execution frequencies, exactly as the paper computed its estimates (and
therefore exclude cache misses and cross-block stalls).  The shape to
reproduce: ratios >= 1, varying per kernel, and consistent across the
three strategies for each kernel; means in the same band as the paper's
1.06.

Under a fault-tolerant grid (``GridOptions(failures="collect")``) a unit
that times out or crashes leaves a FAILED cell in its (kernel, strategy)
slot rather than aborting the table; strategy means are computed over
the surviving kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.common import STRATEGIES, KernelRun, grid_run_kernel, kernel_key
from repro.eval.grid import GridFailure, GridOptions, GridTask, run_grid
from repro.utils.stats import arithmetic_mean, harmonic_mean
from repro.utils.tables import TextTable
from repro.workloads import LIVERMORE_KERNELS


@dataclass
class Table4Data:
    #: runs[kernel_id][strategy]
    runs: dict[int, dict[str, KernelRun]] = field(default_factory=dict)
    #: failures[(kernel_id, strategy)] — units that produced no KernelRun
    failures: dict[tuple[int, str], GridFailure] = field(default_factory=dict)

    @property
    def unmatched_blocks(self) -> int:
        """Profiled blocks with no scheduler cost entry, summed."""
        return sum(
            run.unmatched_blocks
            for by_strategy in self.runs.values()
            for run in by_strategy.values()
        )

    def cycles(self, kernel_id: int, strategy: str) -> int:
        return self.runs[kernel_id][strategy].actual_cycles

    def ratio(self, kernel_id: int, strategy: str) -> float:
        return self.runs[kernel_id][strategy].ratio

    def _complete(self, strategy: str) -> list[int]:
        return [k for k in sorted(self.runs) if strategy in self.runs[k]]

    def mean_cycles(self, strategy: str) -> float:
        return arithmetic_mean(
            self.cycles(k, strategy) for k in self._complete(strategy)
        )

    def mean_ratio(self, strategy: str) -> float:
        return harmonic_mean(
            self.ratio(k, strategy) for k in self._complete(strategy)
        )


def measure(
    target: str = "r2000",
    kernels=None,
    scale: float = 1.0,
    cache: bool = True,
    options: GridOptions | None = None,
) -> Table4Data:
    specs = kernels or LIVERMORE_KERNELS
    labels = [
        (spec.id, strategy) for spec in specs for strategy in STRATEGIES
    ]
    units = [
        GridTask(
            kernel_key("table4", target, strategy, spec.id),
            grid_run_kernel,
            (spec.id, target, strategy),
            {"scale": scale, "cache": cache},
        )
        for spec in specs
        for strategy in STRATEGIES
    ]
    results = run_grid(units, options, label="table4")
    data = Table4Data()
    for (kernel_id, strategy), outcome in zip(labels, results):
        if isinstance(outcome, GridFailure):
            data.failures[(kernel_id, strategy)] = outcome
        else:
            data.runs.setdefault(kernel_id, {})[strategy] = outcome
    return data


def table4(
    target: str = "r2000",
    kernels=None,
    scale: float = 1.0,
    cache: bool = True,
    options: GridOptions | None = None,
) -> str:
    data = measure(
        target=target,
        kernels=kernels,
        scale=scale,
        cache=cache,
        options=options,
    )
    return render(data, target=target)


def render(data: Table4Data, target: str = "r2000") -> str:
    table = TextTable(
        [
            "Ker",
            "Postp kc",
            "IPS kc",
            "RASE kc",
            "Postp a/e",
            "IPS a/e",
            "RASE a/e",
        ],
        title=(
            "Table 4: Livermore Loops on the "
            f"{target} — simulated kilocycles and actual/estimated ratio"
        ),
    )
    kernel_ids = sorted(
        set(data.runs) | {kernel_id for kernel_id, _ in data.failures}
    )
    for kernel_id in kernel_ids:
        cells: list = [kernel_id]
        by_strategy = data.runs.get(kernel_id, {})
        for strategy in STRATEGIES:
            if strategy in by_strategy:
                cells.append(f"{data.cycles(kernel_id, strategy) / 1000:.1f}")
            else:
                cells.append("FAILED")
        for strategy in STRATEGIES:
            if strategy in by_strategy:
                cells.append(f"{data.ratio(kernel_id, strategy):.2f}")
            else:
                cells.append("-")
        table.add_row(*cells)
    means = ["mean"]
    for strategy in STRATEGIES:
        survivors = data._complete(strategy)
        means.append(
            f"{data.mean_cycles(strategy) / 1000:.1f}" if survivors else "-"
        )
    for strategy in STRATEGIES:
        survivors = data._complete(strategy)
        means.append(
            f"{data.mean_ratio(strategy):.2f}" if survivors else "-"
        )
    table.add_row(*means)
    text = str(table)
    if data.failures:
        lines = "\n".join(
            f"  {failure.summary()}"
            for _, failure in sorted(data.failures.items())
        )
        text += (
            f"\nFAILED units ({len(data.failures)}; means cover the "
            f"surviving kernels only):\n{lines}"
        )
    if data.unmatched_blocks:
        text += (
            f"\nWARNING: {data.unmatched_blocks} profiled block(s) had no "
            "scheduler cost entry — actual/estimated ratios are skewed"
        )
    return text
