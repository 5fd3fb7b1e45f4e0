"""Design-choice ablations called out in DESIGN.md.

A1 — *Why support EAPs with temporal scheduling?* (section 4.6).  The
paper argues that treating an explicitly advanced pipeline as an ordinary
pipeline "reduces scheduling opportunities, because sub-operations can be
scheduled where complete operations cannot" and operations in different
EAPs become hard to overlap.  We compile for the real i860 model
(sub-operations + temporal scheduling) and for a variant whose escapes
emit monolithic operations owning the fp issue slot for their whole
duration, and compare simulated cycles.

Measured shape (recorded in EXPERIMENTS.md): sub-operation scheduling
wins clearly where *dual-operation* parallelism exists — several
multiply/add streams per block, the workload the i860 was built for
(:func:`ablation_temporal_dual`); on single-stream fp loops the explicit
advances cost issue bandwidth that even temporal scheduling cannot hide,
and the monolithic model ties or wins slightly (:func:`ablation_temporal`
on kernel 3).  Both back ends always compute identical results.

A2 — the maximum-distance list scheduling heuristic (section 4.2) against
naive code-thread (FIFO) order.

A3 — the Gross-Hennessy delay-slot filling pass (section 4.4's suggested
extension) against Marion's always-nops policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro
from repro.eval.common import compile_kernel
from repro.eval.grid import GridFailure, GridOptions, GridTask, run_grid
from repro.options import CompileOptions
from repro.targets import load_cached_variant
from repro.targets.i860 import I860_MARIL, build_i860
from repro.utils.tables import TextTable
from repro.workloads import LIVERMORE_KERNELS, kernel_by_id

_FP_KERNELS = (1, 3, 5, 7, 12)

#: several independent multiply and add streams per block: the
#: dual-operation shape the i860's long instructions target
DUAL_OPERATION_RICH = """
double a[64], b[64], c[64];
void init(void) {
    int i;
    for (i = 0; i < 64; i++) { a[i] = i * 0.5; b[i] = i * 0.25; c[i] = 0.0; }
}
double kernel(int loop, int n) {
    int l, k;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (k = 0; k < n; k = k + 2) {
            c[k]   = a[k] * b[k]     + (a[k] + b[k]);
            c[k+1] = a[k+1] * b[k+1] + (a[k+1] + b[k+1]);
        }
    }
    for (k = 0; k < n; k++) { s = s + c[k]; }
    return s;
}
double bench(int loop, int n) { init(); return kernel(loop, n); }
"""


@dataclass
class AblationRow:
    kernel_id: int
    baseline_cycles: int
    variant_cycles: int

    @property
    def ratio(self) -> float:
        return self.variant_cycles / max(1, self.baseline_cycles)


#: eap -> TargetMachine; the i860 EAP variants are not served by
#: repro.targets.load_target, so they get their own process-local memo
_I860_VARIANTS: dict[bool, object] = {}


def _i860(eap: bool):
    target = _I860_VARIANTS.get(eap)
    if target is None:
        # the disk layer keys the two EAP variants apart by name, so a
        # warm report builds neither
        target = load_cached_variant(
            "i860" if eap else "i860-scalar",
            I860_MARIL,
            lambda: build_i860(eap=eap),
        )
        _I860_VARIANTS[eap] = target
    return target


def load_variants() -> None:
    """Build (or load) both i860 EAP variants into this process's memo,
    so processes forked afterwards inherit them."""
    _i860(True)
    _i860(False)


def _compile_for(target, source: str, strategy: str):
    # through the executable memo (and the exe layer of the artifact cache,
    # since the cached variants carry content keys) so shared scopes
    # reuse warmed executables instead of re-warming per section
    return compile_kernel(
        source, target, CompileOptions(strategy=strategy)
    )


def _marginal_kernel_cycles(executable, loop: int, n: int) -> tuple[int, float]:
    """Cycles attributable to the timed kernel loops alone: difference of a
    (2*loop) run and a (loop) run, cancelling the full-size `init` phase."""
    twice = repro.simulate(executable, "bench", args=(2 * loop, n))
    once = repro.simulate(executable, "bench", args=(loop, n))
    return twice.cycles - once.cycles, once.return_value["double"]


def _temporal_unit(kernel_id: int, strategy: str, scale: float) -> AblationRow:
    """One kernel's EAP-vs-monolithic measurement (picklable grid unit)."""
    spec = kernel_by_id(kernel_id)
    loop, n = spec.args
    n = max(4, int(n * scale))
    eap_exe = _compile_for(_i860(True), spec.source, strategy)
    scalar_exe = _compile_for(_i860(False), spec.source, strategy)
    eap_cycles, eap_value = _marginal_kernel_cycles(eap_exe, loop, n)
    scalar_cycles, scalar_value = _marginal_kernel_cycles(scalar_exe, loop, n)
    assert abs(eap_value - scalar_value) < 1e-9
    return AblationRow(spec.id, eap_cycles, scalar_cycles)


def ablation_temporal(
    kernel_ids=_FP_KERNELS,
    strategy: str = "postpass",
    scale: float = 0.25,
    options: GridOptions | None = None,
) -> list[AblationRow]:
    """EAP sub-operation scheduling vs. ordinary-pipeline operations."""
    ids = [spec.id for spec in LIVERMORE_KERNELS if spec.id in kernel_ids]
    # build both variants here, before a pool forks, so every worker
    # inherits them instead of building each one again
    load_variants()
    return run_grid(
        [
            GridTask(
                f"ablation_a1/i860/{strategy}/K{kid}",
                _temporal_unit,
                (kid, strategy, scale),
            )
            for kid in ids
        ],
        options,
        label="ablation_temporal",
    )


def ablation_temporal_dual(strategy: str = "postpass", n: int = 64) -> AblationRow:
    """The headline A1 measurement on dual-operation-rich code."""
    eap_exe = _compile_for(_i860(True), DUAL_OPERATION_RICH, strategy)
    scalar_exe = _compile_for(_i860(False), DUAL_OPERATION_RICH, strategy)
    eap_cycles, eap_value = _marginal_kernel_cycles(eap_exe, 1, n)
    scalar_cycles, scalar_value = _marginal_kernel_cycles(scalar_exe, 1, n)
    assert abs(eap_value - scalar_value) < 1e-9
    return AblationRow(0, eap_cycles, scalar_cycles)


def _heuristic_unit(
    kernel_id: int, target: str, strategy: str, scale: float
) -> AblationRow:
    spec = kernel_by_id(kernel_id)
    loop, n = spec.args
    n = max(4, int(n * scale))
    maxdist_exe = compile_kernel(
        spec.source,
        target,
        CompileOptions(strategy=strategy, heuristic="maxdist"),
    )
    fifo_exe = compile_kernel(
        spec.source,
        target,
        CompileOptions(strategy=strategy, heuristic="fifo"),
    )
    maxdist_cycles, _ = _marginal_kernel_cycles(maxdist_exe, loop, n)
    fifo_cycles, _ = _marginal_kernel_cycles(fifo_exe, loop, n)
    return AblationRow(spec.id, maxdist_cycles, fifo_cycles)


def ablation_heuristic(
    kernel_ids=_FP_KERNELS,
    target: str = "r2000",
    strategy: str = "postpass",
    scale: float = 0.25,
    options: GridOptions | None = None,
) -> list[AblationRow]:
    """Maximum-distance priority vs. FIFO ready-list order."""
    ids = [spec.id for spec in LIVERMORE_KERNELS if spec.id in kernel_ids]
    return run_grid(
        [
            GridTask(
                f"ablation_a2/{target}/{strategy}/K{kid}",
                _heuristic_unit,
                (kid, target, strategy, scale),
            )
            for kid in ids
        ],
        options,
        label="ablation_heuristic",
    )


def _delay_fill_unit(
    kernel_id: int, target: str, strategy: str, scale: float
) -> AblationRow:
    spec = kernel_by_id(kernel_id)
    loop, n = spec.args
    n = max(4, int(n * scale))
    filled_exe = compile_kernel(
        spec.source,
        target,
        CompileOptions(strategy=strategy, fill_delay_slots=True),
    )
    nops_exe = compile_kernel(
        spec.source, target, CompileOptions(strategy=strategy)
    )
    filled_cycles, filled_value = _marginal_kernel_cycles(filled_exe, loop, n)
    nops_cycles, nops_value = _marginal_kernel_cycles(nops_exe, loop, n)
    assert abs(filled_value - nops_value) < 1e-9
    return AblationRow(spec.id, filled_cycles, nops_cycles)


def ablation_delay_fill(
    kernel_ids=_FP_KERNELS,
    target: str = "r2000",
    strategy: str = "postpass",
    scale: float = 0.25,
    options: GridOptions | None = None,
) -> list[AblationRow]:
    """Delay slots filled with useful work (baseline) vs. nops (variant)."""
    ids = [spec.id for spec in LIVERMORE_KERNELS if spec.id in kernel_ids]
    return run_grid(
        [
            GridTask(
                f"ablation_a3/{target}/{strategy}/K{kid}",
                _delay_fill_unit,
                (kid, target, strategy, scale),
            )
            for kid in ids
        ],
        options,
        label="ablation_delay_fill",
    )


def render(rows: list, title: str, variant_label: str) -> str:
    table = TextTable(
        ["Kernel", "baseline kc", f"{variant_label} kc", "variant/baseline"],
        title=title,
    )
    failures = []
    for row in rows:
        if isinstance(row, GridFailure):
            failures.append(row)
            continue
        table.add_row(
            row.kernel_id,
            f"{row.baseline_cycles / 1000:.1f}",
            f"{row.variant_cycles / 1000:.1f}",
            f"{row.ratio:.3f}",
        )
    text = str(table)
    if failures:
        text += "\nFAILED units:\n" + "\n".join(
            f"  {failure.summary()}" for failure in failures
        )
    return text
