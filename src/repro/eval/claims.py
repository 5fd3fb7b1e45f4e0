"""Section 5 headline claims.

C1: "RASE and IPS both produce code that is 12% faster than that produced
by Postpass, on a computation-intensive workload."  The paper's workload
(NAS Kernel, ARC2D) is large-basic-block floating point code; we measure
the geomean Postpass/IPS and Postpass/RASE cycle ratios over the
large-block Livermore kernels (6-10) plus an unrolled hydro fragment
standing in for the unrolled library code of the paper's suite, comparing
*kernel-loop* cycles (loop-count differencing cancels each kernel's
call-heavy initialisation, which no scheduling strategy can help).  The
shape to reproduce is the *direction and rough size* of the win on big
blocks (small-block kernels are a wash, as expected: there is little for
a prepass to reorder).

C2: compile-time orderings (checked inside Table 3's data): Postpass < IPS
< RASE for one target, and i860 compilation slower than R2000.  The
strategy ordering is decided on blocks scheduled (IPS schedules every
block twice, RASE three times): the IPS and RASE wall-clock times are
close enough to swap between runs.

C3: "For the Livermore Loops RASE-generated code was 26% faster than code
produced by mips -O1, which performs only local optimization."  Our
``mips -O1`` stand-in is the same back end with scheduling disabled
(register allocation, delay slots nop-filled); the comparison is over the
kernel loops alone (loop-count differencing cancels the shared
initialisation code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import repro
from repro.eval.common import compile_kernel
from repro.eval.grid import GridFailure, GridOptions, GridTask, run_grid
from repro.eval.table3 import measure as measure_table3
from repro.workloads import LIVERMORE_KERNELS, kernel_by_id

#: the computation-intensive (large basic block) kernels
FP_KERNELS = (6, 7, 8, 9, 10)

#: an unrolled hydro fragment: the big-block shape of the paper's suite
UNROLLED_HYDRO = """
double x[1024], y[1024], z[1024];
double q, r, t;
void init(void) {
    int k;
    q = 0.3; r = 0.7; t = 0.9;
    for (k = 0; k < 1024; k++) { x[k] = 0.0; y[k] = k * 0.001; z[k] = k * 0.002; }
}
double kernel(int loop, int n) {
    int l, k;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (k = 0; k < n; k = k + 4) {
            x[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11]);
            x[k+1] = q + y[k+1] * (r * z[k + 11] + t * z[k + 12]);
            x[k+2] = q + y[k+2] * (r * z[k + 12] + t * z[k + 13]);
            x[k+3] = q + y[k+3] * (r * z[k + 13] + t * z[k + 14]);
        }
    }
    for (k = 0; k < n; k++) { s = s + x[k]; }
    return s;
}
double bench(int loop, int n) { init(); return kernel(loop, n); }
"""


def _marginal_cycles(executable, loop: int, n: int) -> int:
    two = repro.simulate(executable, "bench", args=(2 * loop, n)).cycles
    one = repro.simulate(executable, "bench", args=(loop, n)).cycles
    return two - one


@dataclass
class SpeedupClaim:
    ips_speedup: float  # postpass_cycles / ips_cycles, geometric mean
    rase_speedup: float
    per_kernel: dict[int, tuple[float, float]]
    #: units that produced no measurement (geomeans cover the survivors)
    failures: list[GridFailure] = field(default_factory=list)


def _strategy_unit(
    kernel_id: int, target: str, scale: float
) -> tuple[int, float, float]:
    """One workload's (kernel_id, postpass/ips, postpass/rase) ratios.

    ``kernel_id == 0`` selects the unrolled hydro fragment.
    """
    if kernel_id == 0:
        source = UNROLLED_HYDRO
        loop, n = 1, max(8, int(512 * scale) // 4 * 4)
    else:
        spec = kernel_by_id(kernel_id)
        source = spec.source
        loop, n = spec.args
        n = max(4, int(n * scale))
    cycles = {}
    for strategy in ("postpass", "ips", "rase"):
        exe = compile_kernel(
            source, target, repro.CompileOptions(strategy=strategy)
        )
        cycles[strategy] = _marginal_cycles(exe, loop, n)
    return (
        kernel_id,
        cycles["postpass"] / cycles["ips"],
        cycles["postpass"] / cycles["rase"],
    )


def claim_strategy_speedup(
    target: str = "r2000",
    kernel_ids=FP_KERNELS,
    scale: float = 0.25,
    options: GridOptions | None = None,
) -> SpeedupClaim:
    ids = [spec.id for spec in LIVERMORE_KERNELS if spec.id in kernel_ids]
    ids.append(0)  # the unrolled fragment
    results = run_grid(
        [
            GridTask(
                f"claim_c1/{target}/all/K{kid}",
                _strategy_unit,
                (kid, target, scale),
            )
            for kid in ids
        ],
        options,
        label="claim_c1",
    )
    per_kernel: dict[int, tuple[float, float]] = {}
    failures = [r for r in results if isinstance(r, GridFailure)]
    log_ips = 0.0
    log_rase = 0.0
    for outcome in results:
        if isinstance(outcome, GridFailure):
            continue
        kid, ips_ratio, rase_ratio = outcome
        per_kernel[kid] = (ips_ratio, rase_ratio)
        log_ips += math.log(ips_ratio)
        log_rase += math.log(rase_ratio)
    count = max(1, len(per_kernel))
    return SpeedupClaim(
        ips_speedup=math.exp(log_ips / count),
        rase_speedup=math.exp(log_rase / count),
        per_kernel=per_kernel,
        failures=failures,
    )


@dataclass
class BaselineClaim:
    """RASE vs the unscheduled (local-only) baseline."""

    geomean_speedup: float
    per_kernel: dict[int, float]
    failures: list[GridFailure] = field(default_factory=list)


def _baseline_unit(kernel_id: int, target: str, scale: float) -> tuple[int, float]:
    spec = kernel_by_id(kernel_id)
    loop, n = spec.args
    n = max(4, int(n * scale))
    rase = compile_kernel(
        spec.source, target, repro.CompileOptions(strategy="rase")
    )
    baseline = compile_kernel(
        spec.source,
        target,
        repro.CompileOptions(strategy="postpass", schedule=False),
    )
    ratio = _marginal_cycles(baseline, loop, n) / max(
        1, _marginal_cycles(rase, loop, n)
    )
    return spec.id, ratio


def claim_rase_vs_unscheduled(
    target: str = "r2000",
    scale: float = 0.25,
    options: GridOptions | None = None,
) -> BaselineClaim:
    results = run_grid(
        [
            GridTask(
                f"claim_c3/{target}/rase/K{spec.id}",
                _baseline_unit,
                (spec.id, target, scale),
            )
            for spec in LIVERMORE_KERNELS
        ],
        options,
        label="claim_c3",
    )
    failures = [r for r in results if isinstance(r, GridFailure)]
    measured = [r for r in results if not isinstance(r, GridFailure)]
    per_kernel = {kid: ratio for kid, ratio in measured}
    log_total = sum(math.log(ratio) for _kid, ratio in measured)
    return BaselineClaim(
        geomean_speedup=math.exp(log_total / max(1, len(per_kernel))),
        per_kernel=per_kernel,
        failures=failures,
    )


@dataclass
class CompileTimeClaim:
    postpass_seconds: float
    ips_seconds: float
    rase_seconds: float
    postpass_schedulings: int
    ips_schedulings: int
    rase_schedulings: int
    r2000_total: float
    i860_total: float

    @property
    def ordering_holds(self) -> bool:
        return (
            self.postpass_schedulings
            < self.ips_schedulings
            < self.rase_schedulings
        )

    @property
    def i860_slowdown(self) -> float:
        return self.i860_total / self.r2000_total


def claim_compile_time_ordering(repeat: int = 2) -> CompileTimeClaim:
    # compile-time rows only: the claim never reads dilation, so skip
    # the simulation pass the full Table 3 section pays for
    data = measure_table3(
        targets=("r2000", "i860"), repeat=repeat, simulate=False
    )
    postpass = data.row("Marion, r2000, postpass")
    ips = data.row("Marion, r2000, ips")
    rase = data.row("Marion, r2000, rase")
    return CompileTimeClaim(
        postpass_seconds=postpass.seconds,
        ips_seconds=ips.seconds,
        rase_seconds=rase.seconds,
        postpass_schedulings=postpass.schedulings,
        ips_schedulings=ips.schedulings,
        rase_schedulings=rase.schedulings,
        r2000_total=sum(
            row.seconds for row in data.rows if "r2000" in row.module
        ),
        i860_total=sum(
            row.seconds for row in data.rows if "i860" in row.module
        ),
    )
