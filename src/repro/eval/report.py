"""Run the whole evaluation and render a report.

``python -m repro.eval.report [--scale S] [--jobs N] [--timeout T]
[--format text|json]`` regenerates every table and figure (the content
of EXPERIMENTS.md) in one run.  Scaled-down problem sizes keep the full
sweep fast; pass ``--scale 1.0`` for the classic Livermore sizes.

The harness is performance-instrumented and fault-tolerant: independent
(kernel × strategy × target) work units fan out across one local
process pool (``--jobs``/``REPRO_JOBS``; ``--jobs 1`` runs them serially
in-process — table values and checksums are identical at any job count),
each unit runs under an optional wall-clock budget
(``--timeout``/``REPRO_UNIT_TIMEOUT``), crashed workers are retried with
a rebuilt pool, and failed units render as FAILED cells instead of
aborting the run (the process still exits nonzero so CI notices).  An
interrupted report is run again from the start; with the artifact
cache on, the units that finished load what they built from disk.  The
whole run records into one
:class:`~repro.obs.Trace` (every grid unit's own trace summary is
merged into it), and ``--format json`` prints the run as one JSON
document: the rendered text, the failures, and that trace's counters
and phases.  Performance is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.eval.attribution import measure_stalls, render_stalls
from repro.eval.ablation import (
    ablation_delay_fill,
    ablation_heuristic,
    ablation_temporal,
    ablation_temporal_dual,
    load_variants,
    render,
)
from repro.eval.claims import (
    claim_compile_time_ordering,
    claim_rase_vs_unscheduled,
    claim_strategy_speedup,
)
from repro.eval.common import shared_executables
from repro.eval.figure7 import figure7
from repro.eval.executors import LocalPoolExecutor
from repro.eval.grid import (
    FailureCollector,
    GridFailure,
    GridOptions,
    resolve_jobs,
    resolve_timeout,
)
from repro.eval.table1 import table1
from repro.eval.table2 import table2
from repro.eval.table3 import table3
from repro.eval.table4 import measure as table4_measure
from repro.eval.table4 import render as table4_render
from repro.obs import Trace, tracing
from repro.targets import load_target

#: report sections whose body is wall-clock measurement (compile-time
#: tables) — legitimately different between otherwise identical runs,
#: so determinism comparisons (``--jobs 1`` against ``--jobs 2``,
#: cold against warm cache) exclude them
NONDETERMINISTIC_SECTIONS = ("Table 3", "Claim C2")

_SECTION_SPLIT = re.compile(r"={72}\n(.+)\n={72}\n")

#: the targets the report's sections compile for (Table 1 lists all
#: three; the ablations' i860 variants come from :func:`load_variants`)
SECTION_TARGETS = ("m88000", "r2000", "i860")


def deterministic_sections(text: str) -> dict[str, str]:
    """``{title: body}`` of a rendered report, with the wall-clock
    content (timing tables, the total-time footer) stripped — two runs
    over the same inputs must agree on exactly these."""
    text = re.sub(r"(?m)^total evaluation time: .*\n", "", text)
    parts = _SECTION_SPLIT.split(text)
    sections = dict(zip(parts[1::2], parts[2::2]))
    return {
        title: body
        for title, body in sections.items()
        if not title.startswith(NONDETERMINISTIC_SECTIONS)
    }


@dataclass
class ReportResult:
    """Everything one report run produced: the rendered text, the grid
    failures that degraded it (empty on a clean run) and the run
    trace's :meth:`~repro.obs.Trace.summary` (``counters``, ``phases``)."""

    text: str
    failures: list[GridFailure] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        return self.text


def generate_report(
    scale: float = 0.3,
    jobs: int | None = None,
    timeout: float | None = None,
) -> ReportResult:
    """Run every experiment; never raises for a failed work unit.

    ``timeout`` bounds each unit's wall clock.  With ``jobs > 1`` one
    local pool serves every section, so its workers stay warm from
    table to table; it is closed however the run ends.  Inspect
    ``.failures`` (and exit nonzero) on a degraded run.
    """
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    # one pool for the whole report: workers persist across sections
    pool = LocalPoolExecutor(workers=jobs) if jobs > 1 else None
    collector = FailureCollector()
    options = GridOptions(
        jobs=jobs,
        timeout=timeout,
        failures="collect",
        executor=pool,
        collector=collector,
    )
    trace = Trace("report")
    # the whole report is one shared-executable scope: every unit — run
    # in-process or in a worker forked after this point — compiles
    # through the executable memo, so sections that revisit the same
    # (kernel, target, strategy) share one warmed executable instead of
    # unpickling and re-warming it per section; leaving the block closes
    # the pool, also when a section raises
    with tracing(trace), shared_executables(), pool or nullcontext():
        # build every target before the pool forks its workers (at the
        # first pooled section), so they inherit the built targets
        # instead of each running the CGG again
        for name in SECTION_TARGETS:
            load_target(name)
        load_variants()
        sections: list[str] = []

        def section(title: str, body_fn) -> None:
            body = body_fn()
            sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")

        start = time.time()
        section(
            "Table 1 — machine description statistics",
            lambda: table1(options=options),
        )
        section("Table 2 — system source code size", table2)
        section("Table 3 — compile time and dilation", lambda: table3(repeat=2))

        section(
            f"Table 4 — Livermore Loops (scale={scale})",
            lambda: table4_render(
                table4_measure(scale=scale, cache=True, options=options)
            ),
        )
        section("Figure 7 — i860 dual-operation schedule", figure7)
        section(
            "Stall attribution — where the cycles go, per target",
            lambda: render_stalls(measure_stalls(options=options)),
        )

        def c1() -> str:
            claim = claim_strategy_speedup(scale=scale, options=options)
            lines = [
                f"  workload {kid or 'unrolled-hydro'}: postpass/ips={ips:.3f}  "
                f"postpass/rase={rase:.3f}"
                for kid, (ips, rase) in sorted(claim.per_kernel.items())
            ]
            lines += [
                f"  FAILED: {failure.summary()}" for failure in claim.failures
            ]
            return (
                "\n".join(lines)
                + f"\n  geomean: IPS {claim.ips_speedup:.3f}, "
                f"RASE {claim.rase_speedup:.3f}"
            )

        section("Claim C1 — IPS/RASE vs Postpass on computation-intensive code", c1)

        def c3() -> str:
            baseline_claim = claim_rase_vs_unscheduled(scale=scale, options=options)
            lines = [
                f"  K{kid}: {ratio:.3f}"
                for kid, ratio in sorted(baseline_claim.per_kernel.items())
            ]
            lines += [
                f"  FAILED: {failure.summary()}"
                for failure in baseline_claim.failures
            ]
            return (
                "\n".join(lines)
                + f"\n  geomean speedup: {baseline_claim.geomean_speedup:.3f}"
            )

        section("Claim C3 — RASE vs unscheduled (local-only) baseline", c3)

        def c2() -> str:
            compile_claim = claim_compile_time_ordering(repeat=2)
            return (
                "  blocks scheduled: "
                f"postpass {compile_claim.postpass_schedulings} < "
                f"ips {compile_claim.ips_schedulings} < "
                f"rase {compile_claim.rase_schedulings} : "
                f"{'holds' if compile_claim.ordering_holds else 'VIOLATED'}\n"
                f"  compile time: postpass {compile_claim.postpass_seconds:.3f}s, "
                f"ips {compile_claim.ips_seconds:.3f}s, "
                f"rase {compile_claim.rase_seconds:.3f}s\n"
                f"  i860/r2000 total back-end time: {compile_claim.i860_slowdown:.2f}x"
            )

        section("Claim C2 — compile-time orderings", c2)

        def a1() -> str:
            dual = ablation_temporal_dual()
            rows = ablation_temporal(
                kernel_ids=(1, 3, 7), scale=scale, options=options
            )
            return (
                f"dual-operation-rich fragment: eap={dual.baseline_cycles} "
                f"monolithic={dual.variant_cycles} "
                f"(monolithic/eap={dual.ratio:.3f})\n"
                + render(rows, "per-kernel (kernel-loop cycles)", "monolithic")
            )

        section("Ablation A1 — temporal scheduling of EAP sub-operations", a1)

        section(
            "Ablation A2 — maximum-distance heuristic vs FIFO",
            lambda: render(
                ablation_heuristic(
                    kernel_ids=(1, 6, 7), scale=scale, options=options
                ),
                "kernel-loop cycles",
                "fifo",
            ),
        )

        section(
            "Ablation A3 — GH82 delay-slot filling vs nops",
            lambda: render(
                ablation_delay_fill(
                    kernel_ids=(1, 5, 12), scale=scale, options=options
                ),
                "kernel-loop cycles",
                "nops",
            ),
        )

        failures = collector.failures()
        if failures:
            lines = "\n".join(f"  {failure.summary()}" for failure in failures)
            sections.append(
                f"{'=' * 72}\nFailures — {len(failures)} work unit(s) did not "
                f"complete\n{'=' * 72}\n{lines}\n"
            )

        total_seconds = time.time() - start
        sections.append(
            f"total evaluation time: {total_seconds:.1f}s (jobs={jobs})\n"
        )
    return ReportResult(
        text="\n".join(sections), failures=failures, metrics=trace.summary()
    )


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The report flags, shared by this module's CLI and ``repro report``."""
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker processes for the evaluation grid "
        "(default: REPRO_JOBS or cpu count; 1 = serial)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-unit wall-clock budget in seconds "
        "(default: REPRO_UNIT_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="report output: rendered text tables, or one JSON document "
        "(ok, failures, the rendered text, and the run's counters and "
        "phase timings)",
    )


def run_report_command(arguments) -> int:
    """Shared driver: run the report, print it, exit nonzero on failures."""
    result = generate_report(
        scale=arguments.scale,
        jobs=arguments.jobs,
        timeout=arguments.timeout,
    )
    if arguments.format == "json":
        print(
            json.dumps(
                {
                    "ok": result.ok,
                    "failures": [
                        failure.summary() for failure in result.failures
                    ],
                    "text": result.text,
                    "counters": result.metrics.get("counters", {}),
                    "phases": result.metrics.get("phases", {}),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(result.text)
    if result.failures:
        print(
            f"report degraded: {len(result.failures)} work unit(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_report_arguments(parser)
    return run_report_command(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
