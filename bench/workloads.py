"""The benchmark's workloads, one per process.

``bench/run.py`` starts this module in a fresh process for every measured
run and for every extra set-up repetition, with the ``REPRO_*``
environment scrubbed.  It is not meant to be run by hand::

    python bench/workloads.py WORKLOAD --seed N --seconds S --out FILE \\
        [--t0 NS] [--trace] [--smoke] [--setup-only]

A workload has a *set-up* (process start up to the first timed
operation), a *timed phase* of operations, and a *check* that compares
every output with an independent reference.  Set-up and every timed
operation are bracketed by calibrations and reported at the reference
machine speed (``bench/calibrate.py``).  With ``--trace`` the timed
phase runs twice on the same inputs, untraced and then traced, so the
per-layer numbers come from the traced copy and ``trace_overhead`` is
the ratio of the two walls.  The result is one JSON document written to
``--out``.

The harness measures the program only from outside: it times calls into
public functions (``parse_maril``, ``build_target``, ``compile_to_il``,
``CodeGenerator.compile_il``, ``link``, ``compile_c``, ``simulate``) and
reads counters the program already emits.  It never sets a simulator
speed switch or an executor, and never imports ``repro.utils.timing``.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import random
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import calibrate
import programs
import stats

import repro
from repro.api import CodeGenerator, CompileOptions, SimOptions
from repro.targets import TARGET_NAMES, maril_source
from repro.workloads.livermore import LIVERMORE_KERNELS
from repro.workloads.suite import PROGRAM_SUITE

STRATEGIES = ("postpass", "ips", "rase")

#: Livermore loop lengths are scaled like ``repro report --scale 0.1``;
#: ``init()`` dominates every kernel at this size, so the unit count,
#: not the scale, sets a workload's size
LIVERMORE_SCALE = 0.1

#: target/strategy/program combinations that fail to compile today.  No
#: timed mix contains them; the compile workload compiles each once after
#: its timed phase and lists the outcome (bench/README.md)
KNOWN_FAILURES = ("i860/rase/K8",)

#: generated straight-line blocks are compiled for these targets only:
#: i860 compile time grows about cubically with block length (a 120
#: statement block takes 24-128 s), which would swamp the mix
GENERATED_TARGETS = ("toyp", "r2000", "m88000")


@dataclass
class Unit:
    """One (program, target, strategy) combination and its reference."""

    key: str
    target: str
    strategy: str
    source: str
    entry: str
    args: tuple
    expected: float | int
    #: the executable compiled in set-up (the compile workload keeps its
    #: first timed pass's executable pickled, see CompileWorkload.timed)
    exe: object = None
    #: plain-run cycles, learned in set-up where a workload needs them
    cycles: int = 0
    #: simulated with a ``max_cycles`` budget and stall accounting
    guarded: bool = False


def matches(value: dict, expected) -> bool:
    """A simulated return value against its reference (doubles to the
    same relative tolerance as the repository's own Livermore tests)."""
    if isinstance(expected, float):
        return math.isclose(
            value["double"], expected, rel_tol=1e-9, abs_tol=1e-9
        )
    return value["int"] == expected


def paper_programs() -> list[tuple]:
    """``(name, source, entry, args, expected)`` for the paper's program
    mix: the five suite programs (Table 3) and the fourteen Livermore
    kernels (Table 4)."""
    mix = [
        (p.name, p.source, p.entry, p.args, p.reference(*p.args))
        for p in PROGRAM_SUITE
    ]
    for spec in LIVERMORE_KERNELS:
        loop, n = spec.args
        n = max(4, int(n * LIVERMORE_SCALE))
        mix.append(
            (f"K{spec.id}", spec.source, "bench", (loop, n),
             spec.reference(loop, n))
        )
    return mix


def make_unit(name, source, entry, args, expected, target, strategy) -> Unit:
    return Unit(
        f"{target}/{strategy}/{name}", target, strategy, source, entry,
        tuple(args), expected,
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """One timed phase: its operations, and its trace when traced.

    An untraced phase brackets every operation with calibrations and
    keeps its time at the reference speed (``ops_ms``, ``op_seconds``)
    beside the time measured (``raw_ms``).  A traced phase, which gives
    only per-layer numbers, keeps the time measured in both."""

    def __init__(self, name: str, traced: bool):
        self.trace = repro.Trace(name) if traced else None
        self.ops_ms: list[float] = []
        self.raw_ms: list[float] = []
        self.op_seconds = 0.0
        #: per operation, how many times slower than the reference the
        #: machine ran around it
        self.slowdowns: list[float] = []
        self.calibration_s = 0.0
        self.attempted = 0
        self.failed: list[str] = []
        #: items of work done (the unit of the ``throughput`` metric)
        self.work = 0
        #: the phase's wall time, without its calibrations
        self.wall = 0.0

    def span(self, name: str, **attrs):
        if self.trace is None:
            return nullcontext()
        return self.trace.span(name, **attrs)

    @contextmanager
    def active(self):
        start = time.perf_counter()
        with repro.tracing(self.trace) if self.trace else nullcontext():
            yield self
        self.wall = time.perf_counter() - start - self.calibration_s

    def _calibrate(self) -> float:
        if self.trace is not None:
            return calibrate.REFERENCE_S
        seconds = calibrate.measure()
        self.calibration_s += seconds
        return seconds

    def op(self, key: str, fn):
        """Time one operation; a raised error counts as a failure."""
        self.attempted += 1
        before = self._calibrate()
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 — tallied, the run goes on
            self.failed.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        after = self._calibrate()
        scaled = calibrate.at_reference_speed(elapsed, before, after)
        self.op_seconds += scaled
        self.ops_ms.append(scaled * 1000.0)
        self.raw_ms.append(elapsed * 1000.0)
        self.slowdowns.append((before + after) / 2 / calibrate.REFERENCE_S)
        return value

    def counter(self, name: str) -> int:
        return self.trace.counters.get(name, 0) if self.trace else 0

    def self_times(self) -> dict[str, float]:
        return stats.self_times(self.trace.root) if self.trace else {}


class Workload:
    """Base class: set-up, a timed phase, a check, and metrics."""

    name = ""

    def __init__(self, options):
        self.options = options
        self.rng = random.Random(f"{self.name}:{options.seed}")
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.layers: dict[str, float] = {}

    # -- the parts each workload provides ---------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, phase: Phase) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare outputs not already checked inside the timed phase."""

    def cycles(self) -> int:
        raise NotImplementedError

    def layer_metrics(self, phase: Phase) -> None:
        """Fill :attr:`layers` from the traced phase."""

    # -- shared helpers ---------------------------------------------------------

    def expect(self, key: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.wrong.append(f"{key}: {detail}" if detail else key)

    def throughput(self, phase: Phase) -> float:
        return phase.work / phase.op_seconds if phase.op_seconds else 0.0

    def run_phase(self, name: str, traced: bool) -> Phase:
        phase = Phase(f"{self.name}:{name}", traced)
        with phase.active():
            self.timed(phase)
        return phase

    def passes(self, phase: Phase, units: list, in_order: bool = False):
        """``(uid, unit)`` pass after pass over ``units``, each pass in a
        new seeded order (the first one as listed when ``in_order``),
        until the timed phase is long enough: ``--seconds`` of it and
        enough operations for the tail percentile.  It stops only between
        passes, so every unit weighs the same in every run's percentiles.
        Sets :attr:`passes_done`."""
        start = time.perf_counter()
        self.passes_done = 0
        while True:
            order = list(units)
            if not in_order:
                self.rng.shuffle(order)
            in_order = False
            yield from enumerate(order)
            self.passes_done += 1
            if self.options.smoke or (
                    time.perf_counter() - start >= self.options.seconds
                    and len(phase.ops_ms) >= stats.MIN_OPS):
                return


def compile_units(units: list[Unit]) -> None:
    """Compile every unit (set-up work)."""
    for unit in units:
        unit.exe = repro.compile_c(
            unit.source, unit.target, CompileOptions(strategy=unit.strategy)
        )


# ---------------------------------------------------------------------------
# compile: the front end, selection, scheduling, allocation and linking
# ---------------------------------------------------------------------------


class CompileWorkload(Workload):
    """Cold compiles of the paper's program mix plus seeded straight-line
    blocks of growing length; the simulator does none of the timed work."""

    name = "compile"

    def setup(self) -> None:
        for target in TARGET_NAMES:
            repro.load_target(target)
        mix = paper_programs()
        # one strategy per (program, target), rotated so every target sees
        # all three strategies; the same 76 units on every seed, so code
        # size and cycles are exact
        self.fixed = [
            make_unit(*program, target, STRATEGIES[(pi + ti) % 3])
            for pi, program in enumerate(mix)
            for ti, target in enumerate(TARGET_NAMES)
        ]
        generated = programs.generate_suite(self.options.seed)
        if self.options.smoke:
            self.fixed = self.fixed[::19]
            generated = generated[:1]
        self.generated = [
            make_unit(
                prog.name, prog.source, prog.entry, prog.args, prog.expected,
                target, STRATEGIES[(si + ti) % 3],
            )
            for si, prog in enumerate(generated)
            for ti, target in enumerate(GENERATED_TARGETS)
        ]
        self.units = self.fixed + self.generated
        assert not {u.key for u in self.units} & set(KNOWN_FAILURES)
        self.sources = {program[0]: program[1] for program in mix}

    def timed(self, phase: Phase) -> None:
        traced = phase.trace is not None
        targets = {name: repro.load_target(name) for name in TARGET_NAMES}
        # The process's first pass keeps the listed order, fixed units
        # first: the code compiled for a unit depends on what the process
        # compiled before it (bench/README.md), and the check's cycles
        # must not depend on the seed.
        first = self.units[0].exe is None
        for uid, unit in self.passes(phase, self.units, in_order=first):
            options = CompileOptions(strategy=unit.strategy)
            if traced:
                with phase.span("unit", unit=uid, key=unit.key):
                    exe = phase.op(unit.key, lambda: self._layered_compile(
                        phase, uid, unit, targets[unit.target], options))
            else:
                exe = phase.op(unit.key, lambda: repro.compile_c(
                    unit.source, targets[unit.target], options))
            if exe is None:
                continue
            phase.work += exe.instruction_count()
            if unit.exe is None:
                # kept for the check, pickled: a heap of live executables
                # would make every full garbage collection in later
                # operations walk it
                unit.exe = pickle.dumps(exe)

    @staticmethod
    def _layered_compile(phase, uid, unit, target, options):
        """``compile_c`` spelled as its three public layer calls, each in
        its own span, so program spans nest under the layer that ran them."""
        with phase.span("frontend", unit=uid):
            il_program = repro.compile_to_il(unit.source)
        with phase.span("backend", unit=uid):
            machine_program = CodeGenerator(target, options).compile_il(il_program)
        with phase.span("link", unit=uid):
            exe = repro.link(machine_program, memory_size=options.memory_size)
        exe.machine_program = machine_program
        return exe

    def check(self) -> None:
        self._cycles = 0
        fixed = {unit.key for unit in self.fixed}
        for unit in self.units:
            if unit.exe is None:
                continue  # its compile failed and is counted as a failure
            result = repro.simulate(
                pickle.loads(unit.exe), unit.entry, args=unit.args)
            self.expect(
                unit.key,
                matches(result.return_value, unit.expected),
                f"returned {result.return_value}, expected {unit.expected}",
            )
            if unit.key in fixed:
                self._cycles += result.cycles
        for key in KNOWN_FAILURES:
            target, strategy, name = key.split("/")
            try:
                repro.compile_c(self.sources[name], target,
                                CompileOptions(strategy=strategy))
            except Exception as exc:  # noqa: BLE001 — the failure is the datum
                self.notes.append(
                    f"known failure {key}: {type(exc).__name__}: {exc}"
                )
            else:
                self.notes.append(f"known failure {key} now compiles")

    def cycles(self) -> int:
        return self._cycles

    def layer_metrics(self, phase: Phase) -> None:
        """Layer self-times per pass over the units, counters over the
        fixed units' first-pass executables, and the set-up layers."""
        layers = Counter()
        passes = layers["compile.passes"] = self.passes_done
        for name, seconds in phase.self_times().items():
            layers[_compile_layer(name)] += seconds / passes
        layers["compile.traced_s"] = phase.wall / passes
        blocks = Counter()
        for unit in self.fixed:
            if unit.exe is None:
                continue
            exe = pickle.loads(unit.exe)
            program = exe.machine_program
            layers["compile.code_size"] += exe.instruction_count()
            for fn in program.functions:
                fn_stats = program.stats[fn.name]
                layers["backend.regalloc.spilled"] += fn_stats.spilled_pseudos
                layers["backend.regalloc.iterations"] += (
                    fn_stats.allocation_iterations)
                layers["backend.nop_slots"] += fn_stats.nop_slots
                layers["backend.schedule.blocks"] += (
                    fn_stats.schedule_passes * len(fn.blocks))
                blocks[unit.strategy] += len(fn.blocks)
                blocks[f"{unit.strategy}.scheduled"] += (
                    fn_stats.schedule_passes * len(fn.blocks))
        # schedulings per block, the deterministic form of Table 3's
        # compile-time ordering: postpass 1, IPS 2, RASE 3
        for strategy in STRATEGIES:
            layers[f"backend.schedule.passes.{strategy}"] = (
                blocks[f"{strategy}.scheduled"] / blocks[strategy]
                if blocks[strategy] else 0.0
            )
        for target in TARGET_NAMES:
            text = maril_source(target)
            start = time.perf_counter()
            description = repro.parse_maril(text)
            middle = time.perf_counter()
            repro.build_target(description, target)
            layers["maril.parse_s"] += middle - start
            layers["cgg.build_s"] += time.perf_counter() - middle
        self.layers.update(layers)


#: program span name (prefix) -> layer metric; anything else is "other"
_COMPILE_SPANS = (
    ("frontend", "frontend.self_s"),
    ("lower", "backend.lower.self_s"),
    ("select", "backend.select.self_s"),
    ("strategy:", "backend.strategy.self_s"),
    ("schedule[", "backend.schedule.self_s"),
    ("allocate", "backend.regalloc.self_s"),
    ("link", "program.link_s"),
    ("backend", "backend.other.self_s"),
    ("codegen:", "backend.other.self_s"),
)


def _compile_layer(span_name: str) -> str:
    for prefix, layer in _COMPILE_SPANS:
        if span_name == prefix or (
            prefix.endswith((":", "[")) and span_name.startswith(prefix)
        ):
            return layer
    return "compile.other_s"


# ---------------------------------------------------------------------------
# simulate: warm simulation of compiled code, plain and guarded
# ---------------------------------------------------------------------------

#: suite program -> argument for the guarded runs (small: every guarded
#: run takes the per-instruction reference model today)
GUARDED_ARGS = {"matrix": (5,), "stencil": (6,), "intsort": (40,),
                "recurse": (9,), "interp": (12,)}

#: hazard kinds of SimResult.cycle_breakdown
STALL_KINDS = ("resource", "latency", "load_use", "cache_miss",
               "fp_advance", "memory_order", "branch", "packing")


def livermore_units() -> list[Unit]:
    """Each Livermore kernel once, kernel k on target k modulo 4, with
    the strategy rotated: 14 units using every target and strategy."""
    units = []
    for program in paper_programs():
        if program[0].startswith("K"):
            kernel = int(program[0][1:])
            units.append(make_unit(
                *program, TARGET_NAMES[kernel % len(TARGET_NAMES)],
                STRATEGIES[kernel % len(STRATEGIES)],
            ))
    assert not {u.key for u in units} & set(KNOWN_FAILURES)
    return units


def guarded_units() -> list[Unit]:
    """Each suite program, with a small argument, on two targets (p and
    p + 2 modulo 4), with the strategy rotated: 10 units using every
    target and strategy."""
    units = []
    for pi, program in enumerate(PROGRAM_SUITE):
        args = GUARDED_ARGS[program.name]
        for k in range(2):
            unit = make_unit(
                program.name, program.source, program.entry, args,
                program.reference(*args),
                TARGET_NAMES[(pi + 2 * k) % len(TARGET_NAMES)],
                STRATEGIES[(pi + k) % len(STRATEGIES)],
            )
            unit.guarded = True
            units.append(unit)
    return units


class SimulateWorkload(Workload):
    """Simulation of already-compiled, already-run executables: the
    simulator's steady state.  The 14 plain runs per pass hit the JIT
    and the timing memo.  The 10 guarded runs carry a ``max_cycles``
    safety budget and ``trace=True`` stall accounting, the options a
    service client or a profiling user adds, which today bypass that
    fast path."""

    name = "simulate"

    def setup(self) -> None:
        self.plain, self.guarded = livermore_units(), guarded_units()
        if self.options.smoke:
            self.plain, self.guarded = self.plain[::4], self.guarded[::5]
        self.units = self.plain + self.guarded
        compile_units(self.units)
        # the first run of each fresh executable fills the JIT and the
        # timing memo; it is set-up, so the timed phase sees steady state
        self.first = Phase(f"{self.name}:first", self.options.trace)
        with self.first.active():
            for uid, unit in enumerate(self.plain):
                with self.first.span("unit", unit=uid, key=unit.key):
                    result = repro.simulate(unit.exe, unit.entry, args=unit.args)
                self._learn(unit, result)
        for unit in self.guarded:
            self._learn(unit, repro.simulate(
                unit.exe, unit.entry, args=unit.args,
                options=SimOptions(cache=True)))
        #: unit key -> stall cycles by hazard kind, from its guarded run
        self.stalls: dict[str, dict] = {}

    def _learn(self, unit: Unit, result) -> None:
        self.expect(
            unit.key,
            matches(result.return_value, unit.expected),
            f"returned {result.return_value}, expected {unit.expected}",
        )
        unit.cycles = result.cycles

    def timed(self, phase: Phase) -> None:
        fast_runs = guarded_runs = 0
        for uid, unit in self.passes(phase, self.units):
            options = None
            if unit.guarded:
                # a budget four times the run's own length: generous,
                # but it arms the watchdog
                options = SimOptions(
                    cache=True, max_cycles=4 * unit.cycles, trace=True)
            with phase.span("unit", unit=uid, key=unit.key,
                            guarded=unit.guarded):
                result = phase.op(unit.key, lambda: repro.simulate(
                    unit.exe, unit.entry, args=unit.args, options=options))
            if result is None:
                continue
            phase.work += result.instructions
            self.expect(
                unit.key,
                result.cycles == unit.cycles
                and matches(result.return_value, unit.expected),
                f"cycles {result.cycles} vs {unit.cycles}, "
                f"returned {result.return_value}",
            )
            if not unit.guarded:
                continue
            guarded_runs += 1
            fast_runs += bool(result.block_cache_hits or result.block_cache_misses)
            breakdown = result.cycle_breakdown or {}
            self.stalls[unit.key] = breakdown
            self.expect(
                unit.key, sum(breakdown.values()) == unit.cycles - 1,
                f"{sum(breakdown.values())} stall cycles attributed "
                f"of {unit.cycles}",
            )
        self.fast_share = fast_runs / guarded_runs if guarded_runs else 0.0

    def cycles(self) -> int:
        return sum(unit.cycles for unit in self.units)

    def layer_metrics(self, phase: Phase) -> None:
        first, layers = self.first, self.layers
        layers["sim.first_s"] = first.wall
        layers["sim.first.self_s"] = _sim_self(first.trace.root)
        for counter in ("jit.segments", "jit.superblocks",
                        "timing.digests_computed", "block_cache.miss"):
            layers[f"sim.first.{counter}"] = first.counter(f"sim.{counter}")
        passes = layers["sim.steady.passes"] = self.passes_done
        plain = guarded = 0.0
        for span in phase.trace.root.children:
            if span.attrs.get("guarded"):
                guarded += _sim_self(span)
            else:
                plain += _sim_self(span)
        layers["sim.steady.self_s"] = plain / passes
        layers["sim.steady.other_s"] = (phase.wall - plain - guarded) / passes
        layers["sim.guarded.self_s"] = guarded / passes
        layers["sim.guarded.fast_path_share"] = self.fast_share
        for counter in ("jit.hit", "jit.side_exits", "jit.deopt"):
            layers[f"sim.steady.{counter}"] = (
                phase.counter(f"sim.{counter}") / passes
            )
        hits = phase.counter("sim.block_cache.hit")
        lookups = hits + phase.counter("sim.block_cache.miss")
        layers["sim.steady.block_cache.hit_rate"] = hits / lookups if lookups else 0.0
        digests = phase.counter("sim.timing.digests_computed")
        layers["sim.steady.timing.digest_rate"] = digests / lookups if lookups else 0.0
        for kind in STALL_KINDS:
            layers[f"sim.stall.{kind}"] = sum(
                breakdown.get(kind, 0) for breakdown in self.stalls.values())


def _sim_self(span) -> float:
    """Time inside the program's ``simulate:*`` spans (the simulator)
    under ``span``."""
    return sum(
        seconds for name, seconds in stats.self_times(span).items()
        if name.startswith("simulate:")
    )


WORKLOADS = {
    workload.name: workload
    for workload in (CompileWorkload, SimulateWorkload)
}

#: calibrations before and after set-up (about 25 ms in all, not counted
#: in it): set-up is one long operation, so a mean over many
SETUP_CALIBRATIONS = 10


def run(options) -> dict:
    """Set up, measure and check one workload; the result document."""
    workload = WORKLOADS[options.workload](options)
    start = time.perf_counter()
    before = calibrate.measure(SETUP_CALIBRATIONS)
    calibrating = time.perf_counter() - start
    workload.setup()
    raw_setup_s = (time.monotonic_ns() - options.t0) / 1e9 - calibrating
    after = calibrate.measure(SETUP_CALIBRATIONS)
    setup_s = calibrate.at_reference_speed(raw_setup_s, before, after)
    if options.setup_only:
        return {"setup_s": setup_s, "wrong": workload.wrong}
    phase = workload.run_phase("timed", traced=False)
    traced = None
    if options.trace:
        traced = workload.run_phase("traced", traced=True)
        workload.layer_metrics(traced)
        workload.layers.update({
            "raw.setup_s": raw_setup_s,
            "raw.op_ms_p50": stats.percentile(phase.raw_ms, 0.5),
            "raw.op_ms_p95": stats.percentile(phase.raw_ms, stats.TAIL),
        })
    workload.check()
    result = {
        "setup_s": setup_s,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "wrong": workload.wrong,
        "notes": workload.notes,
        "ops": len(phase.ops_ms),
        "slowdown": statistics.median(phase.slowdowns),
        "metrics": {
            "op_ms_p50": stats.percentile(phase.ops_ms, 0.5),
            "op_ms_p95": stats.percentile(phase.ops_ms, stats.TAIL),
            "throughput": workload.throughput(phase),
            "cycles": workload.cycles(),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if traced is not None:
        result["layers"] = workload.layers
        result["trace_overhead"] = traced.wall / phase.wall
        result["traces"] = _write_traces(options, workload, traced)
    return result


def _write_traces(options, workload, traced: Phase) -> list[str]:
    """Chrome-format traces of the traced phases (plus the simulate
    workload's first pass), next to the result file."""
    written = []
    phases = [traced]
    first = getattr(workload, "first", None)
    if first is not None and first.trace is not None:
        phases.append(first)
    for phase in phases:
        path = Path(options.out).with_name(
            f"{phase.trace.name.replace(':', '-')}.trace.json")
        phase.trace.write(str(path), format="chrome")
        written.append(str(path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=int, default=None,
                        help="time.monotonic_ns() when the parent started "
                        "this process (set-up is measured from it)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    options = parser.parse_args(argv)
    if options.t0 is None:
        options.t0 = time.monotonic_ns()
    result = run(options)
    with open(options.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
