#!/usr/bin/env python
"""Fingerprint the code the compiler emits for the paper's units, and how it runs.

Compiles the 228 paper units (the five suite programs of Table 3 and the
fourteen Livermore kernels of Table 4, on every target under every
strategy) with the artifact cache off, and prints one JSON object that
maps ``target/strategy/program`` to four sha256 digests.  ``code`` covers
``format_program(explain=True)``: the listing with every issue cycle and
stall line, so a change in schedule, allocation or selection shows.

``runs`` covers four engine runs of the unit: one under
``SimOptions(cache=True, trace=True)``, then a plain
``SimOptions(cache=True)`` run that reuses the first run's timing memo,
then a cold and a warm run under ``SimOptions()``, the default (no data
cache) that ``repro.simulate`` and the benchmark's plain runs take, so
both JIT tables are exercised.  Suite programs run at their own entry
and arguments, Livermore kernels run ``bench`` at ``(loop, max(4,
int(n * 0.05)))``, the problem size ``run_kernel`` uses at scale 0.05.
Each run contributes its return value, cycles, instructions, loads,
stores, cache hits and misses and block counts, and the traced run its
stall breakdown, so a simulator change can show its timing is exact the
way a compiler change shows its code is byte-identical.  ``jit`` covers
the same four runs' JIT counters (segments compiled, probe hits,
superblocks built, side exits and interpreted instructions), so a change
in which segments compile or which traces form shows even when the
results stay exact.  ``gen`` covers every live generated function after
those runs: per JIT table and
entry, its superblock flag, ``max_exec``, probe sites and its code
object's ``co_code``, ``co_consts``, ``co_names`` and ``co_varnames``,
so a JIT refactor shows that the code it generates is unchanged, not
only its counters.

With ``--against FILE`` (an earlier run's output) it lists the units
whose fingerprint differs, is missing or is new, naming for a differing
unit which digests differ (such as ``runs`` or ``code+runs+gen``), ends
with the count of differing units per target and strategy, and exits 1
if there is any.  A change meant to keep the emitted code and its
simulated results identical runs it on both sides::

    PYTHONPATH=src python scripts/code_fingerprint.py > before.json
    PYTHONPATH=src python scripts/code_fingerprint.py --against before.json
"""

import argparse
import hashlib
import json
import os
import sys

os.environ["REPRO_CACHE"] = "0"  # compile every unit, never load one

import repro  # noqa: E402  (after the cache is switched off)
from repro.backend.asmprinter import format_program  # noqa: E402
from repro.targets import TARGET_NAMES  # noqa: E402
from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE  # noqa: E402

STRATEGIES = ("postpass", "ips", "rase")

#: the per-unit digests, in the order ``--against`` names them
DIGESTS = ("code", "runs", "jit", "gen")

#: Livermore problem-size scale of the simulated runs
SIM_SCALE = 0.05


def paper_programs() -> list[tuple[str, str, str, tuple]]:
    """``(name, source, entry, args)`` for the 19 programs of Tables 3
    and 4; the kernels' arguments are scaled by :data:`SIM_SCALE`."""
    programs = [(p.name, p.source, p.entry, p.args) for p in PROGRAM_SUITE]
    for spec in LIVERMORE_KERNELS:
        loop, n = spec.args
        programs.append(
            (f"K{spec.id}", spec.source, "bench",
             (loop, max(4, int(n * SIM_SCALE))))
        )
    return programs


def run_record(result) -> tuple:
    """The deterministic counts of one engine run."""
    return (
        sorted(result.return_value.items()),
        result.cycles,
        result.instructions,
        result.loads,
        result.stores,
        result.cache_hits,
        result.cache_misses,
        sorted(result.block_counts.items()),
    )


def jit_record(result) -> tuple:
    """The JIT counters of one engine run."""
    return (
        result.jit_segments,
        result.jit_hits,
        result.jit_superblocks,
        result.jit_side_exits,
        result.interpreted,
    )


def simulation_records(exe, entry: str, args: tuple) -> tuple[str, str]:
    """A traced and a plain engine run of one unit with the data cache
    on, then a cold and a warm one without it, as text: ``(results, jit
    counters)``."""
    traced = repro.simulate(
        exe, entry, args, options=repro.SimOptions(cache=True, trace=True)
    )
    plain = repro.simulate(
        exe, entry, args, options=repro.SimOptions(cache=True)
    )
    uncached = [
        repro.simulate(exe, entry, args, options=repro.SimOptions())
        for _run in range(2)
    ]
    results = repr((
        run_record(traced),
        sorted(traced.cycle_breakdown.items()),
        run_record(plain),
        *(run_record(result) for result in uncached),
    ))
    return results, repr(tuple(
        jit_record(result) for result in (traced, plain, *uncached)
    ))


def generated_record(exe) -> str:
    """Every live generated function of the unit's JIT, as text."""
    jit = exe._segment_jit
    out = []
    for cached in (False, True):
        table = jit.functions(cached)
        for entry in sorted(table):
            record = table[entry]
            if record is None:
                continue
            fn, max_exec, superblock = record
            code = fn.__code__
            out.append((
                cached, entry, superblock, max_exec, fn._jit_sites,
                code.co_code, code.co_consts, code.co_names,
                code.co_varnames,
            ))
    return repr(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints() -> dict[str, dict[str, str]]:
    out = {}
    for target in TARGET_NAMES:
        machine = repro.load_target(target)
        for strategy in STRATEGIES:
            options = repro.CompileOptions(strategy=strategy)
            for name, source, entry, args in paper_programs():
                exe = repro.compile_c(source, machine, options)
                listing = format_program(exe.machine_program, explain=True)
                runs, jit = simulation_records(exe, entry, args)
                out[f"{target}/{strategy}/{name}"] = {
                    "code": digest(listing),
                    "runs": digest(runs),
                    "jit": digest(jit),
                    "gen": digest(generated_record(exe)),
                }
    return out


def differences(current: dict, reference: dict) -> list[tuple[str, str]]:
    """``(what, unit)`` for every unit that is new, missing or differs;
    a differing unit names the digests that differ."""
    out = []
    for key in sorted(current.keys() | reference.keys()):
        if key not in reference:
            out.append(("new", key))
        elif key not in current:
            out.append(("missing", key))
        else:
            parts = [
                part for part in DIGESTS
                if current[key][part] != reference[key][part]
            ]
            if parts:
                out.append(("+".join(parts), key))
    return out


def summary(units: list[str], lines: list[tuple[str, str]]) -> list[str]:
    """The differing-unit count per strategy, then per target and
    strategy (``units`` are ``target/strategy/program`` keys)."""
    differ = {key for _what, key in lines}
    counts: dict[tuple[str, str], int] = {}
    for key in units:
        target, strategy, _program = key.split("/")
        cell = (target, strategy)
        counts[cell] = counts.get(cell, 0) + (key in differ)
    targets = sorted({target for target, _strategy in counts})
    per_strategy = ", ".join(
        f"{strategy} {sum(counts.get((t, strategy), 0) for t in targets)}"
        for strategy in STRATEGIES
    )
    out = [f"{len(lines)} differ: {per_strategy}"]
    out.append(f"{'':8}" + "".join(f"{s:>10}" for s in STRATEGIES))
    for target in targets:
        out.append(f"{target:8}" + "".join(
            f"{counts.get((target, s), 0):>10}" for s in STRATEGIES
        ))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--against", metavar="FILE",
        help="compare with an earlier run's JSON; exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    current = fingerprints()
    if args.against is None:
        json.dump(current, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    with open(args.against) as handle:
        reference = json.load(handle)
    lines = differences(current, reference)
    for what, key in lines:
        print(f"{what:10} {key}")
    if not lines:
        print(f"{len(current)} of {len(current)} units identical")
    else:
        for line in summary(sorted(current.keys() | reference.keys()), lines):
            print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
