#!/usr/bin/env python
"""Fingerprint the code the compiler emits for the paper's units.

Compiles the 228 paper units (the five suite programs of Table 3 and the
fourteen Livermore kernels of Table 4, on every target under every
strategy) with the artifact cache off, and prints one JSON object that
maps ``target/strategy/program`` to the sha256 of
``format_program(explain=True)``: the listing with every issue cycle and
stall line, so a change in schedule, allocation or selection shows.

With ``--against FILE`` (an earlier run's output) it lists the units
whose fingerprint differs, is missing or is new, and exits 1 if there is
any.  A change meant to keep the emitted code byte-identical runs it on
both sides::

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


def paper_programs() -> list[tuple[str, str]]:
    """``(name, source)`` for the 19 programs of Tables 3 and 4."""
    programs = [(p.name, p.source) for p in PROGRAM_SUITE]
    programs += [(f"K{k.id}", k.source) for k in LIVERMORE_KERNELS]
    return programs


def fingerprints() -> dict[str, str]:
    out = {}
    for target in TARGET_NAMES:
        machine = repro.load_target(target)
        for strategy in STRATEGIES:
            options = repro.CompileOptions(strategy=strategy)
            for name, source in paper_programs():
                exe = repro.compile_c(source, machine, options)
                listing = format_program(exe.machine_program, explain=True)
                digest = hashlib.sha256(listing.encode()).hexdigest()
                out[f"{target}/{strategy}/{name}"] = digest
    return out


def differences(current: dict, reference: dict) -> list[str]:
    lines = []
    for key in sorted(current.keys() | reference.keys()):
        if key not in reference:
            lines.append(f"new      {key}")
        elif key not in current:
            lines.append(f"missing  {key}")
        elif current[key] != reference[key]:
            lines.append(f"differs  {key}")
    return lines


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
    for line in lines:
        print(line)
    print(f"{len(current) - len(lines)} of {len(current)} units identical"
          if not lines else f"{len(lines)} units differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
