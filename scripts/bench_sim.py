#!/usr/bin/env python
"""Simulator-only microbenchmark: per-target instr/s + block-cache stats.

Compiles one Livermore kernel per target, simulates it, and reports the
functional execution rate and the block-timing cache hit rate — so
simulator performance is trackable independently of the full report
(whose wall clock also includes compilation and table assembly).

Usage::

    PYTHONPATH=src python scripts/bench_sim.py
    PYTHONPATH=src python scripts/bench_sim.py --targets r2000 --scale 0.2 \\
        --assert-hit-rate 0.90        # CI perf smoke
    PYTHONPATH=src python scripts/bench_sim.py --warm \\
        --assert-digest-rate 0.01     # steady state is digest-free
    PYTHONPATH=src python scripts/bench_sim.py --profile-sim --json \\
        > selftime.json               # warm self-time breakdown

``--compare-cache`` times each unit cold (fresh artifact-cache tmpdir,
wall includes the compile) and then warm (in-process memos dropped, so
target/executable/JIT/timing all come off the disk), verifies the warm
results are bit-identical, and prints the speedup;
``--assert-warm-speedup RATIO`` exits nonzero when any unit's warm
speedup falls below RATIO, the warm run still translated JIT segments,
or the results differ.  ``--assert-hit-rate`` exits nonzero when any
unit's block-cache hit rate falls below the threshold.  ``--json``
emits machine-readable results.

Except under ``--compare-cache``, the artifact cache is disabled for
the whole benchmark so repeated units measure real work, not pickle
loads.
"""

import argparse
import json
import sys
import tempfile
import time

import repro
from repro.cache import configure as configure_cache
from repro.sim import DirectMappedCache
from repro.targets import clear_target_cache
from repro.workloads import kernel_by_id

ALL_TARGETS = ("toyp", "r2000", "m88000", "i860")


def bench_unit(
    target, kernel_id, strategy, scale, time_compile=False, warm=False
):
    # a fresh compile per run: the block-timing memo and JIT code cache
    # live on the executable, so reuse would let one run's warmup bleed
    # into the other's wall clock
    spec = kernel_by_id(kernel_id)
    compile_start = time.perf_counter()
    executable = repro.compile_c(
        spec.source, target, repro.CompileOptions(strategy=strategy)
    )
    loop, n = spec.args
    n = max(4, int(n * scale))
    if warm:
        # one un-measured pass: the JIT compiles and the timing memo
        # fills, so the measured run below is steady state
        repro.simulate(
            executable,
            "bench",
            args=(loop, n),
            options=repro.SimOptions(cache=DirectMappedCache()),
        )
    start = time.perf_counter()
    result = repro.simulate(
        executable,
        "bench",
        args=(loop, n),
        options=repro.SimOptions(cache=DirectMappedCache()),
    )
    end = time.perf_counter()
    seconds = end - (compile_start if time_compile else start)
    lookups = result.block_cache_hits + result.block_cache_misses
    return {
        "target": target,
        "kernel": kernel_id,
        "strategy": strategy,
        "seconds": round(seconds, 4),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "instr_per_s": round(result.instructions / seconds),
        "block_cache_hits": result.block_cache_hits,
        "block_cache_misses": result.block_cache_misses,
        "hit_rate": (
            round(result.block_cache_hits / lookups, 4) if lookups else 0.0
        ),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "checksum": result.return_value["double"],
        "warm": warm,
        "jit_segments": result.jit_segments,
        "jit_active_segments": result.jit_active_segments,
        "jit_hits": result.jit_hits,
        "jit_deopts": result.jit_deopts,
        "jit_superblocks": result.jit_superblocks,
        "jit_side_exits": result.jit_side_exits,
        "timing_digests": result.timing_digests,
        "digest_rate": (
            round(result.timing_digests / lookups, 6) if lookups else 0.0
        ),
    }


def profile_segments(target, kernel_id, strategy, scale, top):
    """The ``top`` hottest segment entries of one unit.

    Pass 1 runs under an infinite-warmup JIT whose per-entry warmup
    counter then records every dispatch (nothing ever compiles, so
    chained loops cannot swallow iterations).  Pass 2 runs twice under a
    fresh default JIT to learn each entry's fate: plain segment, chained
    self-loop, trace-superblock head, or refusal."""
    from repro.sim.jit import SegmentJIT

    spec = kernel_by_id(kernel_id)
    executable = repro.compile_c(
        spec.source, target, repro.CompileOptions(strategy=strategy)
    )
    loop, n = spec.args
    n = max(4, int(n * scale))
    options = repro.SimOptions(cache=DirectMappedCache())
    executable._segment_jit = SegmentJIT(executable, warmup=1 << 62)
    repro.simulate(executable, "bench", args=(loop, n), options=options)
    dispatches = dict(executable._segment_jit._dispatches)
    executable._segment_jit = SegmentJIT(executable)
    repro.simulate(executable, "bench", args=(loop, n), options=options)
    repro.simulate(executable, "bench", args=(loop, n), options=options)
    table = executable._segment_jit.functions(True)
    rows = []
    ranked = sorted(dispatches.items(), key=lambda item: (-item[1], item[0]))
    for entry, hits in ranked[:top]:
        record = table.get(entry, "cold")
        if record == "cold":
            status = "interpreted"
        elif record is None:
            status = "refused"
        elif record[2]:
            status = "trace-superblock"
        elif "while 1:" in record[0]._jit_source:
            status = "chained-loop"
        else:
            status = "segment"
        rows.append(
            {
                "target": target,
                "kernel": kernel_id,
                "strategy": strategy,
                "entry": entry,
                "dispatch_hits": hits,
                "status": status,
            }
        )
    return rows


#: cProfile self-time buckets, matched against code-object filenames in
#: order — the first hit wins
_PROFILE_BUCKETS = (
    ("generated_code", "<jit:"),
    ("digest_replay", "blockcache.py"),
    ("pipeline_model", "pipeline.py"),
    ("cache_model", "sim/cache.py"),
    ("dispatch", "simulator.py"),
)


def profile_sim(target, kernel_id, strategy, scale):
    """Self-time breakdown of one *warm* simulation under cProfile.

    Buckets every profiled frame's inline (self) time by where the code
    lives: generated JIT functions, digest construction + segment replay
    (:mod:`repro.sim.blockcache`), the pipeline model, the data-cache
    model, the simulator dispatch loop, and everything else (functional
    closures, machine state, builtins).  One un-measured pass warms the
    JIT and the timing memo first, so the profile shows steady state —
    the regime the timing chain is supposed to make digest-free."""
    import cProfile

    spec = kernel_by_id(kernel_id)
    executable = repro.compile_c(
        spec.source, target, repro.CompileOptions(strategy=strategy)
    )
    loop, n = spec.args
    n = max(4, int(n * scale))

    def simulate():
        return repro.simulate(
            executable,
            "bench",
            args=(loop, n),
            options=repro.SimOptions(cache=DirectMappedCache()),
        )

    simulate()  # warmup: JIT compiles, timing memo fills
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate()
    profiler.disable()
    seconds = {name: 0.0 for name, _match in _PROFILE_BUCKETS}
    seconds["other"] = 0.0
    total = 0.0
    for entry in profiler.getstats():
        code = entry.code
        filename = getattr(code, "co_filename", "")
        self_time = entry.inlinetime
        total += self_time
        for name, match in _PROFILE_BUCKETS:
            if match in filename:
                seconds[name] += self_time
                break
        else:
            seconds["other"] += self_time
    lookups = result.block_cache_hits + result.block_cache_misses
    return {
        "target": target,
        "kernel": kernel_id,
        "strategy": strategy,
        "scale": scale,
        "total_seconds": round(total, 4),
        "seconds": {name: round(value, 4) for name, value in seconds.items()},
        "fraction": {
            name: round(value / total, 4) if total else 0.0
            for name, value in seconds.items()
        },
        "instructions": result.instructions,
        "timing_digests": result.timing_digests,
        "block_cache_lookups": lookups,
        "digest_rate": (
            round(result.timing_digests / lookups, 6) if lookups else 0.0
        ),
    }


def cache_compare_unit(target, kernel_id, strategy, scale):
    """Cold-vs-warm wall for one unit against a fresh cache directory.

    The cold pass pays the CGG (on first target use), the kernel
    compile, JIT warmup and timing replays; dropping the in-process
    memos then forces the warm pass through the disk artifacts exactly
    like a new process."""
    root = tempfile.mkdtemp(prefix=f"bench-cache-{target}-")
    configure_cache(root=root, enabled=True)
    clear_target_cache()
    cold = bench_unit(target, kernel_id, strategy, scale, time_compile=True)
    clear_target_cache()
    row = bench_unit(target, kernel_id, strategy, scale, time_compile=True)
    row["cold_seconds"] = cold["seconds"]
    row["warm_seconds"] = row["seconds"]
    row["cache_speedup"] = round(
        cold["seconds"] / max(row["seconds"], 1e-9), 2
    )
    for field in (
        "instructions", "cycles", "cache_hits", "cache_misses", "checksum",
    ):
        if row[field] != cold[field]:
            row["mismatch"] = field
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--targets",
        default=",".join(ALL_TARGETS),
        help="comma-separated target list (default: all four)",
    )
    parser.add_argument("--kernel", type=int, default=1, help="Livermore kernel id")
    parser.add_argument("--strategy", default="postpass")
    parser.add_argument("--scale", type=float, default=0.2, help="iteration scale")
    parser.add_argument(
        "--assert-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="exit 1 if any unit's block-cache hit rate is below RATE",
    )
    parser.add_argument(
        "--compare-cache",
        action="store_true",
        help="time each unit cold (fresh artifact-cache dir, compile "
        "included) and warm (everything off the disk); verify "
        "bit-identical, print the speedup",
    )
    parser.add_argument(
        "--assert-warm-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="with --compare-cache: exit 1 if any unit's warm speedup is "
        "below RATIO, the warm run translated JIT segments, or results "
        "differ",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="simulate each unit once un-measured first, so the measured "
        "run is steady state (JIT compiled, timing memo full)",
    )
    parser.add_argument(
        "--assert-digest-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="exit 1 if any unit's measured run computed more than "
        "RATE x (block-cache lookups) pipeline-state digests — combine "
        "with --warm to assert steady state is digest-free",
    )
    parser.add_argument(
        "--assert-max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit 1 if any unit's measured simulation wall exceeds "
        "SECONDS",
    )
    parser.add_argument(
        "--profile-sim",
        action="store_true",
        help="cProfile one warm simulation per unit and report the "
        "self-time breakdown (generated code, digest/replay, pipeline "
        "model, cache model, dispatch, other) instead of benchmarking; "
        "with --json the document merges into BENCH via "
        "'repro report --sim-bench FILE'",
    )
    parser.add_argument(
        "--profile-segments",
        type=int,
        default=None,
        metavar="N",
        help="dump the N hottest segment entries per unit (entry pc, "
        "dispatch hits, segment/chained-loop/trace status) instead of "
        "benchmarking",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)

    if not args.compare_cache:
        # repeated units must measure real work, not pickle loads
        configure_cache(enabled=False)

    targets = [t.strip() for t in args.targets.split(",") if t.strip()]

    if args.profile_sim:
        profile_rows = [
            profile_sim(target, args.kernel, args.strategy, args.scale)
            for target in targets
        ]
        if args.json:
            print(json.dumps(profile_rows, indent=2))
        else:
            for row in profile_rows:
                print(
                    f"{row['target']:8s} K{row['kernel']}/{row['strategy']} "
                    f"warm self-time {row['total_seconds']:.3f}s "
                    f"(digest rate {row['digest_rate']:.4f}):"
                )
                ranked = sorted(
                    row["seconds"].items(), key=lambda item: -item[1]
                )
                for name, value in ranked:
                    print(
                        f"    {name:16s} {value:8.3f}s "
                        f"{row['fraction'][name] * 100:5.1f}%"
                    )
        return 0

    if args.profile_segments is not None:
        profile_rows = []
        for target in targets:
            profile_rows.extend(
                profile_segments(
                    target, args.kernel, args.strategy, args.scale,
                    args.profile_segments,
                )
            )
        if args.json:
            print(json.dumps(profile_rows, indent=2))
        else:
            for row in profile_rows:
                print(
                    f"{row['target']:8s} K{row['kernel']}/{row['strategy']} "
                    f"pc={row['entry']:<6d} "
                    f"{row['dispatch_hits']:>8d} dispatches  "
                    f"{row['status']}"
                )
        return 0

    rows = []
    failed = False
    for target in targets:
        if args.compare_cache:
            row = cache_compare_unit(
                target, args.kernel, args.strategy, args.scale
            )
            if "mismatch" in row:
                failed = True
            if args.assert_warm_speedup is not None and (
                row["cache_speedup"] < args.assert_warm_speedup
                or row["jit_segments"] != 0
                or "mismatch" in row
            ):
                row["below_warm_threshold"] = True
                failed = True
            rows.append(row)
            continue
        row = bench_unit(
            target, args.kernel, args.strategy, args.scale, warm=args.warm
        )
        if (
            args.assert_hit_rate is not None
            and row["hit_rate"] < args.assert_hit_rate
        ):
            row["below_threshold"] = True
            failed = True
        if (
            args.assert_digest_rate is not None
            and row["digest_rate"] > args.assert_digest_rate
        ):
            row["above_digest_rate"] = True
            failed = True
        if (
            args.assert_max_seconds is not None
            and row["seconds"] > args.assert_max_seconds
        ):
            row["above_max_seconds"] = True
            failed = True
        rows.append(row)

    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            line = (
                f"{row['target']:8s} K{row['kernel']}/{row['strategy']}: "
                f"{row['instr_per_s'] / 1e6:5.2f}M instr/s "
                f"({row['instructions']} instrs, {row['seconds']:.3f}s), "
                f"block-cache hit rate {row['hit_rate']:.4f} "
                f"({row['block_cache_hits']}/{row['block_cache_hits'] + row['block_cache_misses']})"
            )
            if "cache_speedup" in row:
                line += (
                    f", cache {row['cache_speedup']}x warm vs cold "
                    f"({row['cold_seconds']:.3f}s -> "
                    f"{row['warm_seconds']:.3f}s)"
                )
            if row["jit_segments"]:
                line += (
                    f", jit: {row['jit_segments']} segments, "
                    f"{row['jit_hits']} hits, {row['jit_deopts']} deopts"
                )
            if row.get("jit_superblocks") or row.get("jit_side_exits"):
                line += (
                    f", {row['jit_superblocks']} superblocks "
                    f"({row['jit_side_exits']} side exits)"
                )
            if row.get("timing_digests", 0) or row.get("warm"):
                line += (
                    f", {row['timing_digests']} digests "
                    f"(rate {row['digest_rate']:.4f})"
                )
            if "mismatch" in row:
                line += f"  !! MISMATCH in {row['mismatch']}"
            if row.get("below_threshold"):
                line += "  !! hit rate below threshold"
            if row.get("above_digest_rate"):
                line += "  !! digest rate above threshold"
            if row.get("above_max_seconds"):
                line += "  !! wall above threshold"
            if row.get("below_warm_threshold"):
                line += "  !! warm speedup below threshold (or rework)"
            print(line)

    if failed:
        reasons = []
        if args.assert_hit_rate is not None:
            reasons.append(
                f"block-cache hit rate below {args.assert_hit_rate}"
            )
        if args.assert_warm_speedup is not None:
            reasons.append(
                f"warm speedup below {args.assert_warm_speedup} or "
                "warm-run rework"
            )
        if args.assert_digest_rate is not None:
            reasons.append(
                f"digest rate above {args.assert_digest_rate}"
            )
        if args.assert_max_seconds is not None:
            reasons.append(
                f"simulation wall above {args.assert_max_seconds}s"
            )
        reasons.append("cold/warm result mismatch")
        print("FAIL: " + " / ".join(reasons), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
