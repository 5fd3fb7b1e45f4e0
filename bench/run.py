"""The repository's benchmark: one command, every workload, every metric.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke]

``BENCHMARK.json`` (at the repository root) fixes the workloads, the
metrics with their units and directions, and each end-to-end metric's
regression bound; ``bench/README.md`` explains them.  Without
``--workload`` every workload runs in turn.

Each workload runs in fresh child processes (``bench/workloads.py``)
with every ``REPRO_*`` variable scrubbed, the artifact cache disabled or
pointed at a fresh directory, and ``TMPDIR`` inside a run directory
under ``.bench_run/`` that is deleted afterwards; only traces are kept,
in ``.bench_run/traces/``.  Set-up is measured 3 to 7 times, each in
its own process, and reported as the median.  Times are reported at a
reference machine speed, from calibrations around each of them
(``bench/calibrate.py``).

Output: one line per metric (``workload metric value unit``), the
machine fingerprint, any notes, and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` (the default) the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones, from a separate traced run.  The exit
code is 1 when an output was wrong and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUNS = ROOT / ".bench_run"

#: set-ups measured per run, each in its own process (the last is the
#: measured run's own): at least 3, and more, up to 7, while they add up
#: to less than SETUP_SECONDS, since a short set-up is the noisier one
SETUP_REPEATS = (3, 7)
SETUP_SECONDS = 3.0

#: wall-clock limit for one child process
CHILD_TIMEOUT = 175


def fingerprint() -> dict:
    """The machine a result was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def child_environment(run_dir: Path) -> dict:
    """The parent's environment minus every ``REPRO_*`` variable, with
    the program on the path and every default that could leak state
    between runs pinned."""
    environment = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    environment.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE": "0",
        "TMPDIR": str(run_dir),
    })
    return environment


def run_child(workload: str, run_dir: Path, index: int, options,
              setup_only: bool) -> dict:
    """One ``bench/workloads.py`` process; its result document."""
    work = run_dir / str(index)
    work.mkdir()
    out = work / "result.json"
    command = [
        sys.executable, str(BENCH / "workloads.py"), workload,
        "--seed", str(options.seed), "--seconds", str(options.seconds),
        "--out", str(out),
    ]
    if options.trace:
        command.append("--trace")
    if options.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    with open(work / "stdout.txt", "w") as stdout, \
            open(work / "stderr.txt", "w") as stderr:
        command += ["--t0", str(time.monotonic_ns())]
        process = subprocess.run(
            command, env=child_environment(run_dir), cwd=ROOT,
            stdout=stdout, stderr=stderr, timeout=CHILD_TIMEOUT,
        )
    if process.returncode != 0:
        tail = (work / "stderr.txt").read_text()[-3000:]
        raise RuntimeError(
            f"{workload} child exited with {process.returncode}:\n{tail}"
        )
    return json.loads(out.read_text())


def run_workload(workload: str, spec: dict, options) -> dict:
    """Set-up repetitions, then the measured (or traced) run."""
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        least, most = (1, 1) if options.trace or options.smoke else SETUP_REPEATS
        setups = []
        while len(setups) < least - 1 or (
                len(setups) < most - 1
                and sum(s["setup_s"] for s in setups) < SETUP_SECONDS):
            setups.append(run_child(workload, run_dir, len(setups), options,
                                    setup_only=True))
        result = run_child(workload, run_dir, len(setups), options, False)
        setups.append(result)
        result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["wrong"] = [w for s in setups for w in s["wrong"]]
        traces = RUNS / "traces"
        traces.mkdir(exist_ok=True)
        kept = []
        for path in result.get("traces", []):
            target = traces / f"seed{options.seed}-{Path(path).name}"
            shutil.move(path, target)
            kept.append(str(target.relative_to(ROOT)))
        result["traces"] = kept
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(workload: str, result: dict, spec: dict, options) -> dict:
    """Print one workload's metrics; return them by name with units."""
    if options.trace:
        declared = spec["per_layer"]
        measured = result.get("layers", {})
    else:
        declared = spec["end_to_end"]
        measured = dict(result["metrics"], setup_s=result["setup_s"])
    metrics, missing = {}, []
    for metric in declared:
        value = measured.get(metric["name"])
        if value is None:
            # a layer this workload does not exercise, or a counter the
            # program no longer emits: it did no counted work here
            missing.append(metric["name"])
            value = 0
        else:
            print(f"{workload} {metric['name']} {value:.6g} {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if missing:
        print(f"{workload}: not measured on this workload (reported as 0): "
              + ", ".join(missing), file=sys.stderr)
    print(f"{workload} ops {result['ops']} attempted {result['attempted']} "
          f"failed {len(result['failed'])}")
    print(f"{workload} machine slowdown {result['slowdown']:.3f} "
          "(median calibration / reference; times are reported at the "
          "reference speed)")
    if "trace_overhead" in result:
        print(f"{workload} trace overhead {result['trace_overhead']:.4f} "
              "(traced wall / untraced wall)")
    for path in result.get("traces", []):
        print(f"{workload} trace {path}")
    for note in result.get("notes", []):
        print(f"{workload} note: {note}")
    for failure in result["failed"]:
        print(f"{workload} FAILED {failure}", file=sys.stderr)
    for wrong in result["wrong"]:
        print(f"{workload} WRONG {wrong}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark defined by BENCHMARK.json.")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed phase "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 size, to test "
                        "the harness; the numbers mean nothing")
    options = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: needs BENCHMARK.json and the program's source "
              f"(src/repro) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if options.workload is not None and options.workload not in names:
        parser.error(f"unknown workload {options.workload!r}; "
                     f"known: {', '.join(names)}")
    if options.seconds is None:
        options.seconds = spec["run_seconds"]
    workloads = [options.workload] if options.workload else names

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, spec, options)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"bench/run.py: {workload}: {exc}", file=sys.stderr)
            return 2
    metrics = {
        workload: report(workload, result, spec, options)
        for workload, result in results.items()
    }
    correct = not any(result["wrong"] for result in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(len(r["failed"]) for r in results.values()),
        "metrics": (
            metrics[workloads[0]] if len(workloads) == 1 else {
                f"{workload}.{name}": value
                for workload, named in metrics.items()
                for name, value in named.items()
            }
        ),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
