#!/usr/bin/env python
"""Open-loop load generator for ``repro serve``.

Drives one POST endpoint at a fixed arrival rate — open loop, so
request N fires at its scheduled time whether or not request N-1 has
come back; a slow server accumulates outstanding requests instead of
quietly throttling the offered load — and reports the latency
distribution (p50/p90/p99/max) and achieved throughput.

The headline comparison is **warm service vs cold-start compiles**: the
service keeps its worker pool, target caches and response memo across
requests, while the pre-service workflow paid Python startup, target
construction and a fresh compile per invocation.  ``--cold-baseline K``
measures that cold path (K ``python -m repro compile`` subprocesses) and
``--assert-speedup X`` fails the run unless

    cold per-request mean  >=  X * warm service p50.

Usage::

    PYTHONPATH=src python scripts/loadgen.py --spawn \\
        --requests 200 --rps 100 --variants 8 \\
        --cold-baseline 3 --assert-speedup 5 --assert-p99 250

``--spawn`` launches its own ``repro serve`` on a free port (SIGTERM at
exit); point ``--url`` at an already-running service instead to load an
external one.
"""

import argparse
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

SOURCE_TEMPLATE = """
int k{i}(int a, int b) {{
    int acc;
    int j;
    acc = {i};
    j = 0;
    while (j < b) {{ acc = acc + a * j + {i}; j = j + 1; }}
    return acc;
}}
"""


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--url", default="", help="service base URL")
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="launch a repro serve subprocess on a free port",
    )
    parser.add_argument(
        "--executor",
        default="local",
        help="--executor for the spawned service",
    )
    parser.add_argument("--target", default="toyp")
    parser.add_argument(
        "--endpoint",
        default="compile",
        choices=("compile", "run", "explain"),
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument(
        "--rps", type=float, default=100.0, help="offered arrival rate"
    )
    parser.add_argument(
        "--variants",
        type=int,
        default=8,
        help="distinct source programs to rotate through",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="unmeasured passes over the variants before the run",
    )
    parser.add_argument(
        "--cold-baseline",
        type=int,
        default=0,
        metavar="K",
        help="measure K cold `repro compile` subprocesses for comparison",
    )
    parser.add_argument("--assert-p99", type=float, default=0.0, metavar="MS")
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="fail unless cold mean >= X * warm p50 (needs --cold-baseline)",
    )
    return parser.parse_args()


def spawn_service(executor, target):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--executor", executor, "--warm", target,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    pattern = re.compile(r"listening on (http://[\d.]+:\d+)")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit("serve exited before announcing its port")
        match = pattern.search(line)
        if match:
            return process, match.group(1)
    raise SystemExit("serve did not announce its port within 60s")


def post(host, port, path, doc, timeout=60.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(doc)
        connection.request(
            "POST", path, body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload)
    finally:
        connection.close()


def request_doc(endpoint, target, variant):
    doc = {
        "source": SOURCE_TEMPLATE.format(i=variant),
        "target": target,
    }
    if endpoint == "run":
        doc["entry"] = f"k{variant}"
        doc["args"] = [3, 5]
    return doc


def percentile(ranked, q):
    return ranked[min(len(ranked) - 1, int(len(ranked) * q))]


def run_load(host, port, arguments):
    path = f"/v1/{arguments.endpoint}"
    latencies, errors = [], []
    lock = threading.Lock()

    def one(variant):
        doc = request_doc(arguments.endpoint, arguments.target, variant)
        begin = time.perf_counter()
        try:
            status, _body = post(host, port, path, doc)
        except Exception as exc:  # noqa: BLE001 — tally, don't crash the run
            with lock:
                errors.append(repr(exc))
            return
        elapsed = (time.perf_counter() - begin) * 1000
        with lock:
            if status == 200:
                latencies.append(elapsed)
            else:
                errors.append(f"HTTP {status}")

    # warm the pool, the target caches and the memo
    for _ in range(arguments.warmup):
        for variant in range(arguments.variants):
            one(variant)
    latencies.clear()
    errors.clear()

    # open loop: every request starts at its scheduled arrival time
    interval = 1.0 / arguments.rps if arguments.rps > 0 else 0.0
    threads = []
    start = time.perf_counter()
    for index in range(arguments.requests):
        scheduled = start + index * interval
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(
            target=one, args=(index % arguments.variants,)
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    ranked = sorted(latencies)
    summary = {
        "endpoint": arguments.endpoint,
        "target": arguments.target,
        "requests": arguments.requests,
        "variants": arguments.variants,
        "offered_rps": arguments.rps,
        "achieved_rps": round(len(ranked) / wall, 2) if wall else 0.0,
        "errors": len(errors),
        "latency_ms": {
            "p50": round(percentile(ranked, 0.50), 3),
            "p90": round(percentile(ranked, 0.90), 3),
            "p99": round(percentile(ranked, 0.99), 3),
            "max": round(ranked[-1], 3),
            "mean": round(statistics.fmean(ranked), 3),
        }
        if ranked
        else None,
    }
    if errors:
        summary["error_sample"] = errors[:5]
    return summary


def measure_cold_baseline(arguments):
    """K fresh ``python -m repro compile`` processes: interpreter start,
    target build and one compile per request — the pre-service cost of a
    compile *as a request*."""
    samples = []
    with tempfile.TemporaryDirectory() as scratch:
        source_path = os.path.join(scratch, "cold.c")
        environment = dict(os.environ)
        environment["REPRO_CACHE"] = "0"  # cold means cold
        for index in range(arguments.cold_baseline):
            with open(source_path, "w") as handle:
                handle.write(SOURCE_TEMPLATE.format(i=1000 + index))
            begin = time.perf_counter()
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "compile",
                    source_path, "--target", arguments.target,
                ],
                check=True,
                stdout=subprocess.DEVNULL,
                env=environment,
            )
            samples.append((time.perf_counter() - begin) * 1000)
    return {
        "requests": len(samples),
        "mean_ms": round(statistics.fmean(samples), 3),
        "min_ms": round(min(samples), 3),
        "max_ms": round(max(samples), 3),
    }


def main():
    arguments = parse_args()
    process = None
    if arguments.spawn:
        process, url = spawn_service(arguments.executor, arguments.target)
    elif arguments.url:
        url = arguments.url
    else:
        raise SystemExit("pass --url or --spawn")
    host, port = url.split("//", 1)[1].rsplit(":", 1)

    try:
        summary = run_load(host, int(port), arguments)
    finally:
        if process is not None:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)

    if arguments.cold_baseline:
        summary["cold_baseline"] = measure_cold_baseline(arguments)
        if summary["latency_ms"]:
            summary["speedup_p50_vs_cold"] = round(
                summary["cold_baseline"]["mean_ms"]
                / summary["latency_ms"]["p50"],
                2,
            )

    print(json.dumps(summary, indent=2))

    failures = []
    if summary["errors"]:
        failures.append(f"{summary['errors']} request(s) failed")
    if not summary["latency_ms"]:
        failures.append("no successful requests")
    if arguments.assert_p99 and summary["latency_ms"]:
        p99 = summary["latency_ms"]["p99"]
        if p99 > arguments.assert_p99:
            failures.append(
                f"p99 {p99:.1f}ms exceeds the {arguments.assert_p99}ms bound"
            )
    if arguments.assert_speedup:
        speedup = summary.get("speedup_p50_vs_cold", 0.0)
        if speedup < arguments.assert_speedup:
            failures.append(
                f"warm-serve speedup {speedup}x is below the required "
                f"{arguments.assert_speedup}x"
            )
    if failures:
        print("loadgen FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("loadgen OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
