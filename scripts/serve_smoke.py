#!/usr/bin/env python
"""End-to-end smoke for ``repro serve``, outside the unit-test harness.

Launches the real CLI entry point (warm local worker pool), then walks
the whole v1 surface over real sockets:

1. every endpoint answers: GET healthz/targets/stats, POST
   compile/run/explain;
2. **warm second compile is free**: an identical POST /v1/compile is
   answered from the response memo — ``/v1/stats`` must show zero
   additional kernel compiles and zero additional CGG builds;
3. **dedup burst**: N identical requests for a fresh source cause
   exactly one fresh compile between them (in-flight coalescing and the
   memo split the credit; the compile counter is the invariant);
4. structured errors: unsupported api version and malformed JSON are
   400s with taxonomy codes, an unprocessable program is a 422;
5. SIGTERM drains gracefully and the process exits 0.

Usage: PYTHONPATH=src python scripts/serve_smoke.py
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

TARGET = "toyp"
SOURCE = "int add(int a, int b) { return a + b; }"
BURST_SOURCE = "int triple(int x) { return x + x + x; }"


def launch():
    # The subject here is the service's own coalescing and memo; a warm
    # persistent artifact cache would absorb the burst's one fresh
    # compile and break the counter invariants on re-runs.
    env = dict(os.environ, REPRO_CACHE="0")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--warm", TARGET,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    pattern = re.compile(r"listening on http://([\d.]+):(\d+)")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit("serve exited before announcing its port")
        match = pattern.search(line)
        if match:
            return process, match.group(1), int(match.group(2))
    raise SystemExit("serve did not announce its port within 60s")


def call(host, port, method, path, doc=None):
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = json.dumps(doc) if doc is not None else None
        connection.request(method, path, body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def counter(stats, name):
    """One counter of a ``/v1/stats`` document (absent means 0)."""
    return stats["counters"].get(name, 0)


def check(condition, label, context=None):
    if not condition:
        raise SystemExit(f"serve smoke FAILED: {label}  {context or ''}")
    print(f"  ok: {label}")


def main():
    process, host, port = launch()
    try:
        status, body = call(host, port, "GET", "/v1/healthz")
        check(status == 200 and body["status"] == "ok", "healthz")

        status, body = call(host, port, "GET", "/v1/targets")
        check(
            status == 200
            and [t["name"] for t in body["targets"]]
            == ["toyp", "r2000", "m88000", "i860"],
            "targets lists the bundled machines",
        )

        compile_doc = {"source": SOURCE, "target": TARGET}
        status, first = call(host, port, "POST", "/v1/compile", compile_doc)
        check(
            status == 200 and "add:" in first["assembly"],
            "cold compile returns the scheduled listing",
        )

        _, stats_before = call(host, port, "GET", "/v1/stats")
        status, second = call(host, port, "POST", "/v1/compile", compile_doc)
        _, stats_after = call(host, port, "GET", "/v1/stats")
        warm_compiles = (
            counter(stats_after, "compile.compiled")
            - counter(stats_before, "compile.compiled")
        )
        warm_cgg = (
            counter(stats_after, "cgg.builds")
            - counter(stats_before, "cgg.builds")
        )
        check(
            status == 200 and second["served"] == "memo",
            "warm second compile served from the memo",
        )
        check(
            warm_compiles == 0 and warm_cgg == 0,
            "warm second compile: 0 kernel compiles, 0 CGG builds",
            (warm_compiles, warm_cgg),
        )
        check(
            second["assembly"] == first["assembly"],
            "warm response is byte-identical",
        )

        # dedup burst: N identical requests, exactly one fresh compile
        _, stats_before = call(host, port, "GET", "/v1/stats")
        burst_doc = {"source": BURST_SOURCE, "target": TARGET}
        results = []

        def fire():
            results.append(
                call(host, port, "POST", "/v1/compile", dict(burst_doc))
            )

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _, stats_after = call(host, port, "GET", "/v1/stats")
        burst_compiles = (
            counter(stats_after, "compile.compiled")
            - counter(stats_before, "compile.compiled")
        )
        check(
            all(status == 200 for status, _ in results),
            "dedup burst: all 8 identical requests answered",
        )
        check(
            burst_compiles == 1,
            "dedup burst: exactly one fresh compile",
            burst_compiles,
        )
        coalesced = sum(
            counter(stats_after, name) - counter(stats_before, name)
            for name in ("serve.dedup_hits", "serve.memo_hits")
        )
        check(
            coalesced == 7,
            "dedup burst: seven requests coalesced or memo-served",
            coalesced,
        )

        status, body = call(
            host, port, "POST", "/v1/run",
            {
                "source": SOURCE,
                "entry": "add",
                "args": [19, 23],
                "target": TARGET,
            },
        )
        check(
            status == 200 and body["result"]["int"] == 42,
            "run simulates to the right answer",
        )

        status, body = call(
            host, port, "POST", "/v1/explain",
            {"source": SOURCE, "target": TARGET},
        )
        check(
            status == 200
            and "issue" in body["listing"]
            and "nop_slots" in body["functions"]["add"],
            "explain annotates issue cycles and stall reasons",
        )

        status, body = call(
            host, port, "POST", "/v1/compile",
            {"source": SOURCE, "api": 99},
        )
        check(
            status == 400
            and body["error"]["code"] == "unsupported_version",
            "unknown api version is a structured 400",
        )

        status, body = call(
            host, port, "POST", "/v1/compile",
            {"source": "int f( {"},
        )
        check(
            status == 422 and body["error"]["type"].endswith("Error"),
            "unparseable program is a structured 422",
            body["error"]["type"],
        )

        status, body = call(host, port, "GET", "/v1/stats")
        check(
            status == 200 and body["executor"]["workers"] >= 1,
            "stats reports a live worker pool",
        )
        check(
            body["latency_ms"]["compile"]["p50"] >= 0,
            "stats reports latency percentiles",
        )
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            exit_code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise SystemExit("serve smoke FAILED: SIGTERM did not drain")
    check(exit_code == 0, "SIGTERM drains and exits 0", exit_code)
    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
