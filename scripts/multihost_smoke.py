#!/usr/bin/env python
"""Localhost multi-host smoke for the SocketExecutor grid backend.

Exercises the distributed story end to end, outside the unit-test
harness, on one machine:

1. a clean single-shot serial report (the byte-identity baseline);
2. a report driven over ``--executor socket:127.0.0.1:PORT`` with two
   externally launched ``repro worker`` processes, one of which is
   SIGKILLed mid-run — the survivor must adopt the orphaned units and
   the report must still exit 0 with deterministic sections
   byte-identical to the serial run;
3. a sharded pair of reports (``--shard 1/2`` / ``--shard 2/2``)
   journalling into one shared ``--resume`` file, finished by an
   unsharded resume run that must reassemble byte-identical tables
   without re-measuring anything.

Usage: PYTHONPATH=src python scripts/multihost_smoke.py [SCALE]
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.eval.report import deterministic_sections

SCALE = sys.argv[1] if len(sys.argv) > 1 else "0.05"


def report_command(*extra):
    return [
        sys.executable, "-m", "repro", "report",
        "--scale", SCALE,
        *extra,
    ]


def journal_records(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return max(0, sum(1 for _ in handle) - 1)  # minus the header


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for_listener(port, deadline_s=60.0):
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
            return
        except OSError:
            time.sleep(0.1)
    raise SystemExit(f"coordinator never listened on port {port}")


def diff_sections(baseline, candidate, what):
    base = deterministic_sections(baseline)
    cand = deterministic_sections(candidate)
    assert base.keys() == cand.keys(), (
        f"{what}: section lists differ: {sorted(base)} vs {sorted(cand)}"
    )
    for title, body in base.items():
        if cand[title] != body:
            print(f"--- MISMATCH ({what}) in {title!r} ---")
            print("serial:\n" + body)
            print(f"{what}:\n" + cand[title])
            raise SystemExit(1)
    return len(base)


def main():
    workdir = tempfile.mkdtemp(prefix="multihost-smoke-")

    print(f"[1/3] single-shot serial report (scale={SCALE})", flush=True)
    clean = subprocess.run(
        report_command("--jobs", "1"), capture_output=True, text=True
    )
    assert clean.returncode == 0, clean.stderr

    print("[2/3] socket report, 2 external workers, SIGKILL one mid-run",
          flush=True)
    port = free_port()
    journal = os.path.join(workdir, "socket.jsonl")
    coordinator = subprocess.Popen(
        report_command(
            "--executor", f"socket:127.0.0.1:{port}",
            "--resume", journal, "--format", "json",
        ),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    wait_for_listener(port)
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    deadline = time.time() + 600
    while journal_records(journal) < 3 and coordinator.poll() is None:
        assert time.time() < deadline, "no journal records after 600 s"
        time.sleep(0.2)
    if coordinator.poll() is None:
        workers[0].send_signal(signal.SIGKILL)
        print(f"      killed worker pid {workers[0].pid} with "
              f"{journal_records(journal)} unit(s) journalled", flush=True)
    else:
        print("      run finished before the kill; adoption not exercised "
              "at this scale", flush=True)
    out, err = coordinator.communicate(timeout=600)
    assert coordinator.returncode == 0, err
    for proc in workers:
        if proc.poll() is None:
            proc.terminate()
    # the coordinator listened on the port (wait_for_listener), so the
    # socket backend ran the grid
    payload = json.loads(out)
    # ``text`` is the report as printed, less print()'s final newline
    sections = diff_sections(clean.stdout, payload["text"] + "\n", "socket")
    counters = payload["counters"]
    print(f"      {sections} deterministic sections byte-identical; "
          f"grid: adopted={counters.get('grid.adopted_units', 0)} "
          f"stolen={counters.get('grid.stolen_units', 0)}", flush=True)

    print("[3/3] sharded pair into one journal, unsharded resume", flush=True)
    journal = os.path.join(workdir, "shards.jsonl")
    for shard in ("1/2", "2/2"):
        ran = subprocess.run(
            report_command("--jobs", "2", "--shard", shard,
                           "--resume", journal),
            capture_output=True, text=True,
        )
        assert ran.returncode == 0, ran.stderr
        print(f"      shard {shard}: {journal_records(journal)} unit(s) "
              "journalled so far", flush=True)
    merged = subprocess.run(
        report_command("--jobs", "1", "--resume", journal),
        capture_output=True, text=True,
    )
    assert merged.returncode == 0, merged.stderr
    sections = diff_sections(clean.stdout, merged.stdout, "sharded-merge")
    print(f"multihost smoke OK: {sections} deterministic sections "
          "byte-identical on the socket and sharded-merge paths")


if __name__ == "__main__":
    main()
