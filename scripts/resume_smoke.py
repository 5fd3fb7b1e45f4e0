#!/usr/bin/env python
"""Interrupt/resume smoke for the fault-tolerant report harness.

Runs a tiny-scale report three ways and checks the acceptance property
end to end, outside the unit-test harness:

1. a clean single-shot serial run;
2. a ``--jobs 2 --resume journal`` run SIGKILL'd partway through;
3. the same command again, resuming from the journal.

The resumed run must exit 0 and its deterministic sections (everything
except the wall-clock ones: Table 3, Claim C2, and the total-time
footer) must be byte-identical to the single-shot run.

Usage: PYTHONPATH=src python scripts/resume_smoke.py [SCALE]
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.eval.report import deterministic_sections

SCALE = sys.argv[1] if len(sys.argv) > 1 else "0.05"


def report_command(jobs, journal=None):
    command = [
        sys.executable, "-m", "repro", "report",
        "--scale", SCALE, "--jobs", str(jobs),
    ]
    if journal:
        command += ["--resume", journal]
    return command


def journal_records(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return max(0, sum(1 for _ in handle) - 1)  # minus the header


def main():
    workdir = tempfile.mkdtemp(prefix="resume-smoke-")
    journal = os.path.join(workdir, "run.jsonl")

    print(f"[1/3] single-shot serial report (scale={SCALE})", flush=True)
    clean = subprocess.run(
        report_command(jobs=1), capture_output=True, text=True
    )
    assert clean.returncode == 0, clean.stderr

    print("[2/3] --jobs 2 report, SIGKILL after a few journal records",
          flush=True)
    victim = subprocess.Popen(
        report_command(jobs=2, journal=journal),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 300
    while journal_records(journal) < 3 and victim.poll() is None:
        assert time.time() < deadline, "no journal records after 300 s"
        time.sleep(0.2)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(f"      killed with {journal_records(journal)} unit(s) "
              "journalled", flush=True)
    else:
        # the tiny run can legitimately finish before we kill it; the
        # resume below then exercises the all-cached path
        print("      run finished before the kill; resuming a complete "
              "journal instead", flush=True)

    done_before_resume = journal_records(journal)
    assert done_before_resume >= 3, "journal should hold completed units"

    print("[3/3] resume from the journal and diff", flush=True)
    resumed = subprocess.run(
        report_command(jobs=2, journal=journal),
        capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr

    clean_sections = deterministic_sections(clean.stdout)
    resumed_sections = deterministic_sections(resumed.stdout)
    assert clean_sections.keys() == resumed_sections.keys(), (
        "section lists differ: "
        f"{sorted(clean_sections) } vs {sorted(resumed_sections)}"
    )
    for title, body in clean_sections.items():
        if resumed_sections[title] != body:
            print(f"--- MISMATCH in {title!r} ---")
            print("clean:\n" + body)
            print("resumed:\n" + resumed_sections[title])
            raise SystemExit(1)
    print(f"resume smoke OK: {len(clean_sections)} deterministic sections "
          f"byte-identical after resuming {done_before_resume} journalled "
          "unit(s)")


if __name__ == "__main__":
    main()
