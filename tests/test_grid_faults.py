"""Fault-injection suite for the robust evaluation grid.

Each scenario injects one failure mode — a unit that raises, a unit that
sleeps past its wall-clock budget, a worker killed mid-flight, an
interrupted run resumed from its journal — and asserts that the
surviving rows are bit-identical to a clean serial run while the failed
unit degrades to a structured :class:`GridFailure`.
"""

import dataclasses
import json
import os
import signal
import time

import pytest

import repro
from repro.errors import GridTimeout, JournalError, SimulationTimeout
from repro.eval.common import grid_run_kernel, kernel_key
from repro.eval.grid import (
    GridFailure,
    GridOptions,
    GridTask,
    run_grid,
)
from repro.eval.journal import Journal, decode_value, encode_value
from repro.eval.table4 import measure as table4_measure
from repro.eval.table4 import render as table4_render
from repro.workloads import kernel_by_id


def _square(x):
    return x * x


def _boom(message):
    raise ValueError(message)


def _sleep(seconds):
    time.sleep(seconds)
    return "overslept"


def _kill_self(delay=0.5):
    # the delay lets sibling units drain before the pool breaks, so
    # repeated breaks cannot burn their retry budget by association
    time.sleep(delay)
    os.kill(os.getpid(), signal.SIGKILL)


def _marking_square(x, marker_dir):
    with open(os.path.join(marker_dir, f"ran_{x}"), "a") as handle:
        handle.write("x\n")
    return x * x


COLLECT = GridOptions(failures="collect")


def _collect(**changes):
    return dataclasses.replace(COLLECT, **changes)


# -- a unit that raises ----------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_unit_degrades_to_failure_and_siblings_survive(jobs):
    units = [
        GridTask("sq/1", _square, (1,)),
        GridTask("boom", _boom, ("injected failure",)),
        GridTask("sq/3", _square, (3,)),
    ]
    results = run_grid(units, _collect(jobs=jobs))
    assert results[0] == 1 and results[2] == 9  # bit-identical survivors
    failure = results[1]
    assert isinstance(failure, GridFailure)
    assert failure.key == "boom"
    assert failure.error_type == "ValueError"
    assert "injected failure" in failure.message
    assert "ValueError" in failure.traceback


def test_marion_error_details_cross_the_process_boundary():
    def sim_die():
        raise repro.SimulationError(
            "pc 99 outside program", function="bench", pc=99, cycle=1234
        )

    # closures don't pickle, so exercise the serial containment path
    results = run_grid([GridTask("simdie", sim_die)], _collect(jobs=1))
    failure = results[0]
    assert failure.error_type == "SimulationError"
    assert failure.details["function"] == "bench"
    assert failure.details["pc"] == 99
    assert failure.details["cycle"] == 1234


# -- a unit that sleeps past the timeout -----------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_unit_timeout_becomes_failure(jobs):
    units = [
        GridTask("sq/2", _square, (2,)),
        GridTask("sleeper", _sleep, (30.0,)),
    ]
    options = _collect(timeout=0.5, jobs=jobs)
    start = time.perf_counter()
    results = run_grid(units, options)
    assert time.perf_counter() - start < 15.0  # did not wait the 30 s
    assert results[0] == 4
    failure = results[1]
    assert isinstance(failure, GridFailure)
    assert failure.error_type == "GridTimeout"
    assert "wall-clock budget" in failure.message
    assert failure.details["seconds"] == 0.5


def test_timeout_raises_in_raise_mode():
    with pytest.raises(GridTimeout, match="wall-clock budget"):
        run_grid(
            [GridTask("sleeper", _sleep, (30.0,))],
            GridOptions(jobs=1, timeout=0.3),
        )


# -- a worker killed mid-flight --------------------------------------------


def test_killed_worker_is_contained_and_siblings_survive():
    units = [
        GridTask("sq/1", _square, (1,)),
        GridTask("killer", _kill_self),
        GridTask("sq/2", _square, (2,)),
        GridTask("sq/3", _square, (3,)),
    ]
    options = _collect(retries=1, backoff=0.05, jobs=2)
    results = run_grid(units, options)
    assert results[0] == 1 and results[2] == 4 and results[3] == 9
    failure = results[1]
    assert isinstance(failure, GridFailure)
    assert failure.error_type == "WorkerCrash"
    assert failure.attempts == 2  # first run + one retry


def test_killed_worker_raises_after_retries_in_raise_mode():
    with pytest.raises(repro.MarionError, match="WorkerCrash"):
        run_grid(
            [GridTask("killer", _kill_self), GridTask("sq/5", _square, (5,))],
            GridOptions(jobs=2, retries=0, backoff=0.05),
        )


# -- journal: checkpoint, resume, bit-identical tables ---------------------


def test_journal_codec_round_trips_results_exactly():
    run = grid_run_kernel(1, "r2000", "postpass", scale=0.05)
    assert decode_value(encode_value(run)) == run  # dataclass eq: all fields
    for value in (
        (1, 0.1234567890123456, "x"),
        {"a": [1, 2, (3, 4)], 5: None},
        [True, 2.5e-323, -0.0],
    ):
        assert decode_value(encode_value(value)) == value
        assert type(decode_value(encode_value(value))) is type(value)


def test_journal_resume_skips_done_units(tmp_path):
    marker_dir = str(tmp_path)
    units = [
        GridTask(f"mark/{x}", _marking_square, (x, marker_dir))
        for x in range(4)
    ]
    journal_path = str(tmp_path / "journal.jsonl")
    with Journal(journal_path) as journal:
        first = run_grid(units[:2], GridOptions(jobs=1, journal=journal))
    # a fresh Journal object, as a resumed process would build
    with Journal(journal_path) as journal:
        second = run_grid(units, GridOptions(jobs=1, journal=journal))
    assert first == [0, 1]
    assert second == [0, 1, 4, 9]
    for x in range(4):
        runs = open(os.path.join(marker_dir, f"ran_{x}")).read().count("x")
        assert runs == 1  # units 0 and 1 were NOT re-executed on resume


def test_journal_reruns_failed_units(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    with Journal(journal_path) as journal:
        results = run_grid(
            [GridTask("flaky", _boom, ("first try",))],
            _collect(jobs=1, journal=journal),
        )
    assert isinstance(results[0], GridFailure)
    with Journal(journal_path) as journal:
        assert journal.failed("flaky") is not None
        results = run_grid(
            [GridTask("flaky", _square, (6,))],  # "fixed" second run
            _collect(jobs=1, journal=journal),
        )
    assert results[0] == 36
    with Journal(journal_path) as journal:
        assert journal.lookup("flaky") == 36
        assert journal.failed("flaky") is None


def test_journal_config_mismatch_refuses_resume(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    Journal(journal_path, config={"scale": 0.3}).close()
    with pytest.raises(JournalError, match="config"):
        Journal(journal_path, config={"scale": 1.0})
    # same config resumes fine
    Journal(journal_path, config={"scale": 0.3}).close()


def test_journal_record_with_a_field_the_class_lost_is_a_journal_error(
    tmp_path,
):
    # a KernelRun journalled by a version whose record had one more field
    record = encode_value(grid_run_kernel(1, "r2000", "postpass", scale=0.05))
    record["F"]["compile_seconds"] = 0.25
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(
        json.dumps({"schema": 1, "kind": "header", "config": {}}) + "\n"
        + json.dumps({"schema": 1, "key": "table4/r2000/postpass/K1",
                      "status": "ok", "wall_s": 0.1, "result": record})
        + "\n"
    )
    with pytest.raises(
        JournalError, match=r"repro\.eval\.common:KernelRun.*compile_seconds"
    ):
        Journal(str(journal_path))


def test_journal_tolerates_torn_final_record(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    with Journal(journal_path) as journal:
        journal.record_ok("done/1", 11, 0.1)
    with open(journal_path, "a") as handle:
        handle.write('{"schema": 1, "key": "torn", "status": "o')  # SIGKILL
    with Journal(journal_path) as journal:
        assert journal.lookup("done/1") == 11
        assert journal.lookup("torn") is not journal.lookup("done/1")


def test_interrupted_table4_resume_is_byte_identical(tmp_path):
    """The acceptance property: interrupt a grid mid-run, resume from the
    journal, and the rendered table is byte-identical to a clean run."""
    kernels = [kernel_by_id(1)]
    target = "r2000"
    clean = table4_measure(kernels=kernels, scale=0.05, jobs=1)

    journal_path = str(tmp_path / "table4.jsonl")
    # "interrupted" run: only two of the three units completed before the
    # kill — exactly what a journal of a killed run contains
    partial_units = [
        GridTask(
            kernel_key("table4", target, strategy, 1),
            grid_run_kernel,
            (1, target, strategy),
            {"scale": 0.05, "cache": True},
        )
        for strategy in ("postpass", "ips")
    ]
    with Journal(journal_path) as journal:
        run_grid(partial_units, GridOptions(jobs=1, journal=journal))

    with Journal(journal_path) as journal:
        resumed = table4_measure(
            kernels=kernels,
            scale=0.05,
            options=GridOptions(jobs=1, journal=journal),
        )
    assert table4_render(resumed) == table4_render(clean)  # byte-identical
    # and the journalled units really were reused, not re-measured: the
    # wall-clock fields survive the JSON round-trip bit-for-bit
    with Journal(journal_path) as journal:
        key = kernel_key("table4", target, "postpass", 1)
        assert journal.lookup(key) == resumed.runs[1]["postpass"]


def test_failed_unit_renders_failed_cell(tmp_path):
    """A hanging/crashing unit yields a FAILED cell, not a traceback."""
    data = table4_measure(
        kernels=[kernel_by_id(1)],
        scale=0.05,
        options=GridOptions(jobs=1, failures="collect", timeout=1e-9),
    )
    text = table4_render(data)
    assert "FAILED" in text
    assert data.failures  # all three strategy units timed out


# -- the simulator watchdog ------------------------------------------------


def test_simulation_timeout_carries_context():
    spec = kernel_by_id(1)
    exe = repro.compile_c(
        spec.source, "r2000", repro.CompileOptions(strategy="postpass")
    )
    with pytest.raises(SimulationTimeout) as info:
        repro.simulate(exe, "bench", args=spec.args, options=repro.SimOptions(max_cycles=2000))
    timeout = info.value
    assert timeout.function == "bench"
    assert timeout.max_cycles == 2000
    assert timeout.cycle > 2000
    assert timeout.pc is not None
    assert "exceeded 2000 cycles" in str(timeout)
    assert isinstance(timeout, repro.SimulationError)  # taxonomy intact


def test_simulation_error_context_renders_in_message():
    err = repro.SimulationError("pc 7 outside program", function="f", pc=7)
    assert "function='f'" in str(err) and "pc=7" in str(err)
