"""Fault-injection suite for the robust evaluation grid.

Each scenario injects one failure mode — a unit that raises, a unit that
sleeps past its wall-clock budget, a worker killed mid-flight — and
asserts that the surviving rows are bit-identical to a clean serial run
while the failed unit degrades to a structured :class:`GridFailure`.
"""

import dataclasses
import os
import signal
import time

import pytest

import repro
from repro.errors import GridTimeout, SimulationTimeout
from repro.eval.executors import LocalPoolExecutor
from repro.eval.grid import (
    GridFailure,
    GridOptions,
    GridTask,
    run_grid,
)
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
    trace = repro.Trace("kill")
    with LocalPoolExecutor(workers=2, retries=1, backoff=0.05) as pool:
        with repro.tracing(trace):
            results = run_grid(units, _collect(executor=pool), label="kill")
    assert results[0] == 1 and results[2] == 4 and results[3] == 9
    failure = results[1]
    assert isinstance(failure, GridFailure)
    assert failure.error_type == "WorkerCrash"
    assert failure.attempts == 2  # first run + one retry
    # the pool's fault counters, and the grid's per-label slice of them
    counters = trace.counters
    assert counters["grid.pool_rebuilds"] == 2  # one per killed attempt
    assert counters["grid.retried_units"] >= 1
    assert counters["grid.kill.pool_rebuilds"] == 2
    assert counters["grid.kill.retries"] == counters["grid.retried_units"]
    assert counters["grid.kill.failures"] == 1


def test_killed_worker_raises_after_retries_in_raise_mode():
    with LocalPoolExecutor(workers=2, retries=0, backoff=0.05) as pool:
        with pytest.raises(repro.MarionError, match="WorkerCrash"):
            run_grid(
                [
                    GridTask("killer", _kill_self),
                    GridTask("sq/5", _square, (5,)),
                ],
                GridOptions(executor=pool),
            )


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
