"""Conformance suite for the executor layer.

Both backends — in-process and local pool — are held to the same
:class:`~repro.eval.executors.base.Executor` contract: submission-order
results through ``run_grid``, per-unit timeouts, crash containment,
failure collection, queued-copy cancellation, a probe that sees running
work, and the same per-unit trace counters.  Pool workers must not
outlive a killed parent.

Unit functions live at module level so the local pool can pickle them.
"""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.eval.executors import (
    Executor,
    InprocessAsyncExecutor,
    LocalPoolExecutor,
    resolve_executor,
)
from repro.eval.grid import (
    FailureCollector,
    GridFailure,
    GridOptions,
    GridTask,
    run_grid,
)
from repro.workloads import kernel_by_id

BACKENDS = ("inprocess", "local")
#: backends whose units run in a separate process (safe to SIGKILL)
PROCESS_BACKENDS = ("local",)


def _square(x):
    return x * x


def _boom(message):
    raise ValueError(message)


def _sleep(seconds):
    time.sleep(seconds)
    return "overslept"


def _kill_self(delay=0.0):
    # a small delay lets instant sibling units drain first, so repeated
    # pool breaks cannot burn their retry budget by association
    time.sleep(delay)
    os.kill(os.getpid(), signal.SIGKILL)


def _compile_and_run(kernel_id):
    spec = kernel_by_id(kernel_id)
    executable = repro.compile_c(spec.source, "r2000", repro.CompileOptions())
    return repro.simulate(
        executable, "bench", (spec.args[0], 8),
        options=repro.SimOptions(cache=True),
    ).cycles


@contextlib.contextmanager
def make_backend(name, *, workers=2, retries=1):
    """Build one backend with fast-failure settings for the suite."""
    if name == "inprocess":
        with InprocessAsyncExecutor() as backend:
            yield backend
        return
    with LocalPoolExecutor(workers=workers, retries=retries, backoff=0.05) as backend:
        yield backend


def _collect(backend, **changes):
    return GridOptions(failures="collect", executor=backend, **changes)


# -- the Executor contract, straight at the interface ----------------------


@pytest.mark.parametrize("name", BACKENDS)
def test_event_stream_covers_every_submission(name):
    with make_backend(name) as backend:
        assert isinstance(backend, Executor)
        keys = []
        for x in range(5):
            keys.append(backend.submit(GridTask(f"sq/{x}", _square, (x,))))
        backend.submit(GridTask("boom", _boom, ("kaput",)))
        # submissions still queued: no worker is idle
        assert backend.probe().idle == 0
        seen = {}
        while len(seen) < 6:
            event = backend.next_event(timeout=30.0)
            assert event is not None, f"stream dried up after {sorted(seen)}"
            seen[event.key] = event
        for x in range(5):
            event = seen[f"sq/{x}"]
            assert event.ok and event.value == x * x
            assert event.attempts >= 1
        failure = seen["boom"]
        assert not failure.ok
        assert failure.value["type"] == "ValueError"
        assert "kaput" in failure.value["message"]
        # drained: nothing outstanding, the stream reports None
        assert backend.next_event(timeout=0.2) is None

        probe = backend.probe()
        assert probe.backend == name
        assert probe.healthy
        assert probe.queued == 0 and probe.in_flight == 0
        assert probe.idle == probe.workers
    # close() is idempotent
    backend.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_resubmitting_a_key_runs_another_copy(name):
    """The service's resubmit: a key whose request timed out while its
    unit still runs is submitted again; each copy reports its own event."""
    with make_backend(name) as backend:
        task = GridTask("dup", _square, (7,))
        backend.submit(task)
        backend.submit(task)
        events = []
        while len(events) < 2:
            event = backend.next_event(timeout=30.0)
            assert event is not None
            events.append(event)
        assert all(e.key == "dup" and e.value == 49 for e in events)
        assert max(e.attempts for e in events) == 2


@pytest.mark.parametrize("name", BACKENDS)
def test_cancel_drops_queued_copies_only(name):
    with make_backend(name, workers=1) as backend:
        # saturate the single worker so "tail" stays queued: the local
        # pool holds workers+1 call items *plus* the one the worker has
        # popped to run, so it needs three sleepers ahead
        heads = ["head/0"]
        backend.submit(GridTask("head/0", _sleep, (0.6,)))
        if name == "local":
            for extra in ("head/1", "head/2"):
                heads.append(extra)
                backend.submit(GridTask(extra, _sleep, (0.6,)))
        backend.submit(GridTask("tail", _square, (3,)))
        assert backend.cancel("tail") is True
        seen = set()
        while len(seen) < len(heads):
            event = backend.next_event(timeout=30.0)
            assert event is not None and event.key in heads
            seen.add(event.key)
        # the cancelled unit never produces an event
        assert backend.next_event(timeout=0.3) is None


# -- the same grid semantics on every backend ------------------------------


@pytest.mark.parametrize("name", BACKENDS)
def test_grid_orders_results_and_collects_failures(name):
    units = [
        GridTask("sq/1", _square, (1,)),
        GridTask("boom", _boom, ("injected",)),
        GridTask("sq/3", _square, (3,)),
        GridTask("sleeper", _sleep, (30.0,)),
        GridTask("sq/5", _square, (5,)),
    ]
    with make_backend(name) as backend:
        collector = FailureCollector()
        results = run_grid(
            units, _collect(backend, timeout=1.0, collector=collector)
        )
    assert [results[0], results[2], results[4]] == [1, 9, 25]
    assert isinstance(results[1], GridFailure)
    assert results[1].error_type == "ValueError"
    assert isinstance(results[3], GridFailure)
    assert results[3].error_type == "GridTimeout"
    assert sorted(f.key for f in collector.failures()) == ["boom", "sleeper"]


@pytest.mark.parametrize("name", PROCESS_BACKENDS)
def test_crash_containment_and_sibling_survival(name):
    units = [
        GridTask("sq/1", _square, (1,)),
        GridTask("killer", _kill_self, (0.5,)),
        GridTask("sq/2", _square, (2,)),
        GridTask("sq/3", _square, (3,)),
    ]
    with make_backend(name, retries=1) as backend:
        results = run_grid(units, _collect(backend))
    assert [results[0], results[2], results[3]] == [1, 4, 9]
    failure = results[1]
    assert isinstance(failure, GridFailure)
    assert failure.error_type == "WorkerCrash"
    assert failure.attempts == 2  # first run + one retry


def test_probe_counts_a_running_unit():
    with make_backend("local", workers=1) as backend:
        backend.submit(GridTask("nap", _sleep, (1.0,)))
        deadline = time.monotonic() + 30.0
        probe = backend.probe()
        while probe.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
            probe = backend.probe()
        assert (probe.in_flight, probe.idle, probe.queued) == (1, 0, 0)
        event = backend.next_event(timeout=30.0)
        assert event is not None and event.key == "nap" and event.ok
        probe = backend.probe()
        assert (probe.in_flight, probe.idle, probe.queued) == (0, 1, 0)


def test_inprocess_probe_counts_the_running_unit():
    # the serial backend runs a unit inside next_event, on the caller's
    # thread: a probe taken meanwhile (here, by the unit) counts it
    with InprocessAsyncExecutor() as backend:
        backend.submit(GridTask("peek", backend.probe))
        running = backend.next_event().value
        assert (running.in_flight, running.idle, running.queued) == (1, 0, 0)
        probe = backend.probe()
        assert (probe.in_flight, probe.idle, probe.queued) == (0, 1, 0)


def test_a_unit_ships_the_same_counters_on_every_backend():
    shipped = {}
    for name in BACKENDS:
        with make_backend(name) as backend:
            backend.submit(GridTask("K1", _compile_and_run, (1,)))
            event = backend.next_event(timeout=120)
        assert event.ok, event.value
        shipped[name] = {
            counter: amount
            for counter, amount in event.metrics["counters"].items()
            if counter.startswith(("compile.", "sim."))
        }
    assert shipped["inprocess"]["compile.compiled"] == 1
    assert shipped["inprocess"]["sim.instructions"] > 0
    assert shipped["local"] == shipped["inprocess"]


#: a process that holds a 2-worker pool, prints its workers' pids and
#: waits to be killed
POOL_HOLDER = textwrap.dedent("""
    import os, time
    from repro.eval.executors import LocalPoolExecutor
    from repro.eval.grid import GridTask

    def pid_after(seconds):
        time.sleep(seconds)
        return os.getpid()

    pool = LocalPoolExecutor(workers=2)
    for index in range(2):
        pool.submit(GridTask(f"pid/{index}", pid_after, (1.0,)))
    pids = {pool.next_event(timeout=60).value for _ in range(2)}
    print(*sorted(pids), flush=True)
    time.sleep(120)
""")


def _alive(pid):
    """True while ``pid`` runs (an exited, unreaped zombie counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_pool_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    holder = subprocess.Popen(
        [sys.executable, "-c", POOL_HOLDER],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    workers = []
    try:
        workers = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(workers) == 2
        holder.send_signal(signal.SIGKILL)
        holder.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


# -- spec strings and the redesigned options --------------------------------


def test_resolve_executor_specs():
    with resolve_executor("inprocess", jobs=None) as backend:
        assert isinstance(backend, InprocessAsyncExecutor)
    with resolve_executor("local", jobs=3) as backend:
        assert isinstance(backend, LocalPoolExecutor)
        assert backend.workers == 3
    with pytest.raises(ValueError, match="executor spec"):
        resolve_executor("carrier-pigeon", jobs=None)


def test_module_level_failure_helpers_are_gone():
    from repro.eval import grid

    assert not hasattr(grid, "reset_failures")
    assert not hasattr(grid, "collected_failures")
    # the replacement: per-run collectors, fully scoped
    mine = FailureCollector()
    run_grid(
        [GridTask("boom2", _boom, ("mine",))],
        GridOptions(jobs=1, failures="collect", collector=mine),
    )
    assert [f.key for f in mine.failures()] == ["boom2"]


def test_grid_names_are_exported_from_the_package_root():
    import repro
    from repro import api

    assert repro.run_grid is run_grid
    assert repro.GridOptions is GridOptions
    assert repro.FailureCollector is FailureCollector
    assert issubclass(repro.Executor, Executor) and repro.Executor is Executor
    for name in (
        "run_grid",
        "GridTask",
        "GridOptions",
        "GridFailure",
        "FailureCollector",
        "Executor",
    ):
        assert name in api.__all__ and hasattr(api, name)
