"""Fault-tolerant fan-out for the evaluation harness — a façade over
pluggable executors.

The paper's evaluation is a grid of independent (kernel × strategy ×
target) compile-and-simulate work units.  :func:`run_grid` fans a list
of such units out across an execution backend (see
:mod:`repro.eval.executors`) and returns the results **in submission
order** regardless of completion order, so tables render identically at
any job count and on any backend.  With ``jobs=1`` (or a single work
unit) it runs on the serial in-process backend — no pool, no pickling,
bit-identical behaviour to the pre-parallel harness.

Every unit is a keyed :class:`GridTask`; the key (a stable
``section/target/strategy/kernel`` string) names the unit in failure
cells and logs.  The façade owns everything that must behave
identically across backends, all configured through one
:class:`GridOptions` record:

* **backend selection** (``executor``): ``None`` picks the serial
  in-process backend for one job/unit and a local process pool
  otherwise, built and closed by this call; a live
  :class:`~repro.eval.executors.Executor` is used as-is and left open,
  so one warm pool can serve many grids;
* **per-unit timeout** (``timeout`` / ``REPRO_UNIT_TIMEOUT``): each unit
  runs under a ``SIGALRM`` deadline in its worker and raises
  :class:`~repro.errors.GridTimeout` when it blows its wall-clock
  budget;
* **structured failures** (``failures="collect"``): instead of raising
  in the parent, a failed unit yields a :class:`GridFailure` in its
  result slot, carrying the serialized ``repro.errors`` taxonomy
  across the process boundary; collected failures also land on the
  run's :class:`FailureCollector` (``collector=``), not in module-global
  state, so concurrent or nested grids cannot corrupt each other.

Crash containment belongs to the pool: a worker lost to a
SIGKILL/segfault costs only its in-flight units, which
:class:`~repro.eval.executors.LocalPoolExecutor` retries on a rebuilt
pool (its ``retries``/``backoff``) before they turn into failures.

Work units must be *top-level callables with picklable arguments and
results* (the local pool forks, so a parent that has already warmed the
target-build cache hands each worker a warm cache for free).

The job count resolves, in order: ``GridOptions.jobs``, the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import reconstruct_error
from repro.eval.executors import (
    Executor,
    InprocessAsyncExecutor,
    LocalPoolExecutor,
    resolve_jobs,
    resolve_timeout,
)
import repro.obs as obs

#: seconds between event polls
POLL = 0.2


@dataclass(frozen=True)
class GridTask:
    """One keyed unit of evaluation work: ``fn(*args, **kwargs)``.

    ``key`` is the unit's stable identity — the string failure cells
    display and the grid gathers results by.  Keys follow
    the ``section/target/strategy/kernel`` convention (for example
    ``table4/r2000/ips/K7``) and must be unique within one grid.
    """

    key: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError(
                f"GridTask({self.key!r}): fn must be callable — the key "
                "string comes first"
            )


@dataclass(frozen=True)
class GridFailure:
    """A work unit that did not produce a result.

    Appears in the result list (in the failed unit's slot) when
    ``failures="collect"``; renders as a FAILED cell in report tables.
    ``error_type``/``message``/``details`` carry the serialized
    ``repro.errors`` payload from the worker; ``attempts`` counts how
    many times the unit ran (> 1 after crash retries).
    """

    key: str
    error_type: str
    message: str
    wall_s: float = 0.0
    attempts: int = 1
    details: dict = field(default_factory=dict)
    traceback: str = ""

    def summary(self) -> str:
        where = ", ".join(
            f"{name}={value}" for name, value in sorted(self.details.items())
        )
        suffix = f" ({where})" if where else ""
        return f"{self.key}: {self.error_type}: {self.message}{suffix}"

    @property
    def payload(self) -> dict:
        """The :func:`repro.errors.error_payload`-shaped dict."""
        return {
            "type": self.error_type,
            "module": "repro.errors",
            "message": self.message,
            "details": dict(self.details),
            "traceback": self.traceback,
        }


class FailureCollector:
    """Run-scoped accumulator for :class:`GridFailure` records.

    Pass one via ``GridOptions(collector=...)`` (the report threads a
    single collector through all of its sections); a grid given no
    collector keeps its failures only in their result slots.
    """

    def __init__(self) -> None:
        self._failures: list[GridFailure] = []

    def add(self, failure: GridFailure) -> None:
        self._failures.append(failure)

    def failures(self) -> list[GridFailure]:
        return list(self._failures)

    def __len__(self) -> int:
        return len(self._failures)


@dataclass(frozen=True)
class GridOptions:
    """Consolidated knobs for one grid run.

    * ``jobs`` — worker processes (``None``: ``REPRO_JOBS`` or cpu count);
    * ``timeout`` — per-unit wall-clock seconds (``None``:
      ``REPRO_UNIT_TIMEOUT`` or unlimited);
    * ``failures`` — ``"raise"`` re-raises the first failure in the
      parent (the pre-1.1 behaviour); ``"collect"`` puts a
      :class:`GridFailure` in the unit's result slot and keeps going;
    * ``executor`` — ``None`` (in-process for one job, else a local
      pool owned by the run), or a live
      :class:`~repro.eval.executors.Executor` to reuse across grids;
    * ``collector`` — the :class:`FailureCollector` receiving collected
      failures (``None``: none; they stay in their result slots).
    """

    jobs: int | None = None
    timeout: float | None = None
    failures: str = "raise"
    executor: Executor | None = None
    collector: FailureCollector | None = None

    def __post_init__(self) -> None:
        if self.failures not in ("raise", "collect"):
            raise ValueError(
                f"GridOptions.failures must be 'raise' or 'collect', "
                f"got {self.failures!r}"
            )


def _make_failure(key, payload, wall_s, attempts) -> GridFailure:
    return GridFailure(
        key=key,
        error_type=payload.get("type", "Exception"),
        message=payload.get("message", ""),
        wall_s=wall_s,
        attempts=attempts,
        details=dict(payload.get("details", {})),
        traceback=payload.get("traceback", ""),
    )


def _resolve_backend(
    opts: GridOptions, count: int, pending: int
) -> tuple[Executor, bool]:
    """The backend for this run and whether the run owns (closes) it."""
    if opts.executor is not None:
        return opts.executor, False
    if count <= 1 or pending <= 1:
        return InprocessAsyncExecutor(), True
    return LocalPoolExecutor(workers=min(count, pending)), True


def run_grid(
    units: Sequence,
    options: GridOptions | None = None,
    *,
    label: str = "grid",
) -> list:
    """Run every :class:`GridTask`; results come back in submission order.

    All configuration rides on one :class:`GridOptions` record (jobs,
    timeout, failure policy, backend, collector).  ``jobs=1`` runs the
    units serially in-process (the deterministic fallback); ``jobs>1``
    fans out over a local process pool and gathers results by key.

    With the default ``failures="raise"`` a worker exception propagates
    to the caller, reconstructed from its serialized payload.
    """
    opts = options if options is not None else GridOptions()
    tasks = list(units)
    outstanding: dict[str, int] = {}
    for index, task in enumerate(tasks):
        if task.key in outstanding:
            raise ValueError(f"duplicate grid key {task.key!r}")
        outstanding[task.key] = index
    count = resolve_jobs(opts.jobs)
    timeout = resolve_timeout(opts.timeout)
    collect = opts.failures == "collect"
    obs.count(f"grid.{label}.units", len(tasks))

    results: list = [None] * len(tasks)
    if not tasks:
        return results

    def record_failure(index: int, payload, wall_s, attempts) -> None:
        failure = _make_failure(tasks[index].key, payload, wall_s, attempts)
        obs.count(f"grid.{label}.failures")
        obs.count("grid.failed_units")
        if payload.get("type") == "GridTimeout":
            obs.count("grid.timeouts")
        if not collect:
            raise reconstruct_error(payload)
        results[index] = failure
        if opts.collector is not None:
            opts.collector.add(failure)

    backend, owned = _resolve_backend(opts, count, len(tasks))
    if backend.backend != "inprocess":
        probe = backend.probe()
        obs.count(f"grid.{label}.workers", probe.workers or count)

    # global fault counters are bumped inside the backends; snapshot them
    # so each grid label also gets its own slice of them
    label_slices = {
        "grid.pool_rebuilds": f"grid.{label}.pool_rebuilds",
        "grid.retried_units": f"grid.{label}.retries",
    }
    trace = obs.current_trace()
    counters = trace.counters if trace is not None else {}
    before = {name: counters.get(name, 0) for name in label_slices}

    try:
        for task in tasks:
            backend.submit(task, timeout)
        while outstanding:
            event = backend.next_event(timeout=POLL)
            if event is None:
                continue
            index = outstanding.pop(event.key, None)
            if index is None:
                continue  # stale: an aborted run's echo on a shared backend
            if event.metrics is not None and trace is not None:
                trace.merge_summary(event.metrics)
            if event.ok:
                results[index] = event.value
            else:
                record_failure(
                    index, event.value, event.wall_s, event.attempts
                )
    except BaseException:
        # failures="raise", KeyboardInterrupt, ... — don't wait for
        # stragglers
        for key in outstanding:
            backend.cancel(key)
        if not owned:
            _drain(backend, outstanding)
        raise
    finally:
        if trace is not None:
            for name, slice_name in label_slices.items():
                delta = trace.counters.get(name, 0) - before[name]
                if delta:
                    trace.count(slice_name, delta)
        if owned:
            backend.close()
    return results


def _drain(backend, outstanding, patience: float = 2.0):
    """Best-effort cleanup when aborting a run on a *shared* backend:
    soak up events for this run's keys so a later grid on the same
    executor cannot mistake them for its own."""
    deadline = time.monotonic() + patience
    while outstanding and time.monotonic() < deadline:
        event = backend.next_event(timeout=0.1)
        if event is None:
            probe = backend.probe()
            if not probe.queued and not probe.in_flight:
                return
            continue
        outstanding.pop(event.key, None)
