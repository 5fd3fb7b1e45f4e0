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
``section/target/strategy/kernel`` string) names the unit in journals,
failure cells and logs.  The façade owns everything that must behave
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
* **crash containment** (``retries`` / ``backoff``): a worker lost to a
  SIGKILL/segfault costs only its in-flight units — the pool is rebuilt
  and they are retried, and only after ``retries`` extra attempts do
  they turn into failures;
* **structured failures** (``failures="collect"``): instead of raising
  in the parent, a failed unit yields a :class:`GridFailure` in its
  result slot, carrying the serialized ``repro.errors`` taxonomy
  across the process boundary; collected failures land on the run's
  :class:`FailureCollector` (``collector=``), not in module-global
  state, so concurrent or nested grids cannot corrupt each other;
* **checkpoint/resume** (``journal``): completed units are appended to a
  :class:`~repro.eval.journal.Journal` and skipped on the next run;
* **work-stealing**: a unit whose wall clock exceeds ``STEAL_FACTOR`` ×
  the p90 of completed units is speculatively resubmitted to an idle
  worker; the first completion event per key wins and the loser is
  discarded, so results stay deterministic — stealing changes *when* a
  value arrives, never *which* value fills the slot.

Work units must be *top-level callables with picklable arguments and
results* (the local pool forks, so a parent that has already warmed the
target-build cache hands each worker a warm cache for free).

The job count resolves, in order: ``GridOptions.jobs``, the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from typing import Any, Callable, Sequence

from repro.errors import reconstruct_error
from repro.eval.executors import (
    Executor,
    InprocessAsyncExecutor,
    LocalPoolExecutor,
    resolve_jobs,
    resolve_timeout,
)
from repro.eval.journal import MISSING, Journal
from repro.utils import timing

#: seconds between event polls — each poll is also a work-stealing tick
POLL = 0.2
#: completed-unit wall samples needed before the p90 estimate is trusted
STEAL_MIN_SAMPLES = 5
#: a unit is a straggler past ``STEAL_FACTOR`` × the p90 wall estimate
STEAL_FACTOR = 1.5
#: never steal units younger than this many seconds
STEAL_FLOOR = 0.25


@dataclass(frozen=True)
class GridTask:
    """One keyed unit of evaluation work: ``fn(*args, **kwargs)``.

    ``key`` is the unit's stable identity — the same string the journal
    records, failure cells display and resume matches on.  Keys follow
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

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


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
    single collector through all of its sections); grids given no
    collector fall back to a module-default sink that nothing reads.
    """

    def __init__(self) -> None:
        self._failures: list[GridFailure] = []

    def add(self, failure: GridFailure) -> None:
        self._failures.append(failure)

    def reset(self) -> None:
        del self._failures[:]

    def failures(self) -> list[GridFailure]:
        return list(self._failures)

    def __len__(self) -> int:
        return len(self._failures)


#: fallback collector for grids run without an explicit ``collector=``
#: (the deprecated ``reset_failures``/``collected_failures`` aliases
#: that used to read it are gone — build a :class:`FailureCollector`)
_default_collector = FailureCollector()


@dataclass(frozen=True)
class GridOptions:
    """Consolidated knobs for one grid run.

    * ``jobs`` — worker processes (``None``: ``REPRO_JOBS`` or cpu count);
    * ``timeout`` — per-unit wall-clock seconds (``None``:
      ``REPRO_UNIT_TIMEOUT`` or unlimited);
    * ``retries`` — extra attempts for units lost to a dead worker;
    * ``backoff`` — seconds to wait before rebuilding a broken local
      pool (doubles per rebuild);
    * ``failures`` — ``"raise"`` re-raises the first failure in the
      parent (the pre-1.1 behaviour); ``"collect"`` puts a
      :class:`GridFailure` in the unit's result slot and keeps going;
    * ``journal`` — a :class:`~repro.eval.journal.Journal` to checkpoint
      completed units into and resume from;
    * ``executor`` — ``None`` (in-process for one job, else a local
      pool owned by the run), or a live
      :class:`~repro.eval.executors.Executor` to reuse across grids;
    * ``collector`` — the :class:`FailureCollector` receiving collected
      failures (``None``: a process-wide default).
    """

    jobs: int | None = None
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.25
    failures: str = "raise"
    journal: Journal | None = None
    executor: Executor | None = None
    collector: FailureCollector | None = None

    def __post_init__(self) -> None:
        if self.failures not in ("raise", "collect"):
            raise ValueError(
                f"GridOptions.failures must be 'raise' or 'collect', "
                f"got {self.failures!r}"
            )


def with_jobs(
    options: GridOptions | None, jobs: int | None
) -> GridOptions:
    """Fold a caller-level ``jobs`` override into an options record, for
    section entry points that keep a ``jobs`` convenience parameter."""
    opts = options if options is not None else GridOptions()
    if jobs is not None and jobs != opts.jobs:
        opts = dataclasses_replace(opts, jobs=jobs)
    return opts


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
    return (
        LocalPoolExecutor(
            workers=min(count, pending),
            retries=opts.retries,
            backoff=opts.backoff,
        ),
        True,
    )


def _percentile_90(samples: list) -> float:
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(len(ranked) * 0.9))]


def run_grid(
    units: Sequence,
    options: GridOptions | None = None,
    *,
    label: str = "grid",
) -> list:
    """Run every :class:`GridTask`; results come back in submission order.

    All configuration rides on one :class:`GridOptions` record (backend,
    timeout, retries, failure policy, journal).  ``jobs=1`` runs the
    units serially in-process (the deterministic fallback); ``jobs>1``
    fans out over a local process pool and gathers results by key.

    With the default ``failures="raise"`` a worker exception propagates
    to the caller, reconstructed from its serialized payload.
    """
    opts = options if options is not None else GridOptions()
    tasks = list(units)
    seen: set[str] = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate grid key {task.key!r}")
        seen.add(task.key)
    count = resolve_jobs(opts.jobs)
    timeout = resolve_timeout(opts.timeout)
    journal = opts.journal
    collect = opts.failures == "collect"
    collector = opts.collector if opts.collector is not None else _default_collector
    timing.add(f"grid.{label}.units", len(tasks))

    results: list = [MISSING] * len(tasks)
    pending: dict[int, GridTask] = {}
    for index, task in enumerate(tasks):
        cached = journal.lookup(task.key) if journal is not None else MISSING
        if cached is not MISSING:
            results[index] = cached
        else:
            pending[index] = task
    resumed = len(tasks) - len(pending)
    if resumed:
        timing.add(f"grid.{label}.resumed", resumed)
        timing.add("grid.resumed_units", resumed)

    def record_ok(index: int, value, wall_s: float) -> None:
        results[index] = value
        if journal is not None:
            journal.record_ok(tasks[index].key, value, wall_s)

    def record_failure(index: int, payload, wall_s, attempts) -> None:
        task = tasks[index]
        failure = _make_failure(task.key, payload, wall_s, attempts)
        if journal is not None:
            journal.record_failure(task.key, payload, wall_s, attempts)
        timing.add(f"grid.{label}.failures")
        timing.add("grid.failed_units")
        if payload.get("type") == "GridTimeout":
            timing.add("grid.timeouts")
        if not collect:
            raise reconstruct_error(payload)
        results[index] = failure
        collector.add(failure)

    if not pending:
        return results

    backend, owned = _resolve_backend(opts, count, len(pending))
    if backend.backend != "inprocess":
        probe = backend.probe()
        timing.add(f"grid.{label}.workers", probe.workers or count)

    # global fault counters are bumped inside the backends; snapshot them
    # so each grid label also gets its own slice of them
    label_slices = {
        "grid.pool_rebuilds": f"grid.{label}.pool_rebuilds",
        "grid.retried_units": f"grid.{label}.retries",
        "grid.stolen_units": f"grid.{label}.stolen",
    }
    before = (
        {name: timing.counter(name) for name in label_slices}
        if timing.ENABLED
        else {}
    )

    outstanding: dict[str, int] = {}
    try:
        for index, task in sorted(pending.items()):
            backend.submit(task, timeout)
            outstanding[task.key] = index

        walls: list[float] = []
        stolen: set[str] = set()
        while outstanding:
            event = backend.next_event(timeout=POLL)
            if event is None:
                _maybe_steal(
                    backend, outstanding, pending, walls, stolen, timeout
                )
                continue
            index = outstanding.pop(event.key, None)
            if index is None:
                continue  # stale: a steal loser or an aborted run's echo
            if event.metrics is not None:
                timing.merge(event.metrics)
            walls.append(event.wall_s)
            if event.key in stolen:
                backend.cancel(event.key)  # drop the losing queued copy
            if event.ok:
                record_ok(index, event.value, event.wall_s)
            else:
                record_failure(
                    index, event.value, event.wall_s, event.attempts
                )
    except BaseException:
        # failures="raise", KeyboardInterrupt, ... — don't wait for
        # stragglers, the journal already holds everything completed
        for key in outstanding:
            backend.cancel(key)
        if not owned:
            _drain(backend, outstanding)
        raise
    finally:
        if timing.ENABLED:
            for name, slice_name in label_slices.items():
                delta = timing.counter(name) - before.get(name, 0)
                if delta:
                    timing.add(slice_name, delta)
        if owned:
            backend.close()
    return results


def _maybe_steal(backend, outstanding, pending, walls, stolen, timeout):
    """One work-stealing tick: at most one straggler is resubmitted.

    Deterministic by construction: a stolen key yields two completion
    events carrying the *same* deterministic unit value; the façade
    keeps whichever arrives first and the result tables cannot tell.
    """
    if len(walls) < STEAL_MIN_SAMPLES:
        return
    probe = backend.probe()
    if probe.idle <= 0:
        return
    threshold = max(_percentile_90(walls) * STEAL_FACTOR, STEAL_FLOOR)
    tasks_by_key = {task.key: task for task in pending.values()}
    for key, elapsed in sorted(
        backend.running().items(), key=lambda item: -item[1]
    ):
        if elapsed <= threshold or key in stolen or key not in outstanding:
            continue
        task = tasks_by_key.get(key)
        if task is None:
            continue
        backend.submit(task, timeout)
        stolen.add(key)
        timing.add("grid.stolen_units")
        return


def _drain(backend, outstanding, patience: float = 2.0):
    """Best-effort cleanup when aborting a run on a *shared* backend:
    soak up events for this run's keys so a later grid on the same
    executor cannot mistake them for its own."""
    import time as _time

    deadline = _time.monotonic() + patience
    while outstanding and _time.monotonic() < deadline:
        event = backend.next_event(timeout=0.1)
        if event is None:
            probe = backend.probe()
            if not probe.queued and not probe.in_flight:
                return
            continue
        outstanding.pop(event.key, None)
