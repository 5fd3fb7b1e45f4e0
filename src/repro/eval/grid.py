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
  otherwise; a spec string (``"local"``, ``"inprocess"``, ``"socket"``,
  ``"socket:HOST:PORT"``) builds a backend owned (and closed) by this
  call; an :class:`~repro.eval.executors.Executor` *instance* is used
  as-is and left open, so one warm pool or socket fleet can serve many
  grids;
* **per-unit timeout** (``timeout`` / ``REPRO_UNIT_TIMEOUT``): each unit
  runs under a ``SIGALRM`` deadline in its worker and raises
  :class:`~repro.errors.GridTimeout` when it blows its wall-clock
  budget;
* **crash containment** (``retries`` / ``backoff``): a worker lost to a
  SIGKILL/segfault costs only its in-flight units — the backend retries
  them (pool rebuild, or adoption by a surviving socket worker) and
  only after ``retries`` extra attempts turns them into failures;
* **structured failures** (``failures="collect"``): instead of raising
  in the parent, a failed unit yields a :class:`GridFailure` in its
  result slot, carrying the serialized ``repro.errors`` taxonomy
  across the process boundary; collected failures land on the run's
  :class:`FailureCollector` (``collector=``), not in module-global
  state, so concurrent or nested grids cannot corrupt each other;
* **checkpoint/resume** (``journal``): completed units are appended to a
  :class:`~repro.eval.journal.Journal` (attributed to the worker that
  ran them) and skipped on the next run;
* **work-stealing** (``steal``): a unit whose wall clock exceeds
  ``STEAL_FACTOR`` × the p90 of completed units is speculatively
  resubmitted to an idle worker; the first completion event per key
  wins and the loser is discarded, so results stay deterministic —
  stealing changes *when* a value arrives, never *which* value fills
  the slot;
* **sharding** (``shard="K/N"``): only units whose key hashes to shard
  ``K`` of ``N`` run; the rest get inert ``ShardSkipped`` placeholders
  (not journalled, not collected).  N shard runs against one shared
  journal, then a merge run, reproduce the full tables.

Work units must be *top-level callables with picklable arguments and
results* (the local pool forks, so a parent that has already warmed the
target-build cache hands each worker a warm cache for free; socket
workers pull from the persistent artifact cache instead).

The job count resolves, in order: the explicit ``jobs`` option, the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from typing import Any, Callable, Sequence

from repro.errors import reconstruct_error
from repro.eval.executors import (
    CRASH_PAYLOAD,
    Executor,
    InprocessAsyncExecutor,
    LocalPoolExecutor,
    resolve_executor,
    resolve_jobs,
    resolve_timeout,
    run_unit,
    unit_deadline,
)
from repro.eval.journal import MISSING, Journal
from repro.options import UNSET, merge_legacy_kwargs
from repro.utils import timing

# back-compat aliases: these lived here before the executor layer
_run_unit = run_unit
_unit_deadline = unit_deadline
_CRASH_PAYLOAD = CRASH_PAYLOAD

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

    ``batch_key`` opts the unit into batched dispatch: under
    ``GridOptions(batch=N)``, up to N pending units sharing the same
    non-empty ``batch_key`` run inside one worker task (see
    :func:`repro.eval.common.run_batch`), sharing that process's warmed
    executable memo.  Journalling, failure containment and result slots
    stay per-unit.  The empty default leaves the unit unbatched.
    """

    key: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    batch_key: str = ""

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


def resolve_batch(batch: int | None) -> int:
    """Resolve the batch width: argument, else ``REPRO_BATCH``, else 1."""
    if batch is None:
        import os

        env = os.environ.get("REPRO_BATCH", "").strip()
        if not env:
            return 1
        try:
            batch = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_BATCH must be an integer, got {env!r}"
            ) from None
    return max(1, int(batch))


def parse_shard(shard: str | None) -> tuple[int, int] | None:
    """``"K/N"`` → ``(K, N)`` with ``1 <= K <= N``; ``None`` passes."""
    if shard is None:
        return None
    try:
        k_text, _, n_text = str(shard).partition("/")
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise ValueError(
            f"bad shard spec {shard!r}: want 'K/N' (e.g. '2/4')"
        ) from None
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"bad shard spec {shard!r}: want 1 <= K <= N")
    return k, n


def shard_owns(key: str, k: int, n: int) -> bool:
    """Stable key→shard assignment: sha256, not ``hash()`` (which is
    salted per process and would scatter units across runs)."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % n == k - 1


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
    * ``executor`` — ``None`` (auto), a backend spec string, or a live
      :class:`~repro.eval.executors.Executor` to reuse across grids;
    * ``shard`` — ``"K/N"`` to run only this run's slice of the grid;
    * ``collector`` — the :class:`FailureCollector` receiving collected
      failures (``None``: a process-wide default);
    * ``steal`` — speculatively resubmit straggler units to idle
      workers (deterministic: first event per key wins);
    * ``batch`` — run up to this many pending units sharing a
      ``GridTask.batch_key`` inside one worker task, so they share a
      warmed per-process executable memo (``None``: ``REPRO_BATCH`` or
      1; 1 disables batching).  Results, journal entries and failures
      stay per-unit.
    """

    jobs: int | None = None
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.25
    failures: str = "raise"
    journal: Journal | None = None
    executor: str | Executor | None = None
    shard: str | None = None
    collector: FailureCollector | None = None
    steal: bool = True
    batch: int | None = None

    def __post_init__(self) -> None:
        if self.failures not in ("raise", "collect"):
            raise ValueError(
                f"GridOptions.failures must be 'raise' or 'collect', "
                f"got {self.failures!r}"
            )
        if self.batch is not None and int(self.batch) < 1:
            raise ValueError(
                f"GridOptions.batch must be >= 1, got {self.batch!r}"
            )
        parse_shard(self.shard)  # validate eagerly


def with_jobs(
    options: GridOptions | None, jobs: int | None
) -> GridOptions:
    """Fold a caller-level ``jobs`` override into an options record.

    The internal migration shim for section entry points that keep a
    ``jobs`` convenience parameter: :func:`run_grid` itself takes only
    ``options`` now.
    """
    opts = options if options is not None else GridOptions()
    if jobs is not None and jobs != opts.jobs:
        opts = dataclasses_replace(opts, jobs=jobs)
    return opts


def derive_key(fn: Callable, args: tuple, kwargs: dict) -> str:
    """A best-effort stable key for units given as bare callables/tuples."""
    name = getattr(fn, "__qualname__", None) or repr(fn)
    module = getattr(fn, "__module__", "")
    inside = ",".join(
        [repr(a) for a in args]
        + [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
    )
    prefix = f"{module}." if module else ""
    return f"{prefix}{name}({inside})"


def _as_task(unit) -> GridTask:
    if isinstance(unit, GridTask):
        return unit
    if callable(unit):
        return GridTask(derive_key(unit, (), {}), unit)
    fn, *rest = unit
    args = tuple(rest[0]) if rest else ()
    kwargs = dict(rest[1]) if len(rest) > 1 else {}
    return GridTask(derive_key(fn, args, kwargs), fn, args, kwargs)


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
    spec = opts.executor
    if isinstance(spec, Executor):
        return spec, False
    if isinstance(spec, str):
        return resolve_executor(spec, opts.jobs), True
    if spec is not None:
        raise TypeError(
            f"GridOptions.executor must be None, a spec string, or an "
            f"Executor, got {type(spec).__name__}"
        )
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
    jobs=UNSET,
) -> list:
    """Run every work unit; results come back in submission order.

    ``units`` may hold :class:`GridTask` instances, bare callables, or
    ``(fn, args)`` / ``(fn, args, kwargs)`` tuples.  All configuration
    rides on one :class:`GridOptions` record (backend, timeout, retries,
    failure policy, journal, shard, stealing).  ``jobs=1`` runs the
    units serially in-process (the deterministic fallback); ``jobs>1``
    fans out over the configured backend and gathers results by key.

    The pre-executor ``jobs=`` keyword has been removed; passing it
    raises :class:`TypeError` naming the ``GridOptions(jobs=...)``
    replacement.

    With the default ``failures="raise"`` a worker exception propagates
    to the caller, reconstructed from its serialized payload.
    """
    opts = merge_legacy_kwargs(
        options,
        {"jobs": jobs},
        where="run_grid",
        factory=GridOptions,
    )
    tasks = [_as_task(unit) for unit in units]
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

    shard = parse_shard(opts.shard)
    if shard is not None:
        k, n = shard
        skipped = 0
        for index in sorted(pending):
            task = pending[index]
            if not shard_owns(task.key, k, n):
                # an inert placeholder: not journalled, not collected —
                # the merge run re-runs (or resumes) these units
                results[index] = GridFailure(
                    key=task.key,
                    error_type="ShardSkipped",
                    message=f"unit not owned by shard {k}/{n}",
                )
                del pending[index]
                skipped += 1
        if skipped:
            timing.add(f"grid.{label}.shard_skipped", skipped)
            timing.add("grid.shard_skipped", skipped)

    # batched dispatch: fold pending units sharing a batch_key into
    # composite run_batch tasks; slots, journal entries and failures
    # stay per-member, so tables and resume cannot tell
    composite_members: dict[str, list[int]] = {}
    batch = resolve_batch(opts.batch)
    if batch > 1:
        from repro.eval.common import run_batch

        groups: dict[str, list[int]] = {}
        for index in sorted(pending):
            group_key = tasks[index].batch_key
            if group_key:
                groups.setdefault(group_key, []).append(index)
        serial = 0
        batched_units = 0
        for group_key, members in sorted(groups.items()):
            for start in range(0, len(members), batch):
                chunk = members[start:start + batch]
                if len(chunk) < 2:
                    continue
                composite = GridTask(
                    f"{label}/batch:{group_key}#{serial}",
                    run_batch,
                    (
                        [
                            (
                                tasks[i].fn,
                                tasks[i].args,
                                dict(tasks[i].kwargs),
                            )
                            for i in chunk
                        ],
                    ),
                )
                serial += 1
                batched_units += len(chunk)
                composite_members[composite.key] = chunk
                for i in chunk:
                    del pending[i]
                pending[chunk[0]] = composite
        if batched_units:
            timing.add(f"grid.{label}.batched_units", batched_units)
            timing.add("grid.batched_units", batched_units)

    def record_ok(index: int, value, wall_s: float, by: str = "") -> None:
        results[index] = value
        if journal is not None:
            journal.record_ok(tasks[index].key, value, wall_s, by=by)

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
        "grid.adopted_units": f"grid.{label}.adopted",
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
                if opts.steal:
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
            members = composite_members.get(event.key)
            if members is None:
                if event.ok:
                    record_ok(
                        index, event.value, event.wall_s, by=event.worker
                    )
                else:
                    record_failure(
                        index, event.value, event.wall_s, event.attempts
                    )
                continue
            # explode a composite back into its members' slots
            share = event.wall_s / len(members)
            payloads = event.value if event.ok else None
            if payloads is None or len(payloads) != len(members):
                # the whole batch died (timeout, crash, malformed
                # return): every member failed
                payload = (
                    event.value
                    if not event.ok
                    else {
                        "type": "GridBatchError",
                        "module": "repro.errors",
                        "message": "batched worker returned "
                        f"{0 if payloads is None else len(payloads)} "
                        f"results for {len(members)} units",
                    }
                )
                for member_index in members:
                    record_failure(member_index, payload, share, event.attempts)
                continue
            for member_index, (status, value) in zip(members, payloads):
                if status == "ok":
                    record_ok(member_index, value, share, by=event.worker)
                else:
                    record_failure(member_index, value, share, event.attempts)
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
