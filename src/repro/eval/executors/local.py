"""The local process-pool backend.

``LocalPoolExecutor`` wraps a :class:`concurrent.futures.ProcessPoolExecutor`
and carries over the grid's pre-executor fault semantics unchanged:

* each unit runs under :func:`~repro.eval.executors.base.run_unit`
  (``SIGALRM`` deadline in the worker, outcome-as-data, per-unit metrics
  snapshot);
* a worker lost to a SIGKILL/segfault breaks the whole pool; the
  executor rebuilds it (``grid.pool_rebuilds``), resubmits every unit
  that never reported back (``grid.retried_units``) after a doubling
  backoff, and turns survivors into ``WorkerCrash`` events only once a
  key exhausts its ``retries`` budget;
* with the default ``fork`` start method workers inherit the parent's
  warm in-process caches at pool creation, and the persistent artifact
  cache covers everything else;
* a worker exits on its own once its parent is gone (a SIGKILLed
  parent cannot shut its pool down, and a worker blocked on the call
  queue would otherwise wait forever).

Unlike the pre-executor grid, the pool persists across ``run_grid``
calls until :meth:`close` — the report drives all of its sections
through one executor, so workers stay warm (JIT segments, target cache)
from section to section instead of being forked fresh per table.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures.process import BrokenProcessPool

from repro.errors import error_payload
from repro.eval.executors.base import (
    CRASH_PAYLOAD,
    Executor,
    ExecutorProbe,
    UnitEvent,
    resolve_jobs,
    run_unit,
)
import repro.obs as obs

#: seconds between a pool worker's checks that its parent is alive
ORPHAN_POLL = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: exit this worker once it is re-parented, which
    is what happens when the process that forked it dies."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(ORPHAN_POLL)
        os._exit(1)

    threading.Thread(target=watch, name="orphan-watch", daemon=True).start()


class LocalPoolExecutor(Executor):
    backend = "local"

    def __init__(
        self,
        workers: int | None = None,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        self.workers = resolve_jobs(workers)
        self.retries = retries
        self._backoff = backoff
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict = {}  # Future -> key
        self._attempts: dict[str, int] = {}  # key -> dispatch count
        self._tasks: dict = {}  # key -> (task, timeout), for resubmission
        self._copies: dict[str, int] = {}  # key -> live future count
        self._events: deque = deque()
        self._closed = False

    # -- dispatch ----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_exit_with_parent
            )
        return self._pool

    def submit(self, task, timeout: float | None = None) -> str:
        if self._closed:
            raise RuntimeError("executor is closed")
        self._tasks[task.key] = (task, timeout)
        self._dispatch(task.key)
        return task.key

    def _dispatch(self, key: str) -> None:
        task, timeout = self._tasks[key]
        self._attempts[key] = self._attempts.get(key, 0) + 1
        future = self._ensure_pool().submit(
            run_unit, task.fn, task.args, task.kwargs, timeout
        )
        self._futures[future] = key
        self._copies[key] = self._copies.get(key, 0) + 1

    def _finish_copy(self, key: str) -> None:
        remaining = self._copies.get(key, 1) - 1
        if remaining <= 0:
            self._copies.pop(key, None)
            self._tasks.pop(key, None)
            self._attempts.pop(key, None)
        else:
            self._copies[key] = remaining

    # -- events ------------------------------------------------------------

    def next_event(self, timeout: float | None = None) -> UnitEvent | None:
        while True:
            if self._events:
                return self._events.popleft()
            if not self._futures:
                return None
            done, _ = futures_wait(
                list(self._futures),
                timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                return None
            broken = False
            orphans: list[str] = []
            for future in done:
                key = self._futures.pop(future)
                attempts = self._attempts.get(key, 1)
                try:
                    status, payload, wall_s, metrics = future.result()
                except CancelledError:
                    self._finish_copy(key)
                    continue
                except BrokenProcessPool:
                    broken = True
                    orphans.append(key)
                    continue
                except BaseException as exc:  # e.g. an unpicklable result
                    self._events.append(
                        UnitEvent(
                            key, "err", error_payload(exc), 0.0, None, attempts
                        )
                    )
                    self._finish_copy(key)
                    continue
                self._events.append(
                    UnitEvent(key, status, payload, wall_s, metrics, attempts)
                )
                self._finish_copy(key)
            if broken:
                self._rebuild(orphans)

    def _rebuild(self, orphans: list[str]) -> None:
        """The pool broke: every in-flight unit is an orphan.  Resubmit
        the ones with retry budget left, crash-fail the rest."""
        obs.count("grid.pool_rebuilds")
        orphans.extend(self._futures.values())
        pool, self._pool = self._pool, None
        self._futures.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        time.sleep(self._backoff)
        self._backoff = min(self._backoff * 2, 5.0)
        for key in sorted(set(orphans)):
            attempts = self._attempts.get(key, 1)
            if attempts > self.retries:
                self._events.append(
                    UnitEvent(key, "err", dict(CRASH_PAYLOAD), 0.0, None, attempts)
                )
                # forget every lost copy of the key at once
                self._copies[key] = 1
                self._finish_copy(key)
            else:
                obs.count("grid.retried_units")
                self._copies[key] = self._copies.get(key, 1) - 1
                self._dispatch(key)

    # -- control -----------------------------------------------------------

    def cancel(self, key: str) -> bool:
        cancelled = False
        for future, owner in list(self._futures.items()):
            if owner == key and future.cancel():
                self._futures.pop(future, None)
                self._finish_copy(key)
                cancelled = True
        return cancelled

    def probe(self) -> ExecutorProbe:
        # a finished future stays in flight until next_event reports it
        queued = sum(
            1 for future in self._futures
            if not (future.running() or future.done())
        )
        return ExecutorProbe(
            backend=self.backend,
            workers=self.workers,
            idle=max(0, self.workers - len(self._futures)),
            queued=queued,
            in_flight=len(self._futures) - queued,
            healthy=not self._closed,
        )

    def close(self) -> None:
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._futures.clear()
        self._events.clear()
