"""The in-process backend: serial, deterministic, zero pickling.

``InprocessAsyncExecutor`` queues submissions and runs them one at a
time *inside* :meth:`next_event` — execution is deferred to the drain
loop, not performed at submit time, which is what makes cancellation of
queued units meaningful on a serial backend.  Units run on the caller's
thread in submission order through the same
:func:`~repro.eval.executors.base.run_unit` as pool workers, so each
unit's counters arrive as its own trace summary on either backend: no
worker processes, no pickling.

This is the backend ``run_grid`` picks for ``jobs=1`` (the reference
every parallel backend must match byte-for-byte) and the one the
conformance suite uses to pin expected semantics.
"""

from __future__ import annotations

from collections import deque

from repro.eval.executors.base import (
    Executor,
    ExecutorProbe,
    UnitEvent,
    run_unit,
)


class InprocessAsyncExecutor(Executor):
    backend = "inprocess"

    def __init__(self):
        self._queue: deque = deque()
        self._attempts: dict[str, int] = {}  # key -> queued-copy dispatches
        #: 1 while next_event runs a unit: the caller's thread runs it,
        #: and a probe from another thread counts it as in flight
        self._running = 0

    def submit(self, task, timeout: float | None = None) -> str:
        self._queue.append((task, timeout))
        self._attempts[task.key] = self._attempts.get(task.key, 0) + 1
        return task.key

    def _take_attempts(self, key: str) -> int:
        attempts = self._attempts.get(key, 1)
        if not any(item[0].key == key for item in self._queue):
            self._attempts.pop(key, None)
        return attempts

    def next_event(self, timeout: float | None = None) -> UnitEvent | None:
        if not self._queue:
            return None
        # running before it leaves the queue, so a probe that reads the
        # queue first always sees the unit in one place or the other
        self._running = 1
        try:
            task, deadline = self._queue.popleft()
            attempts = self._take_attempts(task.key)
            status, value, wall_s, metrics = run_unit(
                task.fn, task.args, task.kwargs, deadline
            )
        finally:
            self._running = 0
        return UnitEvent(task.key, status, value, wall_s, metrics, attempts)

    def cancel(self, key: str) -> bool:
        kept = deque(item for item in self._queue if item[0].key != key)
        dropped = len(self._queue) - len(kept)
        self._queue = kept
        if dropped and not any(item[0].key == key for item in kept):
            self._attempts.pop(key, None)
        return dropped > 0

    def probe(self) -> ExecutorProbe:
        # the one worker is idle only with nothing queued or running
        queued = len(self._queue)
        running = self._running
        return ExecutorProbe(
            backend=self.backend,
            workers=1,
            idle=0 if queued or running else 1,
            queued=queued,
            in_flight=running,
        )

    def close(self) -> None:
        self._queue.clear()
        self._attempts.clear()
