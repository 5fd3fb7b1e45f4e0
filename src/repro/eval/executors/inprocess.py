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
        task, deadline = self._queue.popleft()
        attempts = self._take_attempts(task.key)
        status, value, wall_s, metrics = run_unit(
            task.fn, task.args, task.kwargs, deadline
        )
        return UnitEvent(task.key, status, value, wall_s, metrics, attempts)

    def cancel(self, key: str) -> bool:
        kept = deque(item for item in self._queue if item[0].key != key)
        dropped = len(self._queue) - len(kept)
        self._queue = kept
        if dropped and not any(item[0].key == key for item in kept):
            self._attempts.pop(key, None)
        return dropped > 0

    def probe(self) -> ExecutorProbe:
        return ExecutorProbe(
            backend=self.backend,
            workers=1,
            idle=0,
            queued=len(self._queue),
            in_flight=0,
        )

    def close(self) -> None:
        self._queue.clear()
        self._attempts.clear()
