"""Execution backends for the evaluation grid.

See :mod:`repro.eval.executors.base` for the contract.  Backends:

``inprocess``
    :class:`InprocessAsyncExecutor` — serial, on the caller's thread,
    deterministic to the bit.  What ``jobs=1`` uses.
``local``
    :class:`LocalPoolExecutor` — a ProcessPoolExecutor with the grid's
    crash-retry semantics.  What ``jobs>1`` uses.
"""

from __future__ import annotations

from repro.eval.executors.base import (
    CRASH_PAYLOAD,
    Executor,
    ExecutorProbe,
    UnitEvent,
    resolve_jobs,
    resolve_timeout,
    run_unit,
    unit_deadline,
)
from repro.eval.executors.inprocess import InprocessAsyncExecutor
from repro.eval.executors.local import LocalPoolExecutor

__all__ = [
    "CRASH_PAYLOAD",
    "Executor",
    "ExecutorProbe",
    "InprocessAsyncExecutor",
    "LocalPoolExecutor",
    "UnitEvent",
    "resolve_executor",
    "resolve_jobs",
    "resolve_timeout",
    "run_unit",
    "unit_deadline",
]


def resolve_executor(spec: str, jobs: int | None = None) -> Executor:
    """Build a backend from a spec string (``repro serve --executor``).

    ``"inprocess"`` → serial in-process; ``"local"`` → process pool with
    ``jobs`` workers.
    """
    if spec == "inprocess":
        return InprocessAsyncExecutor()
    if spec == "local":
        return LocalPoolExecutor(workers=jobs)
    raise ValueError(
        f"unknown executor spec {spec!r}; want 'inprocess' or 'local'"
    )
