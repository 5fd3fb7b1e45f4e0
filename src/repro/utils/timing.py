"""Ambient process metrics: a thin adapter over :mod:`repro.obs`.

This module keeps the lightweight phase-timer/counter API the hot paths
were built against (PR 1), but the recorder behind it is now an
:class:`repro.obs.trace.Trace` — one process-wide trace holding only
aggregates.  The evaluation harness turns instrumentation on with
:func:`enable`; hot paths guard every record with the module-level
``ENABLED`` boolean so the disabled cost stays one attribute load and a
branch.

Usage::

    from repro.utils import timing

    timing.enable()
    with timing.phase("compile.frontend"):
        ...
    timing.add("target_cache.hit")
    print(timing.snapshot())

Relationship to :mod:`repro.obs`: an obs :class:`~repro.obs.trace.Trace`
scopes one *activity* and is activated per-context; this module is the
*process-wide* metrics sink that ``repro report --format json`` and
``/v1/stats`` read.  Counters
and phase timings are process-local: worker processes of the parallel
harness each keep their own recorder, and the grid carries each worker's
:func:`snapshot` back for the parent to :func:`merge`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.trace import Trace

#: instrumentation master switch — read directly by hot paths
ENABLED = False

_recorder = Trace("timing")


def enable(on: bool = True) -> None:
    """Turn instrumentation on (or off with ``enable(False)``)."""
    global ENABLED
    ENABLED = on


def enabled() -> bool:
    return ENABLED


def reset() -> None:
    """Drop all recorded data (the enabled flag is left alone)."""
    global _recorder
    _recorder = Trace("timing")


def recorder() -> Trace:
    """The process-wide aggregate recorder (an obs Trace)."""
    return _recorder


@contextmanager
def phase(name: str):
    """Time a named phase; a no-op (beyond one branch) when disabled."""
    if not ENABLED:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        _recorder.add_seconds(name, time.perf_counter() - start)


def add(name: str, amount: int = 1) -> None:
    """Bump a named counter (no-op when disabled)."""
    if ENABLED:
        _recorder.count(name, amount)


def add_seconds(name: str, seconds: float) -> None:
    """Credit wall time to a phase without the context-manager overhead."""
    if ENABLED:
        _recorder.add_seconds(name, seconds)


def counter(name: str) -> int:
    return _recorder.counters.get(name, 0)


def merge(summary: dict) -> None:
    """Fold a worker's :func:`snapshot` into this process's recorder."""
    _recorder.merge_summary(summary)


class Stopwatch:
    """A tiny always-on wall-clock timer.

    Unlike :func:`phase`/:func:`add_seconds`, a stopwatch measures even
    when instrumentation is disabled — the fault-tolerant grid stamps
    every unit result and journal record with its wall time regardless
    of whether the perf recorder is on.
    """

    __slots__ = ("start",)

    def __init__(self) -> None:
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self.start

    def restart(self) -> None:
        self.start = time.perf_counter()


def stopwatch() -> Stopwatch:
    """Start and return a new :class:`Stopwatch`."""
    return Stopwatch()


def snapshot() -> dict:
    """A JSON-ready copy of everything recorded so far."""
    return _recorder.summary()
