"""The executor contract: what every grid backend must provide.

The evaluation grid (:mod:`repro.eval.grid`) is a thin façade over this
interface, and so is the compile-and-simulate service
(:mod:`repro.serve`).  A backend accepts keyed work units, runs them
*somewhere* (in-process or on a local process pool) and streams
completion events back; the grid owns ordering and failure collection,
so both backends get those for free and stay behaviourally
interchangeable — the conformance suite (``tests/test_executors.py``)
runs one battery against each.

The contract, in full:

* :meth:`Executor.submit` — accept one :class:`~repro.eval.grid.GridTask`
  (duck-typed: ``key``/``fn``/``args``/``kwargs``) with an optional
  per-unit wall-clock budget and return its key.  Submitting the *same*
  key again is legal and means "run another copy" — the service
  resubmits a key whose request timed out while its unit still runs;
  one completion event arrives per copy.
* :meth:`Executor.next_event` — block up to ``timeout`` seconds for the
  next :class:`UnitEvent` (``None`` on timeout).  Events may arrive in
  any order; the grid re-orders by key.
* :meth:`Executor.cancel` — best-effort: drop every *queued* copy of a
  key.  Copies already running cannot be recalled (their events still
  arrive).
* :meth:`Executor.probe` — a capability/health snapshot
  (:class:`ExecutorProbe`): live workers, idle workers, queue depth.
* :meth:`Executor.close` — release workers/pools.  An executor is
  reusable across many ``run_grid`` calls until closed (the report runs
  every section against one executor, so pool workers stay warm).

Executors report unit *outcomes as data*: an exception inside a unit
becomes a ``status="err"`` event carrying the serialized
:mod:`repro.errors` payload, never a raise in the parent.  The worker
entry point that guarantees this, :func:`run_unit`, lives here beside
the ``SIGALRM`` deadline it arms.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.errors import GridTimeout, error_payload
from repro.obs import Trace, tracing


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a job count: argument, else ``REPRO_JOBS``, else cpu count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_timeout(timeout: float | None = None) -> float | None:
    """Resolve the per-unit timeout: argument, else ``REPRO_UNIT_TIMEOUT``.

    ``None`` or a non-positive value means no deadline.
    """
    if timeout is None:
        env = os.environ.get("REPRO_UNIT_TIMEOUT", "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_UNIT_TIMEOUT must be a number, got {env!r}"
            ) from None
    return timeout if timeout and timeout > 0 else None


@contextmanager
def unit_deadline(seconds: float | None):
    """Arm a ``SIGALRM`` deadline around one unit, when the platform and
    calling context allow it (main thread, Unix).  Pool workers execute
    units on their main thread, so the deadline is armed there even when
    the parent could not arm one for itself."""
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(_signum, _frame):
        raise GridTimeout(
            f"work unit exceeded its {seconds:g}s wall-clock budget",
            seconds=seconds,
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_unit(fn, args, kwargs, timeout):
    """Run one work unit under its own :class:`~repro.obs.Trace`; the
    entry point of every backend.

    Returns ``("ok", result, wall_s, metrics)`` or ``("err", payload,
    wall_s, metrics)`` where ``payload`` is an
    :func:`repro.errors.error_payload` — raising across the transport
    boundary would lose the taxonomy's detail fields — and ``metrics``
    is the unit trace's :meth:`~repro.obs.Trace.summary`, which the
    grid merges into the trace active around it.  A fresh trace per
    unit makes the summary a clean delta in a reused worker process and
    in the caller's own process alike.
    """
    trace = Trace("unit")
    start = time.perf_counter()
    try:
        with tracing(trace), unit_deadline(timeout):
            result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — the whole point is containment
        return ("err", error_payload(exc), time.perf_counter() - start,
                trace.summary())
    return ("ok", result, time.perf_counter() - start, trace.summary())


#: payload standing in for a unit whose worker died without reporting
CRASH_PAYLOAD = {
    "type": "WorkerCrash",
    "module": "repro.errors",
    "message": "worker process died (killed or crashed) while running "
    "this unit or its pool-mate",
}


@dataclass
class UnitEvent:
    """One completed copy of a work unit, as reported by a backend.

    ``status`` is ``"ok"`` (``value`` is the unit's result) or ``"err"``
    (``value`` is an :func:`repro.errors.error_payload` dict — including
    the synthetic ``WorkerCrash`` payload for units whose worker died
    past the retry budget).  ``metrics`` is the unit trace's summary
    (``None`` when the unit never reported); ``attempts`` counts how
    many times the backend dispatched the key.
    """

    key: str
    status: str
    value: Any = None
    wall_s: float = 0.0
    metrics: dict | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ExecutorProbe:
    """A point-in-time capability/health snapshot of a backend.

    ``workers`` counts live workers, ``idle`` those with nothing
    assigned, ``queued`` units waiting for a worker and ``in_flight``
    units dispatched but unreported.
    ``healthy`` is the backend's own verdict — a closed pool reports
    ``False``.
    """

    backend: str
    workers: int
    idle: int
    queued: int
    in_flight: int
    healthy: bool = True


class Executor(ABC):
    """Abstract base for grid execution backends (see the module doc for
    the full contract).  Concrete backends: ``LocalPoolExecutor`` and
    ``InprocessAsyncExecutor``."""

    backend = "abstract"

    @abstractmethod
    def submit(self, task, timeout: float | None = None) -> str:
        """Accept one keyed work unit; return its key immediately."""

    @abstractmethod
    def next_event(self, timeout: float | None = None) -> UnitEvent | None:
        """The next completion event, or ``None`` after ``timeout``
        seconds with nothing to report (``timeout=None`` blocks until an
        event arrives; returns ``None`` only when nothing is pending)."""

    @abstractmethod
    def cancel(self, key: str) -> bool:
        """Drop every queued copy of ``key``; True if anything was
        dropped.  Running copies are unaffected."""

    @abstractmethod
    def probe(self) -> ExecutorProbe:
        """Capability/health snapshot."""

    def close(self) -> None:
        """Release workers and transports; the executor is dead after."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
