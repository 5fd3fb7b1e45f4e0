"""The trace recorder: a span tree plus typed counters.

A :class:`Trace` records *where time went* (nested, named spans with
attributes) and *what happened* (integer counters and phase aggregates).
One trace covers one activity — a single compilation, a simulation run,
or an entire evaluation sweep — and is activated with :func:`tracing`::

    trace = Trace("run k7")
    with tracing(trace):
        executable = repro.compile_c(source, "r2000")
        repro.simulate(executable, "bench", options=SimOptions(trace=True))
    trace.write(path)                  # plain JSON
    trace.write(path, format="chrome") # chrome://tracing / Perfetto

Activation uses a :mod:`contextvars` variable: traces nest (the previous
trace is restored on exit) and parallel workers stay isolated — a thread
or a forked grid worker activating its own trace never sees, or writes
into, another worker's span tree.

Everything the trace records is wall-clock (``time.perf_counter``) and
process-local.  The picklable :meth:`Trace.summary` carries a trace's
aggregates across the evaluation grid's process boundary; the span tree
itself stays in the worker (ship the JSON export if you need it).
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region: a node of the trace's span tree."""

    name: str
    start: float  # perf_counter seconds
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self, epoch: float) -> dict:
        out = {
            "name": self.name,
            "start_us": round((self.start - epoch) * 1e6),
            "dur_us": round(self.seconds * 1e6),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_json(epoch) for c in self.children]
        return out


class Trace:
    """A span tree plus typed counters for one traced activity.

    The aggregate views (``counters``, ``phase_seconds``, ``phase_calls``)
    accumulate by name across the whole trace — they are what
    :meth:`summary` ships across process boundaries.
    """

    __slots__ = (
        "name",
        "epoch",
        "root",
        "counters",
        "phase_seconds",
        "phase_calls",
        "_stack",
    )

    def __init__(self, name: str = "trace"):
        self.name = name
        self.epoch = time.perf_counter()
        self.root = Span(name, start=self.epoch)
        self.counters: dict[str, int] = {}
        self.phase_seconds: dict[str, float] = {}
        self.phase_calls: dict[str, int] = {}
        self._stack: list[Span] = [self.root]

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the innermost open span."""
        node = Span(name, start=time.perf_counter(), attrs=attrs)
        parent = self._stack[-1]
        parent.children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            self._stack.pop()
            self.add_seconds(name, node.end - node.start)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_seconds(self, name: str, seconds: float) -> None:
        """Credit wall time to a phase aggregate (no span node)."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def close(self) -> None:
        """End the root span (open spans further down are left as-is)."""
        if self.root.end is None:
            self.root.end = time.perf_counter()

    # -- aggregation across processes --------------------------------------

    def summary(self) -> dict:
        """A picklable/JSON-ready aggregate view (no span tree).

        This is what a grid unit ships back on ``UnitEvent.metrics``,
        and what ``repro report --format json`` prints as ``counters``
        and ``phases``.
        """
        return {
            "phases": {
                name: {
                    "seconds": round(seconds, 6),
                    "calls": self.phase_calls.get(name, 0),
                }
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def merge_summary(self, summary: dict) -> None:
        """Fold another trace's :meth:`summary` into this one.

        This is how the evaluation grid carries a unit's metrics back:
        the unit trace's aggregates serialize as a plain dict, and the
        grid merges them into the trace active around it.
        """
        if not summary:
            return
        for name, value in summary.get("counters", {}).items():
            self.count(name, value)
        for name, entry in summary.get("phases", {}).items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + entry.get("seconds", 0.0)
            )
            self.phase_calls[name] = (
                self.phase_calls.get(name, 0) + entry.get("calls", 0)
            )

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        """The full trace — span tree, counters and phase aggregates."""
        self.close()
        return {
            "name": self.name,
            "spans": self.root.to_json(self.epoch),
            **self.summary(),
        }

    def to_chrome_json(self) -> dict:
        """The Chrome ``trace_event`` format (load in ``chrome://tracing``
        or https://ui.perfetto.dev): one complete ('X') event per span,
        counters attached to the root event's args."""
        self.close()
        pid = os.getpid()
        events = []
        for span in self.root.walk():
            event = {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - self.epoch) * 1e6, 1),
                "dur": round(span.seconds * 1e6, 1),
                "pid": pid,
                "tid": 1,
            }
            if span.attrs:
                event["args"] = {
                    key: value for key, value in span.attrs.items()
                }
            events.append(event)
        if self.counters:
            events[0].setdefault("args", {})["counters"] = dict(
                sorted(self.counters.items())
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, format: str = "json") -> None:
        """Serialize to ``path`` as ``"json"`` or ``"chrome"``."""
        if format not in ("json", "chrome"):
            raise ValueError(
                f"unknown trace format {format!r}; known: json, chrome"
            )
        payload = self.to_json() if format == "json" else self.to_chrome_json()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=(format == "json"))
            handle.write("\n")


# -- ambient trace (contextvars) -------------------------------------------

_current: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> Trace | None:
    """The trace active in this context, or ``None``."""
    return _current.get()


@contextmanager
def tracing(trace: Trace):
    """Activate ``trace`` for the duration of the block (re-entrant:
    the previously active trace, if any, is restored on exit)."""
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)
        trace.close()


@contextmanager
def span(name: str, **attrs):
    """Open a span on the ambient trace; a no-op when tracing is off."""
    trace = _current.get()
    if trace is None:
        yield None
        return
    with trace.span(name, **attrs) as node:
        yield node


def count(name: str, amount: int = 1) -> None:
    """Bump a counter on the ambient trace; a no-op when tracing is off."""
    trace = _current.get()
    if trace is not None:
        trace.count(name, amount)
