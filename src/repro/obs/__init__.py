"""Structured observability: span traces, typed counters, stall taxonomy.

``repro.obs`` is the measurement substrate of the system.  It has two
cooperating layers:

* :class:`~repro.obs.trace.Trace` — a **span tree** plus typed counters
  for one traced activity (a compile, a simulation, a whole report run).
  Traces nest through a :mod:`contextvars` variable, so concurrent
  activities (threads, or the fork-started workers of the evaluation
  grid) each see only their own trace.  A trace exports as plain JSON
  (:meth:`~repro.obs.trace.Trace.to_json`) or as the Chrome
  ``trace_event`` format (:meth:`~repro.obs.trace.Trace.to_chrome_json`)
  that ``chrome://tracing`` / Perfetto render as a flame chart.

* :mod:`repro.obs.stalls` — the **stall taxonomy**: reason codes the list
  scheduler attaches to every nop or issue delay it commits, and the
  hazard kinds the pipeline model charges each stall cycle to.

A trace is the only metrics recorder: every counter and phase of a
compile, a simulation, a grid unit, a report or a service is recorded
on one, and every place that renders metrics (``repro run --trace``,
``repro report --format json``, ``/v1/stats``, the benchmark) reads a
trace.  Each grid unit runs under its own trace, whose
:meth:`~repro.obs.trace.Trace.summary` the grid merges into the trace
active around it.

Instrumented code uses the module-level helpers, which no-op when no
trace is active::

    import repro.obs as obs

    with obs.span("codegen:main", strategy="rase"):
        ...
    obs.count("compile.compiled")
"""

from repro.obs.trace import (
    Span,
    Trace,
    count,
    current_trace,
    span,
    tracing,
)
from repro.obs import stalls

__all__ = [
    "Span",
    "Trace",
    "count",
    "current_trace",
    "span",
    "stalls",
    "tracing",
]
