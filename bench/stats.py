"""Summary statistics shared by the benchmark parent and its workloads."""

from __future__ import annotations

import math

#: the tail percentile every workload reports (``op_ms_p95``)
TAIL = 0.95

#: a reported percentile needs at least this many samples above it
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ranked = sorted(samples)
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``
    percentile."""
    return count - max(1, math.ceil(q * count))


def min_samples(q: float) -> int:
    """The fewest samples that leave :data:`MIN_BEYOND` beyond the ``q``
    percentile."""
    count = MIN_BEYOND
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


#: operations a timed phase runs at least, so ``op_ms_p95`` is reportable
MIN_OPS = min_samples(TAIL)


def self_times(root) -> dict[str, float]:
    """Span name -> summed self time (duration minus the time its child
    spans cover) over a span tree of objects with ``name``, ``start``,
    ``end`` and ``children``.  Children of one span never overlap."""
    totals: dict[str, float] = {}
    stack = [root]
    while stack:
        span = stack.pop()
        covered = sum(child.end - child.start for child in span.children)
        own = (span.end - span.start) - covered
        totals[span.name] = totals.get(span.name, 0.0) + own
        stack.extend(span.children)
    return totals
