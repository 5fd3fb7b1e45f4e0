"""The machine's speed, measured next to every timed operation.

The benchmark runs on a shared host whose speed changes under other
tenants' load: the same pure-Python work takes up to 1.7 times longer
for seconds to tens of minutes at a time, and CPU time slows with wall
time, so the time is lost to a slower processor, not to waiting.  No
statistic over one run removes a slowdown that lasts the whole run.

So every timed operation is bracketed by a *calibration*: a fixed piece
of pure-Python work, written here and independent of the program, timed
just before the operation and just after it.  An operation's time is
reported at the reference speed, scaled by how much slower than
:data:`REFERENCE_S` the calibrations around it ran
(:func:`at_reference_speed`).  A change to the program moves the
operation and not the calibration, so it moves the reported time; a
slower machine moves both.

The calibration is a small list scheduler over a fixed random dependence
graph: object allocation, attribute access, sorting and dictionary
traffic, the same kind of work as the compiler and the simulator.
"""

from __future__ import annotations

import gc
import random
import time

#: seconds one :func:`measure` between the workloads' operations takes
#: on a quiet 2-vCPU Intel Xeon virtual machine (family 6, model 207,
#: 2.1 GHz) under Python 3.11; reported times are scaled to this speed
REFERENCE_S = 0.0012

#: kernel calls per calibration: about 1.2 ms, so the two around an
#: operation add about 5% to the compile and simulate workloads
REPEATS = 2

_NODES = 120
_WIDTH = 2


class _Node:
    __slots__ = ("index", "latency", "successors", "waiting", "priority")

    def __init__(self, index: int, latency: int):
        self.index = index
        self.latency = latency
        self.successors = []
        self.waiting = 0
        self.priority = 0


def kernel() -> int:
    """List-schedule a fixed 120-node dependence graph on a 2-wide
    machine; the number of cycles it takes."""
    rng = random.Random(7)
    nodes = [_Node(i, rng.randint(1, 4)) for i in range(_NODES)]
    for node in nodes:
        later = range(node.index + 1, min(_NODES, node.index + 12))
        for j in rng.sample(later, min(3, len(later))):
            node.successors.append(nodes[j])
            nodes[j].waiting += 1
    for node in reversed(nodes):
        node.priority = node.latency + max(
            (s.priority for s in node.successors), default=0)
    ready = [node for node in nodes if not node.waiting]
    done: dict[int, list] = {}
    cycle = 0
    while ready or done:
        ready.sort(key=lambda n: (-n.priority, n.index))
        for node in ready[:_WIDTH]:
            done.setdefault(cycle + node.latency, []).append(node)
        ready = ready[_WIDTH:]
        cycle += 1
        for node in done.pop(cycle, ()):
            for successor in node.successors:
                successor.waiting -= 1
                if not successor.waiting:
                    ready.append(successor)
    return cycle


def measure(times: int = 1) -> float:
    """Seconds one calibration (:data:`REPEATS` kernel calls) takes now,
    averaged over ``times`` of them.  The garbage collector is held off
    meanwhile: a collection would time the heap the measured program
    left behind, not the processor."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEATS * times):
            kernel()
        return (time.perf_counter() - start) / times
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work, measured between calibrations that took
    ``before`` and ``after``, as it would take at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
