"""Consolidated option records for the public API.

:class:`CompileOptions` replaces the keyword list that ``compile_c`` and
:class:`~repro.backend.codegen.CodeGenerator` had been accreting
(``strategy``, ``heuristic``, ``schedule``, ``fill_delay_slots``,
``memory_size``, ...).  It is frozen — an options value can be shared
between threads, used as a dict key, and pickled — and every layer of
the back end threads the *same* object through instead of re-plumbing
individual keywords.

The legacy keywords were deprecated through 1.1 and are gone: passing
one raises Python's own "unexpected keyword argument" :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import MarionError


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes one compilation, in one frozen record.

    * ``strategy`` — code generation strategy: ``postpass``, ``ips`` or
      ``rase``;
    * ``heuristic`` — list scheduling priority: ``maxdist`` or ``fifo``;
    * ``schedule`` — ``False`` selects the unscheduled (local-only)
      baseline: program order, delay slots nop-filled;
    * ``fill_delay_slots`` — run the Gross-Hennessy delay-slot filling
      extension after the strategy;
    * ``memory_size`` — bytes of simulated memory the linker lays the
      program into.
    """

    strategy: str = "postpass"
    heuristic: str = "maxdist"
    schedule: bool = True
    fill_delay_slots: bool = False
    memory_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.strategy not in ("postpass", "ips", "rase"):
            raise MarionError(
                f"unknown strategy {self.strategy!r}; "
                "known: postpass, ips, rase"
            )
        if self.heuristic not in ("maxdist", "fifo"):
            # ValueError, matching the scheduler's own rejection of an
            # unknown heuristic name
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; known: maxdist, fifo"
            )

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SimOptions:
    """Everything that shapes one simulation run, in one frozen record.

    * ``cache`` — data-cache model: ``None``/``False`` for no cache,
      ``True`` for a default-geometry
      :class:`~repro.sim.cache.DirectMappedCache`, or a ready-built cache
      instance (resolved inside the simulator, so this module stays
      import-light);
    * ``model_timing`` — run the cycle-level pipeline model (``False``
      executes functionally, with no data cache, and reports
      instruction counts as cycles);
    * ``max_instructions`` — functional-execution fuse (infinite loops);
    * ``max_cycles`` — optional watchdog: the run raises
      :class:`~repro.errors.SimulationTimeout` exactly when its cycle
      count (its instruction count with timing off) exceeds this
      budget.  The check runs at segment boundaries and once at run
      end, so the exception's ``cycle``/``pc`` are those of the first
      boundary past the budget, not a cycle-exact raise point;
    * ``trace`` — attribute every stall cycle to a hazard kind and fill
      ``SimResult.cycle_breakdown``.

    Every run without a ``watch=`` callback takes the one simulation
    engine: block-timing memo, segment JIT, trace superblocks and the
    timing chain, bit-identical to the per-instruction reference model
    (which only ``watch=`` runs use, since they need per-instruction
    issue cycles).
    """

    cache: object = None
    model_timing: bool = True
    max_instructions: int = 50_000_000
    max_cycles: int | None = None
    trace: bool = False

    def replace(self, **changes) -> "SimOptions":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)
