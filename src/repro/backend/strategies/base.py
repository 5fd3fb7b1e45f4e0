"""Strategy interface and shared phase helpers.

Strategies see a freshly selected :class:`MFunction` and are responsible
for ordering register allocation and scheduling.  The scheduling support,
allocator and frame machinery are strategy- and target-independent; the
strategy only decides when to call them and with what parameters (the
paper's separation, section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.frame import finish_function
from repro.backend.mfunc import MFunction
from repro.backend.regalloc import GraphColoringAllocator
from repro.backend.scheduler import ListScheduler
from repro.errors import MarionError
from repro.machine.target import TargetMachine
import repro.obs as obs
from repro.obs import stalls
from repro.options import CompileOptions

STRATEGY_NAMES = ("postpass", "ips", "rase")


@dataclass
class StrategyStats:
    """Bookkeeping a strategy reports back (feeds Tables 3 and 4, and the
    report's stall-attribution section)."""

    schedule_passes: int = 0
    spilled_pseudos: int = 0
    allocation_iterations: int = 0
    block_costs: dict[str, int] = field(default_factory=dict)
    #: final-pass stall-reason histogram (reason code -> committed slots),
    #: summed over the function's blocks; conserved against ``nop_slots``
    stall_reasons: dict[str, int] = field(default_factory=dict)
    #: final-pass committed nop slots (idle cycles + inserted delay nops)
    nop_slots: int = 0


class Strategy:
    """Base class: subclasses implement :meth:`run`.

    A strategy is configured by one :class:`CompileOptions` record
    (``options.heuristic`` and ``options.schedule`` are the fields it
    reads); without one it takes the defaults.
    """

    name = "abstract"

    def __init__(self, options: CompileOptions | None = None):
        if options is None:
            options = CompileOptions()
        self.options = options
        self.heuristic = options.heuristic
        self.schedule_enabled = options.schedule

    def run(self, fn: MFunction, target: TargetMachine) -> StrategyStats:
        raise NotImplementedError

    # -- shared phases ----------------------------------------------------------

    def allocate(
        self,
        fn: MFunction,
        target: TargetMachine,
        stats: StrategyStats,
        cost_overrides=None,
    ) -> None:
        with obs.span("allocate", function=fn.name) as node:
            allocator = GraphColoringAllocator(
                target, cost_overrides=cost_overrides
            )
            result = allocator.allocate(fn)
            stats.spilled_pseudos += result.spilled_pseudos
            stats.allocation_iterations += result.iterations
            finish_function(fn, target, result.used_callee_save)
            if node is not None:
                node.attrs["spilled"] = result.spilled_pseudos
                node.attrs["iterations"] = result.iterations

    def schedule(
        self,
        fn: MFunction,
        target: TargetMachine,
        stats: StrategyStats,
        register_limit: int | None = None,
        record_costs: bool = True,
        rewrite: bool = True,
    ) -> dict[str, int]:
        """Schedule every block; optionally adopt the new order.

        The ``record_costs`` pass is the *final* one — the schedule the
        emitted code actually carries — so it is also the pass whose
        stall attribution lands on the blocks (for
        ``--explain-schedule``) and in ``stats.stall_reasons``.
        """
        scheduler = ListScheduler(
            target,
            heuristic=self.heuristic,
            register_limit=register_limit,
            classify_stalls=record_costs,
        )
        pass_kind = "final" if record_costs else (
            "pressure-bounded" if register_limit is not None else "estimate"
        )
        costs: dict[str, int] = {}
        with obs.span(
            f"schedule[{pass_kind}]",
            function=fn.name,
            blocks=len(fn.blocks),
            heuristic=self.heuristic,
        ):
            for block in fn.blocks:
                if self.schedule_enabled:
                    result = scheduler.schedule_block(block.instrs)
                    if rewrite:
                        block.instrs = result.instrs
                    costs[block.label] = result.cost
                    if record_costs:
                        block.issue_cycles = dict(result.issue_cycle)
                        block.stall_events = list(result.stall_events)
                        stalls.merge_reasons(stats.stall_reasons, result.stalls)
                        stats.nop_slots += result.nop_slots
                else:
                    # no-scheduler baseline: keep program order but still
                    # fill branch delay slots with nops (every MIPS-era
                    # assembler did)
                    if rewrite:
                        self._fill_delay_slots(block, target)
                    costs[block.label] = self._unscheduled_cost(block, target)
        stats.schedule_passes += 1
        if record_costs:
            for label, cost in costs.items():
                fn.block(label).schedule_cost = cost
            stats.block_costs.update(costs)
        return costs

    def _fill_delay_slots(self, block, target: TargetMachine) -> None:
        from repro.backend.insts import make_instr

        out = []
        for instr in block.instrs:
            out.append(instr)
            if instr.is_branch_or_jump and instr.desc.slots:
                for _ in range(abs(instr.desc.slots)):
                    nop = make_instr(target.nop, [])
                    nop.comment = "delay slot"
                    out.append(nop)
        block.instrs = out

    def _unscheduled_cost(self, block, target: TargetMachine) -> int:
        """Cost estimate for the no-scheduling baseline: issue in program
        order, stalling for every unmet latency (nop insertion model)."""
        from repro.backend.codedag import build_code_dag

        dag = build_code_dag(block.instrs, target, include_anti=True)
        cycle = 0
        issue: dict[int, int] = {}
        for node in dag.nodes:
            earliest = cycle
            for edge in node.preds:
                earliest = max(earliest, issue[edge.src.index] + edge.latency)
            issue[node.index] = earliest
            cycle = earliest + 1
        cost = cycle
        if dag.nodes and dag.nodes[-1].instr.is_branch_or_jump:
            cost += abs(dag.nodes[-1].instr.desc.slots)
        return cost


def get_strategy(name: str, options: CompileOptions | None = None) -> Strategy:
    """The strategy called ``name``, configured by ``options`` (by
    default ``CompileOptions(strategy=name)``)."""
    from repro.backend.strategies.ips import IPSStrategy
    from repro.backend.strategies.postpass import PostpassStrategy
    from repro.backend.strategies.rase import RASEStrategy

    table = {
        "postpass": PostpassStrategy,
        "ips": IPSStrategy,
        "rase": RASEStrategy,
    }
    try:
        cls = table[name]
    except KeyError:
        raise MarionError(
            f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}"
        ) from None
    if options is None:
        options = CompileOptions(strategy=name)
    return cls(options)
