"""The code generation driver: IL program -> machine program.

Mirrors the paper's back end structure: glue/lowering, instruction
selection, then hand-off to the chosen code generation strategy (which
orders register allocation and scheduling as it sees fit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.delayfill import fill_delay_slots
from repro.backend.layout import remove_fallthrough_jumps
from repro.backend.lower import lower_function
from repro.backend.mfunc import MFunction
from repro.backend.selector import Selector
from repro.backend.strategies import get_strategy
from repro.backend.strategies.base import StrategyStats
from repro.il.function import GlobalVar, ILProgram
from repro.machine.target import TargetMachine
import repro.obs as obs
from repro.options import CompileOptions


@dataclass
class MachineProgram:
    """A compiled program: machine functions plus global data."""

    target: TargetMachine
    functions: list[MFunction] = field(default_factory=list)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    stats: dict[str, StrategyStats] = field(default_factory=dict)

    def function(self, name: str) -> MFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def instruction_count(self) -> int:
        return sum(fn.instruction_count() for fn in self.functions)


class CodeGenerator:
    """Compile IL programs for one target under one
    :class:`~repro.options.CompileOptions` record.

    ``CodeGenerator(target, CompileOptions(strategy="rase"))``.
    """

    def __init__(
        self,
        target: TargetMachine,
        options: CompileOptions | None = None,
    ):
        options = options if options is not None else CompileOptions()
        self.target = target
        self.options = options
        self.strategy_name = options.strategy
        self.strategy = get_strategy(options.strategy, options=options)
        self.fill_delay_slots = options.fill_delay_slots
        self.selector = Selector(target)

    def compile_il(self, program: ILProgram) -> MachineProgram:
        """Lower, select and run the strategy over every function."""
        out = MachineProgram(target=self.target, globals=dict(program.globals))
        for il_fn in program.functions:
            with obs.span(
                f"codegen:{il_fn.name}",
                target=self.target.name,
                strategy=self.strategy_name,
            ):
                with obs.span("lower", function=il_fn.name):
                    lower_function(il_fn, self.target, program.globals)
                with obs.span("select", function=il_fn.name):
                    mfn = self.selector.select_function(il_fn)
                with obs.span(
                    f"strategy:{self.strategy_name}", function=mfn.name
                ):
                    stats = self.strategy.run(mfn, self.target)
                if self.fill_delay_slots:
                    with obs.span("delay_fill", function=mfn.name):
                        fill_delay_slots(mfn, self.target)
                remove_fallthrough_jumps(mfn)
            out.functions.append(mfn)
            out.stats[mfn.name] = stats
        return out
