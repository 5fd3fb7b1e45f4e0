"""The compiled target machine: everything the back end needs.

A :class:`TargetMachine` is produced by :func:`repro.cgg.build_target` from
a Maril description.  It bundles the register model, resource table,
instruction descriptors (with selection patterns and executable semantics
metadata), the auxiliary-latency table, glue rules, packing-class elements,
clocks and the calling convention, plus the registered ``*func`` escape
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MarionError
from repro.machine.instruction import InstrDesc
from repro.machine.registers import PhysReg, RegisterModel
from repro.machine.resources import ResourceTable
from repro.maril import ast


@dataclass(frozen=True)
class AuxRule:
    """Compiled ``%aux`` directive: when instruction ``first`` is followed by
    ``second`` and operand ``first_operand`` of the first names the same
    value as operand ``second_operand`` of the second, the edge latency is
    ``latency`` instead of the first instruction's normal latency."""

    first: str
    second: str
    first_operand: int  # 1-based, as written in the description
    second_operand: int
    latency: int


@dataclass
class CallingConvention:
    """The CWVM runtime model (paper section 3.2)."""

    sp: PhysReg = None
    fp: PhysReg = None
    gp: PhysReg | None = None
    retaddr: PhysReg | None = None
    stack_grows_down: bool = True
    hard_registers: dict[PhysReg, int] = field(default_factory=dict)
    general: dict[str, str] = field(default_factory=dict)  # type -> set name
    allocable: list[PhysReg] = field(default_factory=list)
    callee_save: list[PhysReg] = field(default_factory=list)
    # args[type] is the ordered list of argument registers for that type
    args: dict[str, list[PhysReg]] = field(default_factory=dict)
    results: dict[str, PhysReg] = field(default_factory=dict)

    def arg_register(self, type_name: str, index: int) -> PhysReg | None:
        """Register for the ``index``-th (0-based) argument of a type."""
        registers = self.args.get(type_name, [])
        return registers[index] if index < len(registers) else None

    def result_register(self, type_name: str) -> PhysReg | None:
        return self.results.get(type_name)

    def caller_save_allocable(self) -> list[PhysReg]:
        return [r for r in self.allocable if r not in self.callee_save]


@dataclass
class TargetMachine:
    """A complete compiled back-end description."""

    name: str
    registers: RegisterModel
    resources: ResourceTable
    instructions: dict[str, InstrDesc] = field(default_factory=dict)
    aux_rules: dict[tuple[str, str], AuxRule] = field(default_factory=dict)
    glue_rules: list[ast.GlueDecl] = field(default_factory=list)
    elements: list[str] = field(default_factory=list)
    clocks: list[str] = field(default_factory=list)
    cwvm: CallingConvention = field(default_factory=CallingConvention)
    memories: dict[str, tuple[int, int]] = field(default_factory=dict)
    # ordered as in the description: selection tries patterns in this order
    pattern_order: list = field(default_factory=list)
    funcs: dict[str, Callable] = field(default_factory=dict)
    description: ast.Description | None = None
    #: artifact-cache identity (sha256 hex) of (variant name, Maril
    #: source), set by :func:`repro.targets.load_target` when the cache
    #: is enabled; downstream keys (executables) chain off it
    content_key: str | None = None

    def instruction(self, mnemonic: str) -> InstrDesc:
        """The first descriptor with this mnemonic (see also
        :meth:`instruction_by_label` for ``[label]``-tagged directives)."""
        try:
            return self.instructions[mnemonic]
        except KeyError:
            raise MarionError(
                f"target {self.name} has no instruction {mnemonic!r}"
            ) from None

    def instruction_by_label(self, label: str) -> InstrDesc:
        for desc in self.instructions.values():
            if desc.label == label:
                return desc
        raise MarionError(f"target {self.name} has no instruction labelled {label!r}")

    @property
    def nop(self) -> InstrDesc:
        return self.instruction("nop")

    def move_for_set(self, set_name: str) -> InstrDesc:
        """The ``%move`` instruction for a register set."""
        for desc in self.instructions.values():
            if not desc.is_move:
                continue
            if not desc.operands:
                continue
            first = desc.operands[0]
            if first.set_name == set_name:
                return desc
        raise MarionError(f"target {self.name} has no %move for set {set_name!r}")

    def aux_latency(self, first: str, second: str) -> AuxRule | None:
        return self.aux_rules.get((first, second))

    def hard_register_for_value(self, value: int, set_name: str) -> PhysReg | None:
        """A register hard-wired to ``value`` in ``set_name``, if any."""
        for reg, wired in self.cwvm.hard_registers.items():
            if wired == value and reg.set_name == set_name:
                return reg
        return None

    def register_func(self, name: str, fn: Callable) -> None:
        """Register the Python escape function for a ``*func`` directive."""
        self.funcs[name] = fn

    def temporal_clock(self, reg_name: str) -> str | None:
        """The clock a temporal register is based on, or None."""
        rset = self.registers.sets.get(reg_name)
        if rset is not None and rset.is_temporal:
            return rset.clock
        return None
