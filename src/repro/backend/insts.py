"""Machine instruction instances — the back end's working representation.

A :class:`MachineInstr` pairs an :class:`InstrDesc` with concrete operands.
Operands are registers (pseudo before allocation, physical after),
immediates (possibly symbolic, see :mod:`repro.backend.values`) or labels.
Implicit uses/defs carry calling-convention effects (argument registers
consumed by a call, caller-save registers it clobbers, ...).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.backend.values import fold_halves
from repro.il.node import PseudoReg
from repro.machine.instruction import InstrDesc, InstrKind, OperandMode
from repro.machine.registers import PhysReg

_instr_counter = itertools.count(1)


@dataclass(frozen=True)
class Reg:
    """Register operand: pseudo- or physical register."""

    reg: object  # PseudoReg | PhysReg

    def __str__(self) -> str:
        return str(self.reg)


@dataclass(frozen=True)
class Imm:
    """Immediate operand; value may be symbolic."""

    value: object

    def __str__(self) -> str:
        return str(fold_halves(self.value))


@dataclass(frozen=True)
class Lab:
    """Branch/call target label."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(eq=False)
class MachineInstr:
    """One emitted machine instruction (or sub-operation)."""

    desc: InstrDesc
    operands: list[object] = field(default_factory=list)
    implicit_uses: list[PhysReg] = field(default_factory=list)
    implicit_defs: list[PhysReg] = field(default_factory=list)
    comment: str = ""
    id: int = field(default_factory=lambda: next(_instr_counter))

    def __str__(self) -> str:
        text = self.desc.mnemonic
        if self.operands:
            text += " " + ", ".join(str(op) for op in self.operands)
        return text

    def __repr__(self) -> str:
        return f"MachineInstr({self})"

    # -- register effects ---------------------------------------------------

    def defs(self) -> list[object]:
        """Registers written: explicit def operands plus implicit defs."""
        out = [
            self.operands[i].reg
            for i in self.desc.def_operands
            if isinstance(self.operands[i], Reg)
        ]
        out.extend(self.implicit_defs)
        return out

    def uses(self) -> list[object]:
        """Registers read: explicit use operands plus implicit uses."""
        out = [
            self.operands[i].reg
            for i in self.desc.use_operands
            if isinstance(self.operands[i], Reg)
        ]
        # fixed-register operands not named in the semantics still occupy
        # their register (e.g. the r[0] source of the TOYP move)
        out.extend(self.implicit_uses)
        return out

    def rewrite_reg(self, index: int, reg) -> None:
        self.operands[index] = Reg(reg)

    def pseudo_operands(self) -> list[PseudoReg]:
        return [
            op.reg
            for op in self.operands
            if isinstance(op, Reg) and isinstance(op.reg, PseudoReg)
        ]

    # -- classification ------------------------------------------------------

    @property
    def is_control(self) -> bool:
        return self.desc.is_control

    @property
    def is_call(self) -> bool:
        return self.desc.kind is InstrKind.CALL

    @property
    def is_branch_or_jump(self) -> bool:
        return self.desc.kind in (InstrKind.BRANCH, InstrKind.JUMP, InstrKind.RET)

    @property
    def is_nop(self) -> bool:
        return self.desc.kind is InstrKind.NOP

    def branch_target(self) -> str | None:
        for position in self.desc.label_operands:
            operand = self.operands[position]
            if isinstance(operand, Lab):
                return operand.name
        return None


def make_instr(
    desc: InstrDesc,
    operands: list[object],
    comment: str = "",
) -> MachineInstr:
    """Build an instruction, auto-filling fixed-register operand slots."""
    filled: list[object] = []
    for spec, operand in zip(desc.operands, operands):
        if operand is None and spec.mode is OperandMode.FIXED_REG:
            operand = Reg(PhysReg(spec.set_name, spec.reg_index))
        filled.append(operand)
    if len(filled) != len(desc.operands):
        raise ValueError(
            f"{desc.mnemonic}: expected {len(desc.operands)} operands, "
            f"got {len(operands)}"
        )
    return MachineInstr(desc, filled, comment=comment)
