"""Selection patterns compiled from instruction semantics.

Each ``%instr`` whose semantics are a single matchable statement yields one
pattern.  A pattern is a tree over three leaf kinds:

* :class:`PatOperand` — binds an instruction operand position; register
  operands match any subtree reducible into that register set, immediate
  operands match constants in range (paper section 2.1's "ordered pattern
  list");
* :class:`PatConst` — a literal that must match exactly (the ``0`` in
  ``if ($1 == 0) goto $2``);
* :class:`PatOp` — an IL operator with pattern children.

Instructions whose semantics write temporal registers, or that contain
multiple statements, produce no pattern: they are emitted by ``*func``
escapes or by the back end directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MarionError
from repro.il.ops import ILOp
from repro.machine.instruction import InstrDesc, OperandDesc, OperandMode
from repro.maril import ast

_BINARY_OPS = {
    "+": ILOp.ADD,
    "-": ILOp.SUB,
    "*": ILOp.MUL,
    "/": ILOp.DIV,
    "%": ILOp.MOD,
    "&": ILOp.BAND,
    "|": ILOp.BOR,
    "^": ILOp.BXOR,
    "<<": ILOp.LSH,
    ">>": ILOp.RSH,
    "==": ILOp.EQ,
    "!=": ILOp.NE,
    "<": ILOp.LT,
    "<=": ILOp.LE,
    ">": ILOp.GT,
    ">=": ILOp.GE,
    "::": ILOp.CMP,
}

_UNARY_OPS = {"-": ILOp.NEG, "~": ILOp.BNOT}

_CVT_BUILTINS = {"int", "float", "double"}


class PatNode:
    """Base class for pattern tree nodes."""


@dataclass(frozen=True)
class PatOp(PatNode):
    op: ILOp
    kids: tuple[PatNode, ...]
    type: str | None = None  # for CVT: destination type

    def __str__(self) -> str:
        return f"{self.op.value}({', '.join(map(str, self.kids))})"


@dataclass(frozen=True)
class PatOperand(PatNode):
    position: int  # 0-based operand index
    spec: OperandDesc

    def __str__(self) -> str:
        return f"${self.position + 1}:{self.spec}"


@dataclass(frozen=True)
class PatConst(PatNode):
    value: object

    def __str__(self) -> str:
        return str(self.value)


class PatternKind(enum.Enum):
    VALUE = "value"  # defines a register operand
    STORE = "store"  # writes memory
    BRANCH = "branch"  # conditional branch
    JUMP = "jump"  # unconditional branch


@dataclass
class Pattern:
    """One selection pattern tied to its instruction descriptor."""

    desc: InstrDesc
    kind: PatternKind
    root: PatNode
    def_position: int | None = None  # operand written, for VALUE patterns
    label_position: int | None = None  # branch target operand

    def __str__(self) -> str:
        return f"{self.desc.mnemonic}: {self.root}"


def compile_pattern(desc: InstrDesc, temporal_names: frozenset) -> Pattern | None:
    """Compile ``desc``'s semantics into a pattern, or None if unmatchable."""
    statements = [s for s in desc.semantics if not isinstance(s, ast.EmptyStmt)]
    if len(statements) != 1:
        return None
    stmt = statements[0]
    builder = _PatternBuilder(desc, temporal_names)

    if isinstance(stmt, ast.AssignStmt):
        if isinstance(stmt.target, ast.OperandRef):
            root = builder.expr(stmt.value)
            if root is None:
                return None
            return Pattern(
                desc,
                PatternKind.VALUE,
                root,
                def_position=stmt.target.index - 1,
            )
        if isinstance(stmt.target, ast.MemRef):
            address = builder.expr(stmt.target.address)
            value = builder.expr(stmt.value)
            if address is None or value is None:
                return None
            return Pattern(desc, PatternKind.STORE, PatOp(ILOp.ASGN, (address, value)))
        return None  # temporal-register writes are emitted by *funcs

    if isinstance(stmt, ast.CondGotoStmt):
        condition = builder.expr(stmt.condition)
        if condition is None or not isinstance(stmt.target, ast.OperandRef):
            return None
        return Pattern(
            desc,
            PatternKind.BRANCH,
            PatOp(ILOp.CJUMP, (condition,)),
            label_position=stmt.target.index - 1,
        )

    if isinstance(stmt, ast.GotoStmt):
        if not isinstance(stmt.target, ast.OperandRef):
            return None
        return Pattern(
            desc,
            PatternKind.JUMP,
            PatOp(ILOp.JUMP, ()),
            label_position=stmt.target.index - 1,
        )

    return None  # call/ret are handled by the back end directly


class _PatternBuilder:
    def __init__(self, desc: InstrDesc, temporal_names: frozenset):
        self.desc = desc
        self.temporal_names = temporal_names

    def expr(self, expr: ast.Expr) -> PatNode | None:
        if isinstance(expr, ast.OperandRef):
            position = expr.index - 1
            if position >= len(self.desc.operands):
                raise MarionError(
                    f"{self.desc.mnemonic}: ${expr.index} out of range"
                )
            return PatOperand(position, self.desc.operands[position])
        if isinstance(expr, ast.IntLit):
            return PatConst(expr.value)
        if isinstance(expr, ast.FloatLit):
            return PatConst(expr.value)
        if isinstance(expr, ast.NameRef):
            return None  # temporal registers do not appear in patterns
        if isinstance(expr, ast.MemRef):
            address = self.expr(expr.address)
            if address is None:
                return None
            return PatOp(ILOp.INDIR, (address,))
        if isinstance(expr, ast.Unary):
            il_op = _UNARY_OPS.get(expr.op)
            if il_op is None:
                return None
            kid = self.expr(expr.operand)
            if kid is None:
                return None
            return PatOp(il_op, (kid,))
        if isinstance(expr, ast.Binary):
            il_op = _BINARY_OPS.get(expr.op)
            if il_op is None:
                return None
            left = self.expr(expr.left)
            right = self.expr(expr.right)
            if left is None or right is None:
                return None
            return PatOp(il_op, (left, right))
        if isinstance(expr, ast.BuiltinCall):
            if expr.name in _CVT_BUILTINS:
                kid = self.expr(expr.args[0])
                if kid is None:
                    return None
                return PatOp(ILOp.CVT, (kid,), type=expr.name)
            return None  # high/low/eval appear only in glue replacements
        return None
