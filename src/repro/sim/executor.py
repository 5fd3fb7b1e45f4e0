"""Compile instruction semantics into executable closures.

Each linked :class:`MachineInstr` is compiled once: its Maril semantics
tree becomes a Python closure over the machine state.  This keeps the
simulator honest — the instruction set's behaviour comes from the same
description that drove selection and scheduling — while staying fast
enough for the Livermore kernels.

A closure returns a control effect (``('goto', label)``, ``('call',
label)``, ``('ret',)``) or ``None`` and appends ``(address, is_write,
size)`` records to the memory log the caller provides (the pipeline model
uses them for cache simulation and memory ordering).  The *order* of
records within one instruction is part of the contract: the fast timing
path (:mod:`repro.sim.blockcache`) rebuilds a replayed segment's
accesses from :func:`memory_accesses`, so closures must log accesses in
exactly the order that function derives from the semantics.
"""

from __future__ import annotations

import operator
import struct

from repro.backend.insts import Imm, Lab, MachineInstr, Reg
from repro.backend.values import fold_halves
from repro.errors import SimulationError
from repro.machine.registers import PhysReg
from repro.machine.target import TargetMachine
from repro.maril import ast

_INT_MIN, _INT_MAX = -(2**31), 2**31 - 1

# prebound codecs for the specialised register closures
_DOUBLE = struct.Struct("<d")
_FLOAT = struct.Struct("<f")
_WORD = struct.Struct("<I")
_PAIR = struct.Struct("<II")


def _wrap32(value: int) -> int:
    if -0x80000000 <= value <= 0x7FFFFFFF:
        return value
    return (value + 0x80000000 & 0xFFFFFFFF) - 0x80000000


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _int_mod(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def _promote(a: str, b: str) -> str:
    order = {"int": 0, "float": 1, "double": 2}
    return a if order[a] >= order[b] else b


def memory_accesses(semantics) -> tuple[bool, ...]:
    """The ``is_write`` flag of every memory access an instruction with
    these semantics logs, in the order its closure logs them: statement
    by statement, operands left to right, a load after its address, a
    store after its address and before its value."""
    script: list[bool] = []

    def reads(expr) -> None:
        if isinstance(expr, ast.MemRef):
            reads(expr.address)
            script.append(False)
        elif isinstance(expr, ast.Unary):
            reads(expr.operand)
        elif isinstance(expr, ast.Binary):
            reads(expr.left)
            reads(expr.right)
        elif isinstance(expr, ast.BuiltinCall):
            reads(expr.args[0])

    for stmt in semantics:
        if isinstance(stmt, ast.AssignStmt):
            if isinstance(stmt.target, ast.MemRef):
                reads(stmt.target.address)
                script.append(True)
            reads(stmt.value)
        elif isinstance(stmt, ast.CondGotoStmt):
            reads(stmt.condition)
    return tuple(script)


# operator tables hoisted to module level (built once, not per compiled
# expression) with _wrap32/_int_div prebound as default arguments so the
# interpreter path does no module-global lookups per executed step
_REL_TABLE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_INT_TABLE = {
    "+": lambda a, b, _w=_wrap32: _w(a + b),
    "-": lambda a, b, _w=_wrap32: _w(a - b),
    "*": lambda a, b, _w=_wrap32: _w(a * b),
    "/": _int_div,
    "%": _int_mod,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda a, b, _w=_wrap32: _w(a << (b & 31)),
    ">>": lambda a, b: a >> (b & 31),
}

_FLOAT_TABLE = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class SemanticsCompiler:
    """Compiles one target's instructions; stateless across instructions."""

    def __init__(self, target: TargetMachine):
        self.target = target

    # -- public ------------------------------------------------------------

    def compile_instr(self, instr: MachineInstr):
        """Return ``closure(state, mem_log) -> effect | None``."""
        steps = [
            self._compile_stmt(stmt, instr)
            for stmt in instr.desc.semantics
            if not isinstance(stmt, ast.EmptyStmt)
        ]
        if len(steps) == 1:
            return steps[0]

        def run(state, mem_log, _steps=tuple(steps)):
            effect = None
            for step in _steps:
                result = step(state, mem_log)
                if result is not None:
                    effect = result
            return effect

        return run

    # -- operand helpers ------------------------------------------------------

    def _operand_type(self, instr: MachineInstr, position: int) -> str:
        operand = instr.operands[position]
        if isinstance(operand, Imm):
            return "int"
        if isinstance(operand, Lab):
            return "int"
        spec = instr.desc.operands[position]
        rset = self.target.registers.set(spec.set_name)
        if len(rset.types) == 1:
            return rset.types[0]
        if instr.desc.type is not None:
            return instr.desc.type
        return "int"

    def _temporal_type(self, name: str) -> str:
        rset = self.target.registers.sets.get(name)
        if rset is not None and rset.types:
            return rset.types[0]
        return "double"

    # -- statements ------------------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt, instr: MachineInstr):
        if isinstance(stmt, ast.AssignStmt):
            return self._compile_assign(stmt, instr)
        if isinstance(stmt, ast.CondGotoStmt):
            condition, _ = self._compile_expr(stmt.condition, instr, "int")
            label = self._label_of(stmt.target, instr)

            def cond_goto(state, mem_log, _cond=condition, _label=label):
                if _cond(state, mem_log) != 0:
                    return ("goto", _label)
                return None

            return cond_goto
        if isinstance(stmt, ast.GotoStmt):
            label = self._label_of(stmt.target, instr)
            return lambda state, mem_log, _label=label: ("goto", _label)
        if isinstance(stmt, ast.CallStmt):
            label = self._label_of(stmt.target, instr)
            return lambda state, mem_log, _label=label: ("call", _label)
        if isinstance(stmt, ast.RetStmt):
            return lambda state, mem_log: ("ret",)
        raise SimulationError(f"cannot execute statement {stmt}")

    def _label_of(self, target: ast.Expr, instr: MachineInstr) -> str:
        if not isinstance(target, ast.OperandRef):
            raise SimulationError(f"{instr}: branch target must be an operand")
        operand = instr.operands[target.index - 1]
        if not isinstance(operand, Lab):
            raise SimulationError(f"{instr}: operand {target} is not a label")
        return operand.name

    def _compile_assign(self, stmt: ast.AssignStmt, instr: MachineInstr):
        target = stmt.target
        # register-to-register moves copy raw units, not typed values: the
        # bits may not be a valid value of the set's type (e.g. mov.s of a
        # double's half whose pattern is a signaling float NaN)
        if isinstance(target, ast.OperandRef) and isinstance(
            stmt.value, ast.OperandRef
        ):
            dst_operand = instr.operands[target.index - 1]
            src_operand = instr.operands[stmt.value.index - 1]
            if (
                isinstance(dst_operand, Reg)
                and isinstance(src_operand, Reg)
                and isinstance(dst_operand.reg, PhysReg)
                and isinstance(src_operand.reg, PhysReg)
            ):
                registers = self.target.registers
                dst_units = registers.units_of(dst_operand.reg)
                src_units = registers.units_of(src_operand.reg)
                if len(dst_units) == len(src_units):

                    def copy_units(
                        state, mem_log, _dst=dst_units, _src=src_units
                    ):
                        units = state.units
                        for d, s in zip(_dst, _src):
                            units[d] = units.get(s, 0)
                        return None

                    return copy_units
        if isinstance(target, ast.OperandRef):
            position = target.index - 1
            operand = instr.operands[position]
            if not isinstance(operand, Reg) or not isinstance(operand.reg, PhysReg):
                raise SimulationError(
                    f"{instr}: cannot execute with unallocated operand {operand}"
                )
            reg = operand.reg
            type_name = self._operand_type(instr, position)
            value, _ = self._compile_expr(stmt.value, instr, type_name)
            # predecode the destination's register units so the per-step
            # closure writes raw words without units_of/hash lookups
            units = self.target.registers.units_of(reg)
            if type_name == "double":
                if len(units) != 2:  # invalid pairing: report at execute time
                    def write_reg(
                        state, mem_log, _reg=reg, _type=type_name, _value=value
                    ):
                        state.write_reg(_reg, _type, _value(state, mem_log))
                        return None

                    return write_reg
                u0, u1 = units

                def write_double(
                    state,
                    mem_log,
                    _u0=u0,
                    _u1=u1,
                    _value=value,
                    _pack=_DOUBLE.pack,
                    _unpack=_PAIR.unpack,
                    _float=float,
                ):
                    lo, hi = _unpack(_pack(_float(_value(state, mem_log))))
                    state_units = state.units
                    state_units[_u0] = lo
                    state_units[_u1] = hi
                    return None

                return write_double
            if type_name == "float":
                def write_float(
                    state,
                    mem_log,
                    _u0=units[0],
                    _value=value,
                    _pack=_FLOAT.pack,
                    _unpack=_WORD.unpack,
                    _float=float,
                ):
                    state.units[_u0] = _unpack(
                        _pack(_float(_value(state, mem_log)))
                    )[0]
                    return None

                return write_float

            def write_int(
                state, mem_log, _u0=units[0], _value=value, _int=int
            ):
                state.units[_u0] = _int(_value(state, mem_log)) & 0xFFFFFFFF
                return None

            return write_int
        if isinstance(target, ast.NameRef):
            type_name = self._temporal_type(target.name)
            value, _ = self._compile_expr(stmt.value, instr, type_name)

            def write_temporal(
                state, mem_log, _name=target.name, _value=value
            ):
                state.temporal[_name] = _value(state, mem_log)
                return None

            return write_temporal
        if isinstance(target, ast.MemRef):
            address, _ = self._compile_expr(target.address, instr, "int")
            value, value_type = self._compile_expr(stmt.value, instr, None)
            size = 8 if value_type == "double" else 4

            def write_mem(
                state,
                mem_log,
                _addr=address,
                _value=value,
                _type=value_type,
                _size=size,
            ):
                location = _addr(state, mem_log)
                mem_log.append((location, True, _size))
                state.write_mem(location, _type, _value(state, mem_log))
                return None

            return write_mem
        raise SimulationError(f"cannot assign to {target}")

    # -- expressions --------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr, instr: MachineInstr, expected: str | None):
        """Returns (closure, static_type)."""
        if isinstance(expr, ast.OperandRef):
            position = expr.index - 1
            operand = instr.operands[position]
            if isinstance(operand, Imm):
                value = fold_halves(operand.value)
                if not isinstance(value, (int, float)):
                    raise SimulationError(
                        f"{instr}: unresolved immediate {value!r}"
                    )
                return (lambda state, mem_log, _v=value: _v), "int"
            if isinstance(operand, Reg) and isinstance(operand.reg, PhysReg):
                type_name = self._operand_type(instr, position)
                reg = operand.reg
                units = self.target.registers.units_of(reg)
                if type_name == "double":
                    if len(units) != 2:  # invalid pairing: error at execute time
                        return (
                            lambda state, mem_log, _r=reg, _t=type_name:
                                state.read_reg(_r, _t)
                        ), type_name
                    u0, u1 = units

                    def read_double(
                        state,
                        mem_log,
                        _u0=u0,
                        _u1=u1,
                        _pack=_PAIR.pack,
                        _unpack=_DOUBLE.unpack,
                    ):
                        state_units = state.units
                        return _unpack(
                            _pack(
                                state_units.get(_u0, 0), state_units.get(_u1, 0)
                            )
                        )[0]

                    return read_double, type_name
                if type_name == "float":
                    def read_float(
                        state,
                        mem_log,
                        _u0=units[0],
                        _pack=_WORD.pack,
                        _unpack=_FLOAT.unpack,
                    ):
                        return _unpack(_pack(state.units.get(_u0, 0)))[0]

                    return read_float, type_name

                def read_int(state, mem_log, _u0=units[0]):
                    word = state.units.get(_u0, 0)
                    return word - 0x100000000 if word > _INT_MAX else word

                return read_int, type_name
            raise SimulationError(f"{instr}: cannot read operand {operand}")
        if isinstance(expr, ast.NameRef):
            type_name = self._temporal_type(expr.name)
            default = 0.0 if type_name in ("float", "double") else 0
            return (
                lambda state, mem_log, _n=expr.name, _d=default: state.temporal.get(
                    _n, _d
                )
            ), type_name
        if isinstance(expr, ast.IntLit):
            return (lambda state, mem_log, _v=expr.value: _v), "int"
        if isinstance(expr, ast.FloatLit):
            return (lambda state, mem_log, _v=expr.value: _v), "double"
        if isinstance(expr, ast.MemRef):
            if expected is None:
                raise SimulationError(
                    f"{instr}: memory read with unknown width"
                )
            address, _ = self._compile_expr(expr.address, instr, "int")
            size = 8 if expected == "double" else 4

            def read_mem(state, mem_log, _addr=address, _t=expected, _s=size):
                location = _addr(state, mem_log)
                mem_log.append((location, False, _s))
                return state.read_mem(location, _t)

            return read_mem, expected
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, instr, expected)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, instr, expected)
        if isinstance(expr, ast.BuiltinCall):
            return self._compile_builtin(expr, instr)
        raise SimulationError(f"cannot evaluate {expr}")

    def _compile_unary(self, expr: ast.Unary, instr, expected):
        operand, type_name = self._compile_expr(expr.operand, instr, expected)
        if expr.op == "-":
            if type_name == "int":
                return (
                    lambda s, m, _o=operand, _w=_wrap32: _w(-_o(s, m))
                ), "int"
            return (lambda s, m, _o=operand: -_o(s, m)), type_name
        if expr.op == "~":
            return (
                lambda s, m, _o=operand, _w=_wrap32: _w(~_o(s, m))
            ), "int"
        if expr.op == "!":
            return (lambda s, m, _o=operand: 0 if _o(s, m) else 1), "int"
        raise SimulationError(f"unknown unary operator {expr.op}")

    def _compile_binary(self, expr: ast.Binary, instr, expected):
        left, left_type = self._compile_expr(expr.left, instr, expected)
        right, right_type = self._compile_expr(expr.right, instr, expected)
        common = _promote(left_type, right_type)
        op = expr.op

        if op == "::":  # generic compare: sign of (left - right)
            def cmp(s, m, _l=left, _r=right):
                a, b = _l(s, m), _r(s, m)
                return (a > b) - (a < b)

            return cmp, "int"
        relation = _REL_TABLE.get(op)
        if relation is not None:
            return (
                lambda s, m, _l=left, _r=right, _rel=relation: 1
                if _rel(_l(s, m), _r(s, m))
                else 0
            ), "int"

        if common == "int":
            fn = _INT_TABLE.get(op)
            if fn is None:
                raise SimulationError(f"unknown int operator {op}")
            return (lambda s, m, _l=left, _r=right, _f=fn: _f(_l(s, m), _r(s, m))), "int"

        fn = _FLOAT_TABLE.get(op)
        if fn is None:
            raise SimulationError(f"operator {op} is not defined on {common}")

        def float_op(s, m, _l=left, _r=right, _f=fn):
            try:
                return _f(_l(s, m), _r(s, m))
            except ZeroDivisionError:
                raise SimulationError("floating divide by zero") from None

        return float_op, common

    def _compile_builtin(self, expr: ast.BuiltinCall, instr):
        name = expr.name
        arg, arg_type = self._compile_expr(expr.args[0], instr, None)
        if name == "int":
            return (
                lambda s, m, _a=arg, _w=_wrap32, _int=int: _w(_int(_a(s, m)))
            ), "int"
        if name in ("float", "double"):
            return (lambda s, m, _a=arg, _float=float: _float(_a(s, m))), name
        if name == "high":
            return (
                lambda s, m, _a=arg, _int=int: (_int(_a(s, m)) >> 16) & 0xFFFF
            ), "int"
        if name == "low":
            return (
                lambda s, m, _a=arg, _int=int: _int(_a(s, m)) & 0xFFFF
            ), "int"
        if name == "eval":
            return arg, arg_type
        raise SimulationError(f"unknown builtin {name}")
