"""Unit tests for the semantics executor (instruction closures)."""

import random

import pytest

from repro.backend.insts import Imm, Lab, Reg
from repro.errors import SimulationError
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg
from repro.sim.executor import SemanticsCompiler, _int_div, _int_mod, _wrap32
from repro.sim.state import MachineState

from tests.helpers import build as instr


@pytest.fixture()
def state(toyp):
    return MachineState(toyp.registers, bytearray(8192))


def compile_and_run(target, state, machine_instr, mem_log=None):
    closure = SemanticsCompiler(target).compile_instr(machine_instr)
    return closure(state, mem_log if mem_log is not None else [])


def test_add_executes(toyp, state):
    state.write_reg(PhysReg("r", 2), "int", 30)
    add = instr(
        toyp, "addi", Reg(PhysReg("r", 3)), Reg(PhysReg("r", 2)), Imm(12)
    )
    assert compile_and_run(toyp, state, add) is None
    assert state.read_reg(PhysReg("r", 3), "int") == 42


def test_arithmetic_wraps(toyp, state):
    state.write_reg(PhysReg("r", 2), "int", 2**31 - 1)
    add = instr(toyp, "addi", Reg(PhysReg("r", 3)), Reg(PhysReg("r", 2)), Imm(1))
    compile_and_run(toyp, state, add)
    assert state.read_reg(PhysReg("r", 3), "int") == -(2**31)


def test_generic_compare_signs(toyp, state):
    state.write_reg(PhysReg("r", 2), "int", 5)
    state.write_reg(PhysReg("r", 3), "int", 9)
    cmp = instr(
        toyp, "cmp", Reg(PhysReg("r", 4)), Reg(PhysReg("r", 2)), Reg(PhysReg("r", 3))
    )
    compile_and_run(toyp, state, cmp)
    assert state.read_reg(PhysReg("r", 4), "int") == -1


def test_load_and_store_log_memory(toyp, state):
    state.write_reg(PhysReg("r", 6), "int", 4096)
    state.write_mem(4100, "int", 77)
    log = []
    load = instr(toyp, "ld", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(4))
    compile_and_run(toyp, state, load, log)
    assert state.read_reg(PhysReg("r", 2), "int") == 77
    assert log == [(4100, False, 4)]

    log = []
    store = instr(toyp, "st", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(8))
    compile_and_run(toyp, state, store, log)
    assert state.read_mem(4104, "int") == 77
    assert log == [(4104, True, 4)]


def test_double_memory_width(toyp, state):
    state.write_reg(PhysReg("r", 6), "int", 4096)
    state.write_reg(PhysReg("d", 1), "double", 6.5)
    log = []
    store = instr(
        toyp, "st.d", Reg(PhysReg("d", 1)), Reg(PhysReg("r", 6)), Imm(0)
    )
    compile_and_run(toyp, state, store, log)
    assert log[0][2] == 8
    assert state.read_mem(4096, "double") == 6.5


def test_branch_effects(toyp, state):
    state.write_reg(PhysReg("r", 2), "int", 0)
    branch = instr(toyp, "beq0", Reg(PhysReg("r", 2)), Lab("L"))
    assert compile_and_run(toyp, state, branch) == ("goto", "L")
    state.write_reg(PhysReg("r", 2), "int", 1)
    assert compile_and_run(toyp, state, branch) is None


def test_call_and_ret_effects(toyp, state):
    call = instr(toyp, "call", Lab("g"))
    assert compile_and_run(toyp, state, call) == ("call", "g")
    ret = instr(toyp, "ret")
    assert compile_and_run(toyp, state, ret) == ("ret",)


def test_conversion_truncates(toyp, state):
    state.write_reg(PhysReg("d", 1), "double", -3.99)
    cvt = instr(toyp, "cvt.w.d", Reg(PhysReg("r", 2)), Reg(PhysReg("d", 1)))
    compile_and_run(toyp, state, cvt)
    assert state.read_reg(PhysReg("r", 2), "int") == -3


def test_temporal_register_flow(i860):
    state = MachineState(i860.registers, bytearray(4096))
    state.write_reg(PhysReg("d", 4), "double", 3.0)
    state.write_reg(PhysReg("d", 5), "double", 7.0)
    sequence = [
        instr(i860, "M1", Reg(PhysReg("d", 4)), Reg(PhysReg("d", 5))),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(PhysReg("d", 6))),
    ]
    for step in sequence:
        compile_and_run(i860, state, step)
    assert state.read_reg(PhysReg("d", 6), "double") == 21.0
    assert state.temporal["m3"] == 21.0


def test_unallocated_operand_rejected(toyp, state):
    pseudo = PseudoReg("int", "ghost")
    bad = instr(toyp, "addi", Reg(pseudo), Reg(PhysReg("r", 2)), Imm(1))
    with pytest.raises(SimulationError, match="unallocated"):
        SemanticsCompiler(toyp).compile_instr(bad)


def test_int_div_mod_helpers():
    assert _int_div(7, 2) == 3
    assert _int_div(-7, 2) == -3
    assert _int_mod(-7, 2) == -1
    assert _wrap32(2**31) == -(2**31)
    with pytest.raises(SimulationError):
        _int_div(1, 0)


def test_wrap32_is_the_arithmetic_definition():
    # in-range values come back as they are, every other one wraps:
    # around +-2^31 and +-2^32 and on random values
    rng = random.Random(32)
    values = [
        sign * edge + step
        for edge in (2**31, 2**32)
        for sign in (1, -1)
        for step in (-1, 0, 1)
    ]
    values += [rng.randrange(-(2**40), 2**40) for _ in range(500)]
    values += [rng.randrange(-(2**31), 2**31) for _ in range(500)]
    for value in values:
        assert _wrap32(value) == (value + 2**31) % 2**32 - 2**31, value


def test_lui_style_shift_semantics(r2000):
    state = MachineState(r2000.registers, bytearray(4096))
    lui = instr(r2000, "lui", Reg(PhysReg("r", 8)), Imm(0x1234))
    compile_and_run(r2000, state, lui)
    ori = instr(
        r2000, "ori", Reg(PhysReg("r", 9)), Reg(PhysReg("r", 8)), Imm(0x5678)
    )
    compile_and_run(r2000, state, ori)
    assert state.read_reg(PhysReg("r", 9), "int") == 0x12345678
