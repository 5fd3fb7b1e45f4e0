"""Unit tests for the code generator generator."""

import pickle

import pytest

from repro.cgg import build_target
from repro.cgg.patterns import PatConst, PatOp, PatOperand, PatternKind
from repro.il.ops import ILOp
from repro.machine.instruction import InstrKind, OperandMode
from repro.machine.registers import PhysReg

TINY = """
declare {
    %reg r[0:7] (int);
    %reg d[0:3] (double);
    %equiv d[0] r[0];
    %resource IF, EX, WB;
    %def c16 [-32768:32767];
    %label lab [-64:63] +relative;
    %memory m[0:4095];
}
cwvm {
    %general (int) r;
    %general (double) d;
    %allocable r[1:5];
    %calleesave r[4:5];
    %sp r[7] +down;
    %fp r[6] +down;
    %retaddr r[1];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %result r[2] (int);
}
instr {
    %instr addi r, r, #c16 (int) {$1 = $2 + $3;} [IF; EX; WB] (1,1,0);
    %instr add r, r, r (int) {$1 = $2 + $3;} [IF; EX; WB] (1,1,0);
    %instr ld r, r, #c16 (int) {$1 = m[$2 + $3];} [IF; EX; WB] (1,3,0);
    %instr st r, r, #c16 (int) {m[$2 + $3] = $1;} [IF; EX] (1,1,0);
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [IF] (1,2,1);
    %instr jmp #lab {goto $1;} [IF] (1,2,1);
    %instr nop {;} [IF] (1,1,0);
    %aux addi : st (1.$1 == 2.$1) (4);
}
"""


@pytest.fixture(scope="module")
def target():
    return build_target(TINY, name="tiny")


def test_register_units_simple(target):
    assert target.registers.units_of(PhysReg("r", 3)) == ((0, 3),)


def test_register_units_pair(target):
    assert target.registers.units_of(PhysReg("d", 1)) == ((0, 2), (0, 3))


def test_register_memos_stay_out_of_pickles():
    # every pickled executable carries its target, so the units memoized
    # while compiling must not ride along
    registers = build_target(TINY, name="tiny").registers
    size = len(pickle.dumps(registers))
    for rset in registers.sets.values():
        for reg in rset.registers():
            registers.unit_keys(reg)
    assert len(pickle.dumps(registers)) == size
    copy = pickle.loads(pickle.dumps(registers))
    assert copy.unit_keys(PhysReg("d", 1)) == (("u", 0, 2), ("u", 0, 3))
    assert copy.units_of(PhysReg("d", 1)) == ((0, 2), (0, 3))


def test_pair_interference(target):
    registers = target.registers
    assert registers.interfere(PhysReg("d", 1), PhysReg("r", 2))
    assert registers.interfere(PhysReg("d", 1), PhysReg("r", 3))
    assert not registers.interfere(PhysReg("d", 1), PhysReg("r", 4))


def test_file_size_covers_all_units(target):
    assert target.registers.file_sizes[0] >= 8


def test_resource_vector_bits(target):
    addi = target.instruction("addi")
    assert len(addi.resource_vector) == 3
    # each cycle uses exactly one scalar resource, no pools
    assert all(
        bin(need.mask).count("1") == 1 and not need.pools
        for need in addi.resource_vector
    )


def test_cwvm_compilation(target):
    cwvm = target.cwvm
    assert cwvm.sp == PhysReg("r", 7)
    assert cwvm.fp == PhysReg("r", 6)
    assert cwvm.retaddr == PhysReg("r", 1)
    assert cwvm.hard_registers[PhysReg("r", 0)] == 0
    assert cwvm.arg_register("int", 0) == PhysReg("r", 2)
    assert cwvm.arg_register("int", 5) is None
    assert cwvm.result_register("int") == PhysReg("r", 2)
    assert PhysReg("r", 4) in cwvm.callee_save
    assert PhysReg("r", 3) in cwvm.caller_save_allocable()


def test_instruction_kinds(target):
    assert target.instruction("addi").kind is InstrKind.NORMAL
    assert target.instruction("beq0").kind is InstrKind.BRANCH
    assert target.instruction("jmp").kind is InstrKind.JUMP
    assert target.instruction("nop").kind is InstrKind.NOP


def test_defs_uses_metadata(target):
    ld = target.instruction("ld")
    assert ld.def_operands == (0,)
    assert ld.use_operands == (1, 2)
    assert ld.reads_memory and not ld.writes_memory
    st = target.instruction("st")
    assert st.def_operands == ()
    assert st.use_operands == (0, 1, 2)
    assert st.writes_memory and not st.reads_memory


def test_branch_label_metadata(target):
    beq = target.instruction("beq0")
    assert beq.label_operands == (1,)
    assert beq.use_operands == (0,)  # the label is not a register use


def test_value_pattern_shape(target):
    pattern = target.instruction("addi").patterns[0]
    assert pattern.kind is PatternKind.VALUE
    assert pattern.def_position == 0
    root = pattern.root
    assert isinstance(root, PatOp) and root.op is ILOp.ADD
    assert isinstance(root.kids[0], PatOperand)
    assert root.kids[1].spec.mode is OperandMode.IMM


def test_load_pattern_shape(target):
    root = target.instruction("ld").patterns[0].root
    assert root.op is ILOp.INDIR
    assert root.kids[0].op is ILOp.ADD


def test_store_pattern_shape(target):
    pattern = target.instruction("st").patterns[0]
    assert pattern.kind is PatternKind.STORE
    assert pattern.root.op is ILOp.ASGN


def test_branch_pattern_shape(target):
    pattern = target.instruction("beq0").patterns[0]
    assert pattern.kind is PatternKind.BRANCH
    condition = pattern.root.kids[0]
    assert condition.op is ILOp.EQ
    assert isinstance(condition.kids[1], PatConst)
    assert condition.kids[1].value == 0


def test_nop_has_no_pattern(target):
    assert not target.instruction("nop").patterns


def test_pattern_order_preserves_description_order(target):
    mnemonics = [p.desc.mnemonic for p in target.pattern_order]
    assert mnemonics.index("addi") < mnemonics.index("add")


def test_aux_rule_compiled(target):
    rule = target.aux_latency("addi", "st")
    assert rule is not None
    assert rule.latency == 4
    assert target.aux_latency("st", "addi") is None


def test_hard_register_lookup(target):
    assert target.hard_register_for_value(0, "r") == PhysReg("r", 0)
    assert target.hard_register_for_value(1, "r") is None


def test_duplicate_mnemonics_keep_distinct_descriptors():
    text = TINY.replace(
        "%instr add r, r, r (int) {$1 = $2 + $3;} [IF; EX; WB] (1,1,0);",
        "%instr add r, r, r (int) {$1 = $2 + $3;} [IF; EX; WB] (1,1,0);"
        "%instr add r, r, #c16 (int) {$1 = $2 + $3;} [IF; EX; WB] (1,1,0);",
    )
    target = build_target(text)
    descs = [
        d for d in target.instructions.values() if d.mnemonic == "add"
    ]
    assert len(descs) == 2


def test_temporal_metadata():
    text = """
    declare {
        %reg r[0:1] (int);
        %reg d[0:1] (double);
        %clock clk;
        %reg m1 (double; clk) +temporal;
        %resource F1;
    }
    cwvm { %sp r[0]; %fp r[1]; }
    instr {
        %instr M1 d, d (double; clk) {m1 = $1 * $2;} [F1] (1,1,0);
        %instr FWB d (double; clk) {$1 = m1;} [F1] (1,1,0);
    }
    """
    target = build_target(text)
    m1 = target.instruction("M1")
    assert m1.temporal_writes == ("m1",)
    assert m1.def_operands == ()
    assert m1.affects_clock == "clk"
    fwb = target.instruction("FWB")
    assert fwb.temporal_reads == ("m1",)
    assert fwb.def_operands == (0,)
    assert target.temporal_clock("m1") == "clk"
    assert target.temporal_clock("d") is None
