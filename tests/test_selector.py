"""Unit tests for instruction selection."""

import pytest

from repro.backend.insts import Imm, Lab, Reg
from repro.backend.lower import lower_function
from repro.backend.selector import Selector
from repro.backend.values import SlotOffset, SymbolRef
from repro.errors import SelectionError
from repro.il.block import BasicBlock
from repro.il.function import ILFunction
from repro.il.node import Node
from repro.il.ops import ILOp


def cnst(v, t="int"):
    return Node(ILOp.CNST, t, (), v)


def select(target, build):
    """build(fn, block) fills one block; returns the selected MBlock."""
    fn = ILFunction("f", "int")
    block = BasicBlock("f")
    fn.blocks.append(block)
    build(fn, block)
    lower_function(fn, target)
    mfn = Selector(target).select_function(fn)
    return mfn.blocks[0]


def mnemonics(block):
    return [i.desc.mnemonic for i in block.instrs]


def test_immediate_form_preferred(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        value = Node(ILOp.ADD, "int", (Node(ILOp.REG, "int", (), x), cnst(5)))
        block.append(Node(ILOp.SETREG, None, (value,), d))

    block = select(toyp, build)
    assert mnemonics(block) == ["addi"]


def test_register_form_when_no_immediate_fits(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        value = Node(
            ILOp.ADD, "int", (Node(ILOp.REG, "int", (), x), cnst(100000))
        )
        block.append(Node(ILOp.SETREG, None, (value,), d))

    block = select(toyp, build)
    assert mnemonics(block) == ["la", "add"]


def test_constant_zero_uses_hard_register(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        value = Node(ILOp.ADD, "int", (Node(ILOp.REG, "int", (), x), cnst(0)))
        # lowering folds x+0; use a store so the zero must materialize
        block.append(
            Node(
                ILOp.ASGN,
                None,
                (Node(ILOp.ADDRG, "int", (), "g"), cnst(0)),
            )
        )

    block = select(toyp, build)
    store = block.instrs[-1]
    assert store.desc.mnemonic == "st"
    assert store.operands[0].reg.index == 0  # r[0] hard zero


def test_load_with_identity_address(toyp):
    """A bare pointer matches m[$base + $off] with offset 0."""

    def build(fn, block):
        p = fn.new_pseudo("int", "p", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        load = Node(ILOp.INDIR, "int", (Node(ILOp.REG, "int", (), p),))
        block.append(Node(ILOp.SETREG, None, (load,), d))

    block = select(toyp, build)
    assert mnemonics(block) == ["ld"]
    assert block.instrs[0].operands[2] == Imm(0)


def test_load_folds_constant_offset(toyp):
    def build(fn, block):
        p = fn.new_pseudo("int", "p", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        address = Node(ILOp.ADD, "int", (Node(ILOp.REG, "int", (), p), cnst(12)))
        block.append(
            Node(ILOp.SETREG, None, (Node(ILOp.INDIR, "int", (address,)),), d)
        )

    block = select(toyp, build)
    assert mnemonics(block) == ["ld"]
    assert block.instrs[0].operands[2] == Imm(12)


def test_large_offset_materializes_address(toyp):
    def build(fn, block):
        p = fn.new_pseudo("int", "p", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        address = Node(
            ILOp.ADD, "int", (Node(ILOp.REG, "int", (), p), cnst(70000))
        )
        block.append(
            Node(ILOp.SETREG, None, (Node(ILOp.INDIR, "int", (address,)),), d)
        )

    block = select(toyp, build)
    assert mnemonics(block)[-1] == "ld"
    assert len(block.instrs) > 1  # address computed into a register


def test_cse_forced_into_register(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        shared = Node(ILOp.MUL, "int", (Node(ILOp.REG, "int", (), x), Node(ILOp.REG, "int", (), x)))
        total = Node(ILOp.ADD, "int", (shared, shared))
        block.append(Node(ILOp.SETREG, None, (total,), d))

    block = select(toyp, build)
    assert mnemonics(block).count("mul") == 1  # computed once, reused


def test_branch_direct_pattern(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        condition = Node(ILOp.EQ, "int", (Node(ILOp.REG, "int", (), x), cnst(0)))
        block.append(Node(ILOp.CJUMP, None, (condition,), "L"))
        block.append(Node(ILOp.JUMP, None, (), "M"))

    block = select(toyp, build)
    assert mnemonics(block) == ["beq0", "jmp"]
    assert block.instrs[0].operands[1] == Lab("L")


def test_branch_through_glue(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        y = fn.new_pseudo("int", "y", is_global=True)
        condition = Node(
            ILOp.LT,
            "int",
            (Node(ILOp.REG, "int", (), x), Node(ILOp.REG, "int", (), y)),
        )
        block.append(Node(ILOp.CJUMP, None, (condition,), "L"))
        block.append(Node(ILOp.JUMP, None, (), "M"))

    block = select(toyp, build)
    assert mnemonics(block) == ["cmp", "blt0", "jmp"]


def test_branch_slt_idiom_on_r2000(r2000):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        y = fn.new_pseudo("int", "y", is_global=True)
        condition = Node(
            ILOp.LT,
            "int",
            (Node(ILOp.REG, "int", (), x), Node(ILOp.REG, "int", (), y)),
        )
        block.append(Node(ILOp.CJUMP, None, (condition,), "L"))
        block.append(Node(ILOp.JUMP, None, (), "M"))

    block = select(r2000, build)
    assert mnemonics(block) == ["slt", "bne", "j"]
    bne = block.instrs[1]
    assert bne.operands[1].reg.index == 0  # compared against hard zero


def test_fp_compare_uses_condition_register_on_r2000(r2000):
    def build(fn, block):
        x = fn.new_pseudo("double", "x", is_global=True)
        y = fn.new_pseudo("double", "y", is_global=True)
        condition = Node(
            ILOp.LT,
            "int",
            (Node(ILOp.REG, "double", (), x), Node(ILOp.REG, "double", (), y)),
        )
        block.append(Node(ILOp.CJUMP, None, (condition,), "L"))
        block.append(Node(ILOp.JUMP, None, (), "M"))

    block = select(r2000, build)
    assert mnemonics(block) == ["c.lt.d", "bc1t", "j"]
    fcc_pseudo = block.instrs[0].operands[0].reg
    assert fcc_pseudo.set_name == "fcc"


def test_big_constant_splits_on_r2000(r2000):
    def build(fn, block):
        d = fn.new_pseudo("int", "d", is_global=True)
        block.append(Node(ILOp.SETREG, None, (cnst(0x12345678),), d))

    block = select(r2000, build)
    assert mnemonics(block) == ["lui", "ori"]
    assert block.instrs[0].operands[1] == Imm(0x1234)
    assert block.instrs[1].operands[2] == Imm(0x5678)


def test_symbol_address_selected(toyp):
    def build(fn, block):
        d = fn.new_pseudo("int", "d", is_global=True)
        block.append(
            Node(ILOp.SETREG, None, (Node(ILOp.ADDRG, "int", (), "gv"),), d)
        )

    block = select(toyp, build)
    assert mnemonics(block) == ["la"]
    assert block.instrs[0].operands[1] == Imm(SymbolRef("gv"))


def test_frame_slot_load_uses_fp(toyp):
    def build(fn, block):
        slot = fn.new_slot(8, 8, name="x")
        d = fn.new_pseudo("double", "d", is_global=True)
        load = Node(
            ILOp.INDIR, "double", (Node(ILOp.ADDRL, "int", (), slot),)
        )
        block.append(Node(ILOp.SETREG, None, (load,), d))

    block = select(toyp, build)
    assert mnemonics(block) == ["ld.d"]
    instr = block.instrs[0]
    assert instr.operands[1].reg == toyp.cwvm.fp
    assert isinstance(instr.operands[2].value, SlotOffset)


def test_call_emits_arg_moves_and_clobbers(toyp):
    def build(fn, block):
        x = fn.new_pseudo("int", "x", is_global=True)
        d = fn.new_pseudo("int", "d", is_global=True)
        call = Node(ILOp.CALL, "int", (Node(ILOp.REG, "int", (), x),), "g")
        block.append(Node(ILOp.SETREG, None, (call,), d))

    block = select(toyp, build)
    names = mnemonics(block)
    assert "call" in names
    call = next(i for i in block.instrs if i.desc.mnemonic == "call")
    assert toyp.cwvm.arg_register("int", 0) in call.implicit_uses
    assert toyp.cwvm.retaddr in call.implicit_defs
    assert call.branch_target() == "g"


def test_return_moves_result(toyp):
    def build(fn, block):
        x = fn.new_pseudo("double", "x", is_global=True)
        block.append(Node(ILOp.RET, None, (Node(ILOp.REG, "double", (), x),)))

    block = select(toyp, build)
    assert mnemonics(block) == ["*movd", "ret"]
    ret = block.instrs[-1]
    assert toyp.cwvm.results["double"] in ret.implicit_uses


def test_unselectable_raises(toyp):
    def build(fn, block):
        x = fn.new_pseudo("float", "x", is_global=True)
        d = fn.new_pseudo("float", "d", is_global=True)
        value = Node(
            ILOp.ADD,
            "float",
            (Node(ILOp.REG, "float", (), x), Node(ILOp.REG, "float", (), x)),
        )
        block.append(Node(ILOp.SETREG, None, (value,), d))

    # TOYP has no float instruction set or general float registers
    with pytest.raises(SelectionError):
        select(toyp, build)


def test_i860_fp_ops_expand_to_suboperations(i860):
    def build(fn, block):
        x = fn.new_pseudo("double", "x", is_global=True)
        y = fn.new_pseudo("double", "y", is_global=True)
        d = fn.new_pseudo("double", "d", is_global=True)
        value = Node(
            ILOp.MUL,
            "double",
            (Node(ILOp.REG, "double", (), x), Node(ILOp.REG, "double", (), y)),
        )
        block.append(Node(ILOp.SETREG, None, (value,), d))

    block = select(i860, build)
    assert mnemonics(block) == ["M1", "M2", "M3", "FWBM"]


# -- the root-operator index against the full ordered scan ------------------


def _ordered_scan(self, node, dest, want_set=None):
    """The reference: every value pattern, in description order, behind
    the result-type check."""
    from repro.backend.selector import _MatchFailure

    for pattern in self.value_patterns:
        if not self._result_type_ok(pattern, node, want_set):
            continue
        checkpoint = self._checkpoint()
        try:
            bindings = {}
            self._match(pattern.root, node, bindings, identity_ok=False)
            return self._emit_value(pattern, node, bindings, dest)
        except _MatchFailure:
            self._rollback(checkpoint)
    return None


def test_pattern_index_matches_the_ordered_scan(all_targets, monkeypatch):
    """Indexing value patterns by root operator emits what trying every
    pattern in order emits, on every target under every strategy."""
    import repro
    from repro.backend.asmprinter import format_program
    from repro.workloads import PROGRAM_SUITE, kernel_by_id

    programs = [(p.name, p.source) for p in PROGRAM_SUITE]
    programs += [(f"K{k}", kernel_by_id(k).source) for k in (1, 7, 9)]

    def listings():
        out = {}
        for name, target in all_targets.items():
            for strategy in ("postpass", "ips", "rase"):
                options = repro.CompileOptions(strategy=strategy)
                for program, source in programs:
                    exe = repro.compile_c(source, target, options)
                    out[name, strategy, program] = format_program(
                        exe.machine_program, explain=True
                    )
        return out

    indexed = listings()
    monkeypatch.setattr(Selector, "_try_value_patterns", _ordered_scan)
    scanned = listings()
    assert len(indexed) == 96
    for unit, listing in indexed.items():
        assert listing == scanned[unit], unit


def test_first_listed_pattern_of_a_root_op_wins():
    """Three loads share the root operator INDIR: one into the double
    set, listed first, then two into the integer set.  Each load takes
    the first listed pattern into its own set, with the index and with
    the ordered scan."""
    from repro.cgg import build_target
    from repro.targets.toyp import TOYP_MARIL

    ld = "    %instr ld r, r, #const16 (int)"
    assert TOYP_MARIL.count(ld) == 1
    text = TOYP_MARIL.replace(
        ld,
        "    %instr ldd2 d, r, #const16 (double) {$1 = m[$2 + $3];}\n"
        "        [IF; ID; IE; IA; IA; IW] (1,4,0);\n"
        "    %instr ldw r, r, #const16 (int) {$1 = m[$2 + $3];}\n"
        "        [IF; ID; IE; IA; IW] (1,3,0);\n" + ld,
    )
    target = build_target(text, name="toyp-loads")

    def build(fn, block):
        p = fn.new_pseudo("int", "p", is_global=True)
        i = fn.new_pseudo("int", "i", is_global=True)
        x = fn.new_pseudo("double", "x", is_global=True)
        address = Node(ILOp.REG, "int", (), p)
        block.append(
            Node(ILOp.SETREG, None, (Node(ILOp.INDIR, "int", (address,)),), i)
        )
        block.append(
            Node(ILOp.SETREG, None, (Node(ILOp.INDIR, "double", (address,)),), x)
        )

    assert mnemonics(select(target, build)) == ["ldw", "ldd2"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Selector, "_try_value_patterns", _ordered_scan)
        assert mnemonics(select(target, build)) == ["ldw", "ldd2"]
