"""Instruction selection (paper section 2.1).

A recursive-descent brute-force tree pattern matcher: for each IL tree the
selector tries the target's patterns *in description order*, taking the
first whose structure, types and immediate ranges fit, then recursively
reduces register-operand subtrees.  If a subtree cannot be reduced the
whole attempt is rolled back and the next pattern is tried.  When no
pattern matches, the glue transformer rewrites the node and selection
retries (section 3.4); ``*func`` escapes emit instruction sequences through
:class:`FuncContext`.

Local common subexpressions (IL nodes with more than one parent) are forced
into pseudo-registers unless they are constants an addressing mode or
immediate operand can subsume.
"""

from __future__ import annotations

from functools import cached_property

from repro.backend.glue import GlueTransformer
from repro.backend.insts import Imm, Lab, MachineInstr, Reg, make_instr
from repro.backend.mfunc import MBlock, MFunction
from repro.backend.values import immediate_fits
from repro.cgg.patterns import (
    PatConst,
    PatNode,
    PatOp,
    PatOperand,
    Pattern,
    PatternKind,
)
from repro.errors import SelectionError
from repro.il.function import ILFunction, ILProgram
from repro.il.node import Node, PseudoReg, count_parents
from repro.il.ops import ILOp
from repro.machine.instruction import InstrDesc, InstrKind, OperandMode
from repro.machine.registers import PhysReg
from repro.machine.target import TargetMachine

_MAX_GLUE_DEPTH = 8


class _MatchFailure(Exception):
    """Internal: the current pattern attempt cannot complete."""


class FuncContext:
    """The interface exported to ``*func`` escape functions (section 3.4).

    A func receives its bound operands and emits individually schedulable
    instructions via :meth:`emit` / :meth:`emit_labelled`.
    """

    def __init__(self, target: TargetMachine, emit, operands=(), new_pseudo=None):
        self.target = target
        self._emit = emit
        self._operands = list(operands)
        self._new_pseudo = new_pseudo

    def reg_operand(self, position: int):
        """The register bound at operand ``position`` (0-based)."""
        operand = self._operands[position]
        if not isinstance(operand, Reg):
            raise SelectionError(
                f"func operand {position} is not a register: {operand}"
            )
        return operand.reg

    def imm_operand(self, position: int):
        operand = self._operands[position]
        if not isinstance(operand, Imm):
            raise SelectionError(
                f"func operand {position} is not an immediate: {operand}"
            )
        return operand.value

    def reg(self, set_name: str, index: int) -> PhysReg:
        return PhysReg(set_name, index)

    def new_pseudo(self, type_name: str) -> PseudoReg:
        if self._new_pseudo is None:
            raise SelectionError("this func context cannot create pseudo-registers")
        return self._new_pseudo(type_name)

    def emit(self, mnemonic: str, *operands, comment: str = "") -> MachineInstr:
        desc = self.target.instruction(mnemonic)
        return self._emit_desc(desc, operands, comment)

    def emit_labelled(self, label: str, *operands, comment: str = "") -> MachineInstr:
        desc = self.target.instruction_by_label(label)
        return self._emit_desc(desc, operands, comment)

    def _emit_desc(self, desc: InstrDesc, operands, comment: str) -> MachineInstr:
        wrapped = [self._wrap(op) for op in operands]
        # pad with None so fixed-register slots auto-fill
        while len(wrapped) < len(desc.operands):
            wrapped.append(None)
        instr = make_instr(desc, wrapped, comment=comment)
        self._emit(instr)
        return instr

    @staticmethod
    def _wrap(operand):
        if isinstance(operand, (Reg, Imm, Lab)) or operand is None:
            return operand
        if isinstance(operand, (PhysReg, PseudoReg)):
            return Reg(operand)
        if isinstance(operand, (int, float)) or operand.__class__.__name__ in (
            "SlotOffset",
            "SymbolRef",
            "HighHalf",
            "LowHalf",
        ):
            return Imm(operand)
        if isinstance(operand, str):
            return Lab(operand)
        raise SelectionError(f"cannot wrap func operand {operand!r}")


class Selector:
    """Per-function instruction selection."""

    def __init__(self, target: TargetMachine, program: ILProgram | None = None):
        self.target = target
        self.program = program
        self.glue = GlueTransformer(target)
        self.value_patterns = [
            p
            for p in target.pattern_order
            if p.kind is PatternKind.VALUE and not self._is_bare_reg_pattern(p)
        ]
        #: (node op, wanted set, node type) -> the value patterns that can
        #: match such a node, in description order; filled on first use
        self._value_index: dict[tuple, list[Pattern]] = {}
        self.store_patterns = [
            p for p in target.pattern_order if p.kind is PatternKind.STORE
        ]
        self.branch_patterns = [
            p for p in target.pattern_order if p.kind is PatternKind.BRANCH
        ]
        self.jump_patterns = [
            p for p in target.pattern_order if p.kind is PatternKind.JUMP
        ]
        self._call_desc = self._find_kind(InstrKind.CALL)
        self._ret_desc = self._find_kind(InstrKind.RET)

    @staticmethod
    def _is_bare_reg_pattern(pattern: Pattern) -> bool:
        root = pattern.root
        return isinstance(root, PatOperand) and root.spec.mode in (
            OperandMode.REG,
            OperandMode.FIXED_REG,
        )

    @staticmethod
    def _root_op(pattern: Pattern) -> ILOp | None:
        """The operator a node needs for ``pattern``'s root to match it
        without the identity form; None if no node can."""
        root = pattern.root
        if isinstance(root, PatOp):
            return root.op
        if isinstance(root, PatConst) or root.spec.mode is OperandMode.IMM:
            return ILOp.CNST
        return None

    def _find_kind(self, kind: InstrKind) -> InstrDesc | None:
        for desc in self.target.instructions.values():
            if desc.kind is kind:
                return desc
        return None

    # -- function-level driver ------------------------------------------------

    def select_function(self, fn: ILFunction) -> MFunction:
        """Select every block of ``fn``, binding parameters on entry."""
        mfn = MFunction(
            name=fn.name, return_type=fn.return_type, pseudo_ids=fn.pseudo_ids
        )
        mfn.frame_slots = list(fn.frame_slots)
        mfn.params = list(fn.params)
        self._fn = fn
        self._mfn = mfn

        for il_block in fn.blocks:
            block = MBlock(label=il_block.label, loop_depth=il_block.loop_depth)
            block.successors = [s.label for s in il_block.successors]
            mfn.blocks.append(block)
            self.block = block
            self.node_reg: dict[int, Reg] = {}
            self._cse_log: list[int] = []
            parents = count_parents(il_block.statements)
            self.forced = {
                node_id
                for node_id, count in parents.items()
                if count >= 2
            }
            if il_block is fn.entry:
                self._bind_parameters(fn)
            for stmt in il_block.statements:
                self.select_statement(stmt)
        return mfn

    def _bind_parameters(self, fn: ILFunction) -> None:
        """Move incoming argument registers into parameter pseudos."""
        counts: dict[str, int] = {}
        for param in fn.params:
            index = counts.get(param.type, 0)
            counts[param.type] = index + 1
            arg_reg = self.target.cwvm.arg_register(param.type, index)
            if arg_reg is None:
                raise SelectionError(
                    f"{fn.name}: no argument register for {param.type} "
                    f"parameter #{index + 1} (register-args only)"
                )
            self.emit_move(param, arg_reg, comment=f"param {param}")

    # -- statement dispatch ---------------------------------------------------

    def select_statement(self, node: Node) -> None:
        """Dispatch one IL statement root to its selection routine."""
        if node.op is ILOp.SETREG:
            value = node.kids[0]
            if value.op is ILOp.CALL:
                self.select_call(value, dest=node.value)
            else:
                self.select_value_into(node.value, value)
            self._forget_homes(node.value, keep=value)
        elif node.op is ILOp.ASGN:
            self.select_store(node)
        elif node.op is ILOp.CJUMP:
            self.select_branch(node)
        elif node.op is ILOp.JUMP:
            self.select_jump(node)
        elif node.op is ILOp.CALL:
            self.select_call(node, dest=None)
        elif node.op is ILOp.RET:
            self.select_ret(node)
        else:
            raise SelectionError(f"cannot select statement {node}")

    # -- emission plumbing ------------------------------------------------------

    def emit(self, instr: MachineInstr) -> None:
        self.block.append(instr)

    def _checkpoint(self):
        return len(self.block.instrs), len(self._cse_log)

    def _rollback(self, checkpoint) -> None:
        instr_count, cse_count = checkpoint
        del self.block.instrs[instr_count:]
        for node_id in self._cse_log[cse_count:]:
            self.node_reg.pop(node_id, None)
        del self._cse_log[cse_count:]

    def _record(self, node: Node, reg: Reg) -> None:
        self.node_reg[id(node)] = reg
        self._cse_log.append(id(node))

    def _forget_homes(self, dest: PseudoReg, keep: Node) -> None:
        """A SETREG just overwrote ``dest``: drop every recorded value
        homed there except ``keep``'s, so a later use of a shared node
        recomputes it instead of reading the new contents."""
        stale = [
            node_id
            for node_id, reg in self.node_reg.items()
            if reg.reg is dest and node_id != id(keep)
        ]
        for node_id in stale:
            del self.node_reg[node_id]

    def new_pseudo(self, type_name: str) -> PseudoReg:
        return self._fn.new_pseudo(type_name)

    def func_context(self, operands) -> FuncContext:
        return FuncContext(
            self.target, self.emit, operands, new_pseudo=self.new_pseudo
        )

    # -- moves ---------------------------------------------------------------

    def set_for_type(self, type_name: str) -> str:
        set_name = self.target.cwvm.general.get(type_name)
        if set_name is None:
            raise SelectionError(
                f"target {self.target.name} has no general register set for "
                f"{type_name}"
            )
        return set_name

    def emit_move(self, dst, src, comment: str = "") -> None:
        """Move between registers (pseudo or physical) of the same type."""
        if isinstance(dst, PseudoReg):
            set_name = dst.set_name or self.set_for_type(dst.type)
        else:
            set_name = dst.set_name
        desc = self.target.move_for_set(set_name)
        operands: list[object] = [None] * len(desc.operands)
        operands[desc.def_operands[0]] = Reg(dst)
        operands[desc.use_operands[0]] = Reg(src)
        self.emit(make_instr(desc, operands, comment=comment))

    # -- value selection ---------------------------------------------------------

    def _reg_set_of(self, reg) -> str:
        if isinstance(reg, PseudoReg):
            return reg.set_name or self.set_for_type(reg.type)
        return reg.set_name

    def select_value(
        self, node: Node, depth: int = 0, want_set: str | None = None
    ) -> Reg:
        if want_set is None:
            want_set = self.set_for_type(node.type or "int")
        cached = self.node_reg.get(id(node))
        if cached is not None and self._reg_set_of(cached.reg) == want_set:
            return cached
        if node.op is ILOp.REG:
            if self._reg_set_of(node.value) != want_set:
                raise SelectionError(
                    f"{node} lives in {self._reg_set_of(node.value)}, "
                    f"needed {want_set}"
                )
            return Reg(node.value)
        if node.op is ILOp.CNST and isinstance(node.value, int):
            hard = self.target.hard_register_for_value(node.value, want_set)
            if hard is not None:
                return Reg(hard)

        reg = self._try_value_patterns(node, dest=None, want_set=want_set)
        if reg is None:
            reg = self._try_value_glue(
                node, dest=None, depth=depth, want_set=want_set
            )
        if reg is None:
            raise SelectionError(
                f"no pattern matches {node} (type {node.type}) on "
                f"{self.target.name}"
            )
        if id(node) in self.forced:
            self._record(node, reg)
        return reg

    def select_value_into(self, dest: PseudoReg, node: Node) -> None:
        """Select ``node`` so its result lands in ``dest`` (SETREG roots)."""
        # reuse of an existing register value is a plain move
        cached = self.node_reg.get(id(node))
        if cached is not None:
            self.emit_move(dest, cached.reg)
            return
        if node.op is ILOp.REG:
            self.emit_move(dest, node.value)
            return
        if node.op is ILOp.CNST and isinstance(node.value, int):
            set_name = self.set_for_type(node.type or "int")
            hard = self.target.hard_register_for_value(node.value, set_name)
            if hard is not None:
                self.emit_move(dest, hard)
                return
        want_set = dest.set_name or self.set_for_type(dest.type)
        reg = self._try_value_patterns(node, dest=dest, want_set=want_set)
        if reg is None:
            reg = self._try_value_glue(
                node, dest=dest, depth=0, want_set=want_set
            )
        if reg is None:
            raise SelectionError(
                f"no pattern matches {node} (type {node.type}) on "
                f"{self.target.name}"
            )
        if id(node) in self.forced:
            self._record(node, Reg(dest))

    def _try_value_patterns(
        self, node: Node, dest: PseudoReg | None, want_set: str | None = None
    ) -> Reg | None:
        # a root of another operator fails before it emits anything, so
        # skipping it keeps section 2.1's first-match order
        key = (node.op, want_set, node.type)
        patterns = self._value_index.get(key)
        if patterns is None:
            patterns = self._value_index[key] = [
                pattern
                for pattern in self.value_patterns
                if self._root_op(pattern) is node.op
                and self._result_type_ok(pattern, node, want_set)
            ]
        for pattern in patterns:
            checkpoint = self._checkpoint()
            try:
                bindings: dict[int, object] = {}
                self._match(pattern.root, node, bindings, identity_ok=False)
                return self._emit_value(pattern, node, bindings, dest)
            except _MatchFailure:
                self._rollback(checkpoint)
        return None

    def _try_value_glue(
        self, node: Node, dest, depth: int, want_set: str | None = None
    ) -> Reg | None:
        if depth >= _MAX_GLUE_DEPTH:
            return None
        rewritten = self.glue.rewrite_value(node)
        if rewritten is None:
            return None
        if dest is None:
            return self.select_value(rewritten, depth=depth + 1, want_set=want_set)
        reg = self._try_value_patterns(rewritten, dest=dest, want_set=want_set)
        if reg is None:
            reg = self._try_value_glue(
                rewritten, dest=dest, depth=depth + 1, want_set=want_set
            )
        return reg

    def _result_type_ok(
        self, pattern: Pattern, node: Node, want_set: str | None = None
    ) -> bool:
        node_type = node.type or "int"
        desc = pattern.desc
        if pattern.def_position is None:
            return False
        spec = desc.operands[pattern.def_position]
        if spec.mode not in (OperandMode.REG, OperandMode.FIXED_REG):
            return False
        if want_set is not None and spec.set_name != want_set:
            return False
        if desc.type is not None:
            return desc.type == node_type
        rset = self.target.registers.set(spec.set_name)
        return node_type in rset.types

    # -- the matcher --------------------------------------------------------------

    def _match(self, pat: PatNode, node: Node, bindings, identity_ok: bool) -> None:
        if isinstance(pat, PatOp):
            self._match_op(pat, node, bindings, identity_ok)
        elif isinstance(pat, PatConst):
            if node.op is not ILOp.CNST or node.value != pat.value:
                raise _MatchFailure
        elif isinstance(pat, PatOperand):
            self._match_operand(pat, node, bindings)
        else:
            raise _MatchFailure

    def _match_op(self, pat: PatOp, node: Node, bindings, identity_ok: bool) -> None:
        if pat.op is ILOp.CVT:
            if node.op is not ILOp.CVT or node.type != pat.type:
                raise _MatchFailure
            self._match(pat.kids[0], node.kids[0], bindings, identity_ok=False)
            return
        if node.op is pat.op and len(node.kids) == len(pat.kids):
            checkpoint = self._checkpoint()
            saved_bindings = dict(bindings)
            try:
                for position, (pat_kid, node_kid) in enumerate(
                    zip(pat.kids, node.kids)
                ):
                    # addresses (kid 0 of INDIR/ASGN) may use the identity
                    # base+0 form so `m[$b + $off]` matches a bare pointer
                    kid_identity = (
                        pat.op in (ILOp.INDIR, ILOp.ASGN) and position == 0
                    )
                    self._match(pat_kid, node_kid, bindings, kid_identity)
                return
            except _MatchFailure:
                self._rollback(checkpoint)
                bindings.clear()
                bindings.update(saved_bindings)
                if not self._identity_applicable(pat, node, identity_ok):
                    raise
        elif not self._identity_applicable(pat, node, identity_ok):
            raise _MatchFailure
        # identity form: treat `node` as `node + 0`
        base_pat, imm_pat = pat.kids
        self._match(base_pat, node, bindings, identity_ok=False)
        bindings[imm_pat.position] = Imm(0)

    @staticmethod
    def _identity_applicable(pat: PatOp, node: Node, identity_ok: bool) -> bool:
        return (
            identity_ok
            and pat.op is ILOp.ADD
            and len(pat.kids) == 2
            and isinstance(pat.kids[1], PatOperand)
            and pat.kids[1].spec.mode is OperandMode.IMM
            and pat.kids[1].spec.accepts_int(0)
        )

    def _match_operand(self, pat: PatOperand, node: Node, bindings) -> None:
        spec = pat.spec
        if spec.mode is OperandMode.REG:
            node_type = node.type or "int"
            rset = self.target.registers.set(spec.set_name)
            if node_type not in rset.types:
                raise _MatchFailure
            try:
                reg = self.select_value(node, want_set=spec.set_name)
            except SelectionError:
                raise _MatchFailure from None
            self._bind(bindings, pat.position, reg)
        elif spec.mode is OperandMode.FIXED_REG:
            fixed = PhysReg(spec.set_name, spec.reg_index)
            hard_value = self.target.cwvm.hard_registers.get(fixed)
            if (
                node.op is ILOp.CNST
                and isinstance(node.value, int)
                and hard_value == node.value
            ):
                self._bind(bindings, pat.position, Reg(fixed))
            elif node.op is ILOp.REG and node.value == fixed:
                self._bind(bindings, pat.position, Reg(fixed))
            else:
                raise _MatchFailure
        elif spec.mode is OperandMode.IMM:
            if node.op is not ILOp.CNST or not immediate_fits(node.value, spec):
                raise _MatchFailure
            self._bind(bindings, pat.position, Imm(node.value))
        else:  # LABEL operands never appear inside value trees
            raise _MatchFailure

    @staticmethod
    def _bind(bindings, position: int, operand) -> None:
        existing = bindings.get(position)
        if existing is not None and existing != operand:
            raise _MatchFailure
        bindings[position] = operand

    def _emit_value(
        self,
        pattern: Pattern,
        node: Node,
        bindings: dict[int, object],
        dest: PseudoReg | None,
    ) -> Reg:
        desc = pattern.desc
        if dest is None:
            dest = self.new_pseudo(node.type or "int")
            def_spec = desc.operands[pattern.def_position]
            if def_spec.set_name != self.set_for_type(dest.type):
                dest.set_name = def_spec.set_name
        operands: list[object] = []
        for position, spec in enumerate(desc.operands):
            if position == pattern.def_position:
                operands.append(Reg(dest))
            elif position in bindings:
                operands.append(bindings[position])
            elif spec.mode is OperandMode.FIXED_REG:
                operands.append(None)
            else:
                raise _MatchFailure
        if desc.func is not None:
            fn = self.target.funcs.get(desc.func)
            if fn is None:
                raise SelectionError(
                    f"no escape function registered for *{desc.func}"
                )
            fn(self.func_context([op if op is not None else None for op in operands]))
        else:
            self.emit(make_instr(desc, operands))
        return Reg(dest)

    # -- stores -------------------------------------------------------------------

    def select_store(self, node: Node) -> None:
        for pattern in self.store_patterns:
            checkpoint = self._checkpoint()
            try:
                bindings: dict[int, object] = {}
                self._match(pattern.root, node, bindings, identity_ok=True)
                self._emit_plain(pattern.desc, bindings)
                return
            except _MatchFailure:
                self._rollback(checkpoint)
        raise SelectionError(
            f"no store pattern matches {node} on {self.target.name}"
        )

    def _emit_plain(self, desc: InstrDesc, bindings: dict[int, object]) -> None:
        operands: list[object] = []
        for position, spec in enumerate(desc.operands):
            if position in bindings:
                operands.append(bindings[position])
            elif spec.mode is OperandMode.FIXED_REG:
                operands.append(None)
            else:
                raise _MatchFailure
        self.emit(make_instr(desc, operands))

    # -- branches -----------------------------------------------------------------

    def select_branch(self, node: Node, depth: int = 0) -> None:
        for pattern in self.branch_patterns:
            checkpoint = self._checkpoint()
            try:
                bindings: dict[int, object] = {}
                condition_pat = pattern.root.kids[0]
                self._match(condition_pat, node.kids[0], bindings, identity_ok=False)
                bindings[pattern.label_position] = Lab(str(node.value))
                self._emit_plain(pattern.desc, bindings)
                return
            except _MatchFailure:
                self._rollback(checkpoint)
        if depth < _MAX_GLUE_DEPTH:
            rewritten = self.glue.rewrite_branch(node)
            if rewritten is not None:
                self.select_branch(rewritten, depth=depth + 1)
                return
        raise SelectionError(
            f"no branch pattern matches {node} on {self.target.name}"
        )

    def select_jump(self, node: Node) -> None:
        if not self.jump_patterns:
            raise SelectionError(f"{self.target.name} has no jump instruction")
        pattern = self.jump_patterns[0]
        bindings = {pattern.label_position: Lab(str(node.value))}
        self._emit_plain(pattern.desc, bindings)

    # -- calls and returns -----------------------------------------------------------

    def select_call(self, node: Node, dest: PseudoReg | None) -> None:
        if self._call_desc is None:
            raise SelectionError(f"{self.target.name} has no call instruction")
        cwvm = self.target.cwvm
        self._mfn.has_calls = True

        counts: dict[str, int] = {}
        used_arg_regs: list[PhysReg] = []
        moves: list[tuple[PhysReg, Reg]] = []
        for arg in node.kids:
            arg_type = arg.type or "int"
            index = counts.get(arg_type, 0)
            counts[arg_type] = index + 1
            arg_reg = cwvm.arg_register(arg_type, index)
            if arg_reg is None:
                raise SelectionError(
                    f"call to {node.value}: no register for {arg_type} "
                    f"argument #{index + 1} (register-args only)"
                )
            value = self.select_value(arg)
            moves.append((arg_reg, value))
            used_arg_regs.append(arg_reg)
        for arg_reg, value in moves:
            self.emit_move(arg_reg, value.reg, comment="call arg")

        operands: list[object] = []
        for spec in self._call_desc.operands:
            if spec.mode is OperandMode.LABEL:
                operands.append(Lab(str(node.value)))
            elif spec.mode is OperandMode.FIXED_REG:
                operands.append(None)
            else:
                raise SelectionError("call instruction has unexpected operands")
        call = make_instr(self._call_desc, operands)
        call.implicit_uses = used_arg_regs + [cwvm.sp]
        call.implicit_defs = list(self._call_clobbers)
        self.emit(call)

        if dest is not None:
            result_reg = cwvm.result_register(dest.type)
            if result_reg is None:
                raise SelectionError(f"no result register for type {dest.type}")
            self.emit_move(dest, result_reg, comment="call result")

    @cached_property
    def _call_clobbers(self) -> tuple[PhysReg, ...]:
        """The registers a call overwrites, the same at every call site."""
        cwvm = self.target.cwvm
        clobbers = list(cwvm.caller_save_allocable())
        if cwvm.retaddr is not None and cwvm.retaddr not in clobbers:
            clobbers.append(cwvm.retaddr)
        for result_reg in cwvm.results.values():
            if result_reg not in clobbers:
                clobbers.append(result_reg)
        return tuple(clobbers)

    def select_ret(self, node: Node) -> None:
        if self._ret_desc is None:
            raise SelectionError(f"{self.target.name} has no ret instruction")
        cwvm = self.target.cwvm
        implicit_uses: list[PhysReg] = []
        if node.kids:
            value = node.kids[0]
            result_reg = cwvm.result_register(value.type or "int")
            if result_reg is None:
                raise SelectionError(
                    f"no result register for type {value.type}"
                )
            reg = self.select_value(value)
            self.emit_move(result_reg, reg.reg, comment="return value")
            implicit_uses.append(result_reg)
        if cwvm.retaddr is not None:
            implicit_uses.append(cwvm.retaddr)
        ret = make_instr(self._ret_desc, [None] * len(self._ret_desc.operands))
        ret.implicit_uses = implicit_uses
        self.emit(ret)
