"""Lower checked C ASTs to the IL of :mod:`repro.il`.

Following the paper (section 2.1): user scalars that may reside in
registers become *global pseudo-registers*; local common subexpressions are
detected by block-local value numbering, so repeated pure expressions share
one IL node (a node with more than one parent, which the selector forces
into a register); double/float literals go to a pooled data segment.
Short-circuit logic, loops and comparisons lower to explicit control flow;
calls are flattened into their own statements so argument registers cannot
be clobbered by nested calls.
"""

from __future__ import annotations

import itertools

from repro.errors import CSemanticError
from repro.frontend import cast as C
from repro.frontend.cparser import parse_c
from repro.frontend.csema import CheckedUnit, check_unit
from repro.il.block import BasicBlock
from repro.il.function import GlobalVar, ILFunction, ILProgram
from repro.il.node import FrameSlot, Node, PseudoIds, PseudoReg
from repro.il.ops import ILOp

_SIZE = {"int": 4, "float": 4, "double": 8}

_BINARY_IL = {
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
}

_NEGATED = {
    ILOp.EQ: ILOp.NE,
    ILOp.NE: ILOp.EQ,
    ILOp.LT: ILOp.GE,
    ILOp.LE: ILOp.GT,
    ILOp.GT: ILOp.LE,
    ILOp.GE: ILOp.LT,
}


def compile_to_il(source: str, filename: str = "<c>") -> ILProgram:
    """Parse, check and lower a C translation unit to an IL program."""
    unit = parse_c(source, filename)
    checked = check_unit(unit)
    return _Generator(checked).run()


class _Generator:
    def __init__(self, checked: CheckedUnit):
        self.checked = checked
        self.program = ILProgram()
        self.pseudo_ids = PseudoIds()
        self.label_counter = itertools.count(1)
        self.float_pool: dict[tuple[str, float], str] = {}

    def run(self) -> ILProgram:
        for decl in self.checked.unit.globals:
            initial = list(decl.init) if decl.init is not None else None
            count = 1
            for dim in decl.type.dims:
                count *= dim
            if initial is not None:
                if len(initial) > count:
                    raise CSemanticError(
                        f"too many initializers for {decl.name}", decl.location
                    )
                caster = float if decl.type.base != "int" else int
                initial = [caster(v) for v in initial]
            self.program.globals[decl.name] = GlobalVar(
                name=decl.name, type=decl.type.base, count=count, initial=initial
            )
        for fn in self.checked.unit.functions:
            self.program.functions.append(self._lower_function(fn))
        return self.program

    # -- function state -----------------------------------------------------------

    def _lower_function(self, fn: C.FunctionDef) -> ILFunction:
        return_type = None if fn.return_type.base == "void" else fn.return_type.base
        self.fn = ILFunction(fn.name, return_type, pseudo_ids=self.pseudo_ids)
        self.vars: dict[str, PseudoReg] = {}
        self.slots: dict[str, FrameSlot] = {}
        self.block: BasicBlock | None = None
        self.loop_depth = 0
        self.break_targets: list[BasicBlock] = []
        self.continue_targets: list[BasicBlock] = []
        self._value_table: dict = {}
        self._reg_version: dict[int, int] = {}
        self._memory_epoch = 0

        scope = self.checked.locals[fn.name]
        for param in fn.params:
            pseudo = self.fn.new_pseudo(
                param.type.base, name=param.name, is_global=True
            )
            self.vars[param.name] = pseudo
            self.fn.params.append(pseudo)
        for name, symbol in scope.items():
            if symbol.kind == "param":
                continue
            if symbol.type.is_array:
                size = _SIZE[symbol.type.base]
                count = 1
                for dim in symbol.type.dims:
                    count *= dim
                self.slots[name] = self.fn.new_slot(
                    size * count, align=_SIZE[symbol.type.base], name=name
                )
            else:
                self.vars[name] = self.fn.new_pseudo(
                    symbol.type.base, name=name, is_global=True
                )

        entry = self._new_block(fn.name)
        self._set_block(entry)
        self._lower_block(fn.body)
        self._ensure_terminated(return_type)
        self._prune_unreachable()
        return self.fn

    def _new_block(self, label: str | None = None) -> BasicBlock:
        if label is None:
            label = f"{self.fn.name}.L{next(self.label_counter)}"
        block = BasicBlock(label, loop_depth=self.loop_depth)
        self.fn.blocks.append(block)
        return block

    def _set_block(self, block: BasicBlock | None) -> None:
        self.block = block
        # value numbering is block-local
        self._value_table = {}
        self._reg_version = {}
        self._memory_epoch = 0

    def _emit(self, stmt: Node) -> None:
        if self.block is not None:
            self.block.append(stmt)

    def _ensure_terminated(self, return_type: str | None) -> None:
        if self.block is None:
            return
        if self.block.terminator is None:
            if return_type is None:
                self._emit(Node(ILOp.RET, None, ()))
            else:
                zero = Node(ILOp.CNST, "int", (), 0)
                value = (
                    zero
                    if return_type == "int"
                    else Node(ILOp.CVT, return_type, (zero,))
                )
                self._emit(Node(ILOp.RET, None, (value,)))

    def _prune_unreachable(self) -> None:
        reachable = set()
        stack = [self.fn.entry]
        while stack:
            block = stack.pop()
            if block.label in reachable:
                continue
            reachable.add(block.label)
            stack.extend(block.successors)
        self.fn.blocks = [b for b in self.fn.blocks if b.label in reachable]
        for block in self.fn.blocks:
            block.predecessors = [
                p for p in block.predecessors if p.label in reachable
            ]

    # -- value numbering ------------------------------------------------------------

    def _number(self, op: ILOp, type_: str | None, kids: tuple, value) -> Node:
        """Build (or reuse) a pure node via block-local value numbering."""
        if op is ILOp.REG:
            key = (op, value.id, self._reg_version.get(value.id, 0))
        elif op is ILOp.CNST:
            key = (op, type_, value)
        elif op is ILOp.ADDRG:
            key = (op, value)
        elif op is ILOp.ADDRL:
            key = (op, value.id)
        elif op is ILOp.INDIR:
            key = (op, type_, tuple(id(k) for k in kids), self._memory_epoch)
        else:
            key = (op, type_, tuple(id(k) for k in kids), value)
        node = self._value_table.get(key)
        if node is None:
            node = Node(op, type_, kids, value)
            self._value_table[key] = node
        return node

    def _invalidate_memory(self) -> None:
        self._memory_epoch += 1

    def _invalidate_reg(self, pseudo: PseudoReg) -> None:
        self._reg_version[pseudo.id] = self._reg_version.get(pseudo.id, 0) + 1

    # -- statements -----------------------------------------------------------------

    def _lower_block(self, block: C.Block) -> None:
        for statement in block.statements:
            self._lower_statement(statement)

    def _lower_statement(self, statement: C.CStmt) -> None:
        if self.block is None and not isinstance(statement, C.Block):
            return  # unreachable code after return/break
        if isinstance(statement, C.Block):
            self._lower_block(statement)
        elif isinstance(statement, C.DeclStmt):
            if statement.init is not None:
                pseudo = self.vars[statement.name]
                self._assign_pseudo(pseudo, self._lower_expr(statement.init))
        elif isinstance(statement, C.ExprStmt):
            self._lower_expr_for_effect(statement.expr)
        elif isinstance(statement, C.IfStmt):
            self._lower_if(statement)
        elif isinstance(statement, C.WhileStmt):
            self._lower_while(statement)
        elif isinstance(statement, C.ForStmt):
            self._lower_for(statement)
        elif isinstance(statement, C.ReturnStmt):
            if statement.value is None:
                self._emit(Node(ILOp.RET, None, ()))
            else:
                value = self._lower_expr(statement.value)
                self._emit(Node(ILOp.RET, None, (value,)))
            self._set_block(None)
        elif isinstance(statement, C.BreakStmt):
            self._jump_to(self.break_targets[-1])
            self._set_block(None)
        elif isinstance(statement, C.ContinueStmt):
            self._jump_to(self.continue_targets[-1])
            self._set_block(None)
        else:
            raise CSemanticError(f"cannot lower statement {statement!r}")

    def _jump_to(self, target: BasicBlock) -> None:
        if self.block is None:
            return
        self._emit(Node(ILOp.JUMP, None, (), target.label))
        self.block.link_to(target)

    def _lower_if(self, statement: C.IfStmt) -> None:
        then_block = self._new_block()
        else_block = self._new_block() if statement.else_body else None
        join = self._new_block()
        self._lower_condition(
            statement.condition, then_block, else_block or join
        )
        self._set_block(then_block)
        self._lower_block(statement.then_body)
        self._jump_to(join)
        if else_block is not None:
            self._set_block(else_block)
            self._lower_block(statement.else_body)
            self._jump_to(join)
        self._set_block(join)
        if not join.predecessors:
            self.fn.blocks.remove(join)
            self._set_block(None)

    def _lower_while(self, statement: C.WhileStmt) -> None:
        head = self._new_block()
        self._jump_to(head)
        self.loop_depth += 1
        body = self._new_block()
        self.loop_depth -= 1
        exit_block = self._new_block()
        self._set_block(head)
        self.block.loop_depth = self.loop_depth + 1
        self._lower_condition(statement.condition, body, exit_block)
        self.loop_depth += 1
        self._set_block(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(head)
        self._lower_block(statement.body)
        self._jump_to(head)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.loop_depth -= 1
        self._set_block(exit_block)

    def _lower_for(self, statement: C.ForStmt) -> None:
        if statement.init is not None:
            self._lower_statement(statement.init)
        head = self._new_block()
        self._jump_to(head)
        self.loop_depth += 1
        body = self._new_block()
        step_block = self._new_block()
        self.loop_depth -= 1
        exit_block = self._new_block()
        self._set_block(head)
        self.block.loop_depth = self.loop_depth + 1
        if statement.condition is not None:
            self._lower_condition(statement.condition, body, exit_block)
        else:
            self._jump_to(body)
        self.loop_depth += 1
        self._set_block(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        self._lower_block(statement.body)
        self._jump_to(step_block)
        self._set_block(step_block)
        if statement.step is not None:
            self._lower_expr_for_effect(statement.step)
        self._jump_to(head)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.loop_depth -= 1
        self._set_block(exit_block)

    # -- conditions (short-circuit lowering) ----------------------------------------

    def _lower_condition(
        self, condition: C.CExpr, if_true: BasicBlock, if_false: BasicBlock
    ) -> None:
        if self.block is None:
            return
        if isinstance(condition, C.Logical):
            middle = self._new_block()
            if condition.op == "&&":
                self._lower_condition(condition.left, middle, if_false)
            else:
                self._lower_condition(condition.left, if_true, middle)
            self._set_block(middle)
            self._lower_condition(condition.right, if_true, if_false)
            return
        if isinstance(condition, C.Unary) and condition.op == "!":
            self._lower_condition(condition.operand, if_false, if_true)
            return
        node = self._condition_node(condition)
        # branch on the *negated* condition to if_false, so the hot/lexically
        # next block (then-body, loop body) is reached by the unconditional
        # jump that the layout pass removes when it targets the next block
        negated = Node(_NEGATED[node.op], "int", node.kids)
        self._emit(Node(ILOp.CJUMP, None, (negated,), if_false.label))
        self.block.link_to(if_false)
        self.block.link_to(if_true)
        self._emit(Node(ILOp.JUMP, None, (), if_true.label))
        self._set_block(None)

    def _condition_node(self, condition: C.CExpr) -> Node:
        if isinstance(condition, C.Binary) and condition.op in (
            "==",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            left = self._lower_expr(condition.left)
            right = self._lower_expr(condition.right)
            return Node(
                _BINARY_IL[condition.op], "int", (left, right)
            )
        value = self._lower_expr(condition)
        zero_type = value.type or "int"
        zero = (
            Node(ILOp.CNST, "int", (), 0)
            if zero_type == "int"
            else Node(ILOp.CVT, zero_type, (Node(ILOp.CNST, "int", (), 0),))
        )
        return Node(ILOp.NE, "int", (value, zero))

    # -- expressions ------------------------------------------------------------------

    def _lower_expr_for_effect(self, expr: C.CExpr) -> None:
        if isinstance(expr, C.Assign):
            self._lower_assign(expr)
        elif isinstance(expr, C.IncDec):
            one = C.IntLit(1, location=expr.location)
            one.ctype = "int"
            assign = C.Assign(
                target=expr.target,
                value=one,
                op="+=" if expr.op == "++" else "-=",
                location=expr.location,
            )
            assign.ctype = expr.target.ctype
            self._lower_assign(assign)
        elif isinstance(expr, C.Call):
            self._lower_call(expr, want_value=False)
        else:
            self._lower_expr(expr)  # value discarded; pure, so emit nothing

    def _lower_expr(self, expr: C.CExpr) -> Node:
        if isinstance(expr, C.IntLit):
            return self._number(ILOp.CNST, "int", (), expr.value)
        if isinstance(expr, C.FloatLit):
            return self._float_constant(expr.value, expr.ctype)
        if isinstance(expr, C.VarRef):
            pseudo = self.vars.get(expr.name)
            if pseudo is not None:
                return self._number(ILOp.REG, pseudo.type, (), pseudo)
            # global scalar: a memory load through its symbol
            address = self._number(ILOp.ADDRG, "int", (), expr.name)
            return self._number(ILOp.INDIR, expr.ctype, (address,), None)
        if isinstance(expr, C.Index):
            address = self._index_address(expr)
            return self._number(ILOp.INDIR, expr.ctype, (address,), None)
        if isinstance(expr, C.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, C.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, C.Logical):
            return self._materialize_bool(expr)
        if isinstance(expr, C.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, C.Call):
            return self._lower_call(expr, want_value=True)
        if isinstance(expr, C.IncDec):
            raise CSemanticError(
                "++/-- may only be used where the value is discarded "
                "(statement or for-step)",
                expr.location,
            )
        if isinstance(expr, C.Cast):
            operand = self._lower_expr(expr.operand)
            if operand.type == expr.to:
                return operand
            return self._number(ILOp.CVT, expr.to, (operand,), None)
        raise CSemanticError(f"cannot lower expression {expr!r}")

    def _float_constant(self, value: float, ctype: str) -> Node:
        key = (ctype, value)
        name = self.float_pool.get(key)
        if name is None:
            name = f".fp{len(self.float_pool)}"
            self.float_pool[key] = name
            self.program.globals[name] = GlobalVar(
                name=name, type=ctype, count=1, initial=[value]
            )
        address = self._number(ILOp.ADDRG, "int", (), name)
        return self._number(ILOp.INDIR, ctype, (address,), None)

    def _index_address(self, expr: C.Index) -> Node:
        symbol_type = None
        name = expr.base.name
        if name in self.slots:
            base = self._number(ILOp.ADDRL, "int", (), self.slots[name])
            dims = self._local_dims(name)
        else:
            base = self._number(ILOp.ADDRG, "int", (), name)
            dims = self._global_dims(name)
        element_size = _SIZE[expr.ctype]
        # row-major linearisation
        linear: Node | None = None
        for position, index in enumerate(expr.indices):
            index_node = self._lower_expr(index)
            stride = element_size
            for dim in dims[position + 1 :]:
                stride *= dim
            scaled = (
                index_node
                if stride == 1
                else self._number(
                    ILOp.MUL,
                    "int",
                    (index_node, self._number(ILOp.CNST, "int", (), stride)),
                    None,
                )
            )
            linear = (
                scaled
                if linear is None
                else self._number(ILOp.ADD, "int", (linear, scaled), None)
            )
        return self._number(ILOp.ADD, "int", (base, linear), None)

    def _local_dims(self, name: str) -> tuple[int, ...]:
        for fn_locals in self.checked.locals.values():
            if name in fn_locals:
                return fn_locals[name].type.dims
        raise CSemanticError(f"unknown local array {name!r}")

    def _global_dims(self, name: str) -> tuple[int, ...]:
        symbol = self.checked.globals.get(name)
        if symbol is None:
            raise CSemanticError(f"unknown global {name!r}")
        return symbol.type.dims

    def _lower_unary(self, expr: C.Unary) -> Node:
        if expr.op == "!":
            return self._materialize_bool(expr)
        operand = self._lower_expr(expr.operand)
        op = ILOp.NEG if expr.op == "-" else ILOp.BNOT
        return self._number(op, expr.ctype, (operand,), None)

    def _lower_binary(self, expr: C.Binary) -> Node:
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            # value-producing comparison: materialize 0/1 via control flow
            # (RISC targets may have no set-on-condition instruction)
            return self._materialize_bool(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        return self._number(_BINARY_IL[expr.op], expr.ctype, (left, right), None)

    def _materialize_bool(self, expr: C.CExpr) -> Node:
        result = self.fn.new_pseudo("int", is_global=True)
        true_block = self._new_block()
        false_block = self._new_block()
        join = self._new_block()
        join.loop_depth = self.block.loop_depth
        true_block.loop_depth = self.block.loop_depth
        false_block.loop_depth = self.block.loop_depth
        self._lower_condition(expr, true_block, false_block)
        self._set_block(true_block)
        self._emit(
            Node(ILOp.SETREG, None, (Node(ILOp.CNST, "int", (), 1),), result)
        )
        self._jump_to(join)
        self._set_block(false_block)
        self._emit(
            Node(ILOp.SETREG, None, (Node(ILOp.CNST, "int", (), 0),), result)
        )
        self._jump_to(join)
        self._set_block(join)
        return self._number(ILOp.REG, "int", (), result)

    def _assign_pseudo(self, pseudo: PseudoReg, value: Node) -> None:
        self._emit(Node(ILOp.SETREG, None, (value,), pseudo))
        self._invalidate_reg(pseudo)

    def _lower_assign(self, expr: C.Assign) -> Node:
        target = expr.target
        if expr.op != "=":
            base_op = expr.op[:-1]
            read = C.Binary(op=base_op, left=target, right=expr.value)
            read.ctype = expr.ctype
            # re-wrap as a plain assignment with the combined value; types
            # were already checked, and `target OP= v` has the target's type
            value_node = self._combined_value(target, base_op, expr.value, expr.ctype)
        else:
            value_node = self._lower_expr(expr.value)
        if isinstance(target, C.VarRef):
            pseudo = self.vars.get(target.name)
            if pseudo is not None:
                self._assign_pseudo(pseudo, value_node)
                return self._number(ILOp.REG, pseudo.type, (), pseudo)
            address = self._number(ILOp.ADDRG, "int", (), target.name)
            self._emit(Node(ILOp.ASGN, None, (address, value_node)))
            self._invalidate_memory()
            return value_node
        assert isinstance(target, C.Index)
        address = self._index_address(target)
        self._emit(Node(ILOp.ASGN, None, (address, value_node)))
        self._invalidate_memory()
        return value_node

    def _combined_value(
        self, target: C.CExpr, op: str, value: C.CExpr, ctype: str
    ) -> Node:
        current = self._lower_expr(target)
        operand = self._lower_expr(value)
        if operand.type != ctype and op not in ("<<", ">>"):
            operand = self._number(ILOp.CVT, ctype, (operand,), None)
        return self._number(_BINARY_IL[op], ctype, (current, operand), None)

    def _lower_call(self, expr: C.Call, want_value: bool) -> Node | None:
        args = tuple(self._lower_expr(arg) for arg in expr.args)
        call = Node(ILOp.CALL, expr.ctype, args, expr.name)
        self._invalidate_memory()
        if expr.ctype is None or not want_value:
            self._emit(call)
            return None
        temp = self.fn.new_pseudo(expr.ctype, is_global=True)
        self._emit(Node(ILOp.SETREG, None, (call,), temp))
        self._invalidate_reg(temp)
        return self._number(ILOp.REG, expr.ctype, (), temp)

