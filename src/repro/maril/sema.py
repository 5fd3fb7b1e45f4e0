"""Semantic checks for parsed Maril descriptions.

A description that passes :func:`check_description` is internally
consistent: every name referenced by an instruction, cwvm directive or glue
transformation is declared, operand references ``$n`` are in range, ranges
are sane, and classes/clocks are declared before use.  The CGG can then
compile the description without re-validating.
"""

from __future__ import annotations

from repro.errors import MarilSemanticError
from repro.maril import ast

#: Valid Maril datatype names and their sizes in bits.
TYPE_SIZES = {"int": 32, "float": 32, "double": 64}


def check_description(description: ast.Description) -> None:
    _Checker(description).run()


class _Checker:
    def __init__(self, description: ast.Description):
        self.d = description
        self.reg_sets: dict[str, ast.RegDecl] = {}
        self.resources: set[str] = set()
        self.defs: dict[str, ast.DefDecl] = {}
        self.labels: dict[str, ast.LabelDecl] = {}
        self.memories: dict[str, ast.MemoryDecl] = {}
        self.clocks: set[str] = set()
        self.elements: set[str] = set()

    def fail(self, message: str, node=None) -> None:
        location = getattr(node, "location", None)
        raise MarilSemanticError(message, location)

    def run(self) -> None:
        self._check_declare()
        self._check_cwvm()
        self._collect_elements()
        self._check_instrs()

    # -- declare ------------------------------------------------------------

    def _check_declare(self) -> None:
        for decl in self.d.declare:
            if isinstance(decl, ast.RegDecl):
                self._declare_name(decl.name, decl)
                if decl.lo > decl.hi:
                    self.fail(f"register range {decl.name} is empty", decl)
                for type_name in decl.types:
                    if type_name not in TYPE_SIZES:
                        self.fail(f"unknown type {type_name!r} in %reg {decl.name}", decl)
                if decl.is_temporal and decl.clock is None:
                    self.fail(f"+temporal register {decl.name} must name a clock", decl)
                self.reg_sets[decl.name] = decl
            elif isinstance(decl, ast.ResourceDecl):
                for name in decl.names:
                    self._declare_name(name, decl)
                    self.resources.add(name)
            elif isinstance(decl, ast.DefDecl):
                self._declare_name(decl.name, decl)
                if decl.lo > decl.hi:
                    self.fail(f"%def {decl.name} range is empty", decl)
                self.defs[decl.name] = decl
            elif isinstance(decl, ast.LabelDecl):
                self._declare_name(decl.name, decl)
                self.labels[decl.name] = decl
            elif isinstance(decl, ast.MemoryDecl):
                self._declare_name(decl.name, decl)
                self.memories[decl.name] = decl
            elif isinstance(decl, ast.ClockDecl):
                self._declare_name(decl.name, decl)
                self.clocks.add(decl.name)
            elif isinstance(decl, ast.EquivDecl):
                pass  # checked below, after all %reg are known
            else:
                self.fail(f"unexpected declaration {decl!r}", decl)

        for decl in self.d.declarations(ast.EquivDecl):
            # equal sizes are allowed: the sets alias one register file with
            # different type views (e.g. the 88100's float view of r)
            self._check_regref(decl.wide, decl)
            self._check_regref(decl.narrow, decl)

        # temporal registers must name declared clocks
        for decl in self.reg_sets.values():
            if decl.clock is not None and decl.clock not in self.clocks:
                self.fail(
                    f"register {decl.name} names undeclared clock {decl.clock!r}",
                    decl,
                )

    def _declare_name(self, name: str, node) -> None:
        namespaces = (
            self.reg_sets,
            self.resources,
            self.defs,
            self.labels,
            self.memories,
            self.clocks,
        )
        if any(name in space for space in namespaces):
            self.fail(f"duplicate declaration of {name!r}", node)

    # -- cwvm -----------------------------------------------------------------

    def _check_cwvm(self) -> None:
        seen_pointer: set[str] = set()
        for decl in self.d.cwvm:
            if isinstance(decl, ast.GeneralDecl):
                self._check_type(decl.type, decl)
                self._check_regset(decl.set_name, decl)
            elif isinstance(decl, (ast.AllocableDecl, ast.CalleeSaveDecl)):
                for rng in decl.ranges:
                    self._check_regrange(rng, decl)
            elif isinstance(decl, ast.PointerDecl):
                if decl.which in seen_pointer:
                    self.fail(f"duplicate %{decl.which} declaration", decl)
                seen_pointer.add(decl.which)
                self._check_regref(decl.ref, decl)
            elif isinstance(decl, ast.RetAddrDecl):
                self._check_regref(decl.ref, decl)
            elif isinstance(decl, ast.HardDecl):
                self._check_regref(decl.ref, decl)
            elif isinstance(decl, ast.ArgDecl):
                self._check_type(decl.type, decl)
                self._check_regref(decl.ref, decl)
                if decl.index < 1:
                    self.fail("%arg index is 1-based", decl)
            elif isinstance(decl, ast.ResultDecl):
                self._check_type(decl.type, decl)
                self._check_regref(decl.ref, decl)
            else:
                self.fail(f"unexpected cwvm declaration {decl!r}", decl)
        if "sp" not in seen_pointer or "fp" not in seen_pointer:
            self.fail("cwvm must declare %sp and %fp (paper section 3.2)")

    def _check_type(self, name: str, node) -> None:
        if name not in TYPE_SIZES:
            self.fail(f"unknown type {name!r}", node)

    def _check_regset(self, name: str, node) -> None:
        if name not in self.reg_sets:
            self.fail(f"unknown register set {name!r}", node)

    def _check_regref(self, ref: ast.RegRef, node) -> None:
        self._check_regset(ref.set_name, node)
        decl = self.reg_sets[ref.set_name]
        if not decl.lo <= ref.index <= decl.hi:
            self.fail(f"register index {ref} out of range [{decl.lo}:{decl.hi}]", node)

    def _check_regrange(self, rng: ast.RegRange, node) -> None:
        self._check_regset(rng.set_name, node)
        if rng.lo is None:
            return
        decl = self.reg_sets[rng.set_name]
        if not (decl.lo <= rng.lo <= rng.hi <= decl.hi):
            self.fail(f"register range {rng} outside [{decl.lo}:{decl.hi}]", node)

    # -- instr ------------------------------------------------------------

    def _collect_elements(self) -> None:
        for decl in self.d.element_decls():
            for name in decl.names:
                if name in self.elements:
                    self.fail(f"duplicate %element {name!r}", decl)
                self.elements.add(name)

    def _check_instrs(self) -> None:
        mnemonics: set[str] = set()
        for decl in self.d.instr_decls():
            self._check_instr(decl)
            mnemonics.add(decl.mnemonic)
        for decl in self.d.aux_decls():
            for mnemonic in (decl.first, decl.second):
                if mnemonic not in mnemonics:
                    self.fail(f"%aux names unknown instruction {mnemonic!r}", decl)
            if decl.latency < 0:
                self.fail("%aux latency must be non-negative", decl)
        for decl in self.d.glue_decls():
            self._check_glue(decl)

    def _check_instr(self, decl: ast.InstrDecl) -> None:
        if decl.type is not None:
            self._check_type(decl.type, decl)
        if decl.clock is not None and decl.clock not in self.clocks:
            self.fail(
                f"instruction {decl.mnemonic} affects undeclared clock "
                f"{decl.clock!r}",
                decl,
            )
        for operand in decl.operands:
            self._check_operand_spec(operand, decl)
        for cycle in decl.resources:
            for resource in cycle:
                if resource not in self.resources:
                    self.fail(
                        f"instruction {decl.mnemonic} uses undeclared resource "
                        f"{resource!r}",
                        decl,
                    )
        for element in decl.classes:
            if element not in self.elements:
                self.fail(
                    f"instruction {decl.mnemonic} names undeclared class "
                    f"element {element!r}",
                    decl,
                )
        if decl.cost < 0 or decl.latency < 0:
            self.fail(f"instruction {decl.mnemonic}: cost/latency must be >= 0", decl)
        for stmt in decl.semantics:
            self._check_stmt(stmt, decl, len(decl.operands))

    def _check_operand_spec(self, operand: ast.OperandSpec, decl) -> None:
        if isinstance(operand, ast.RegOperand):
            self._check_regset(operand.set_name, decl)
            if operand.index is not None:
                self._check_regref(ast.RegRef(operand.set_name, operand.index), decl)
        elif isinstance(operand, ast.ImmOperand):
            if operand.def_name not in self.defs and operand.def_name not in self.labels:
                self.fail(f"unknown immediate class #{operand.def_name}", decl)
        else:
            self.fail(f"unexpected operand spec {operand!r}", decl)

    def _check_stmt(self, stmt: ast.Stmt, decl, operand_count: int) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._check_lvalue(stmt.target, decl, operand_count)
            self._check_expr(stmt.value, decl, operand_count)
        elif isinstance(stmt, ast.CondGotoStmt):
            self._check_expr(stmt.condition, decl, operand_count)
            self._check_expr(stmt.target, decl, operand_count)
        elif isinstance(stmt, (ast.GotoStmt, ast.CallStmt)):
            self._check_expr(stmt.target, decl, operand_count)
        elif isinstance(stmt, (ast.RetStmt, ast.EmptyStmt)):
            pass
        else:
            self.fail(f"unexpected statement {stmt!r}", decl)

    def _check_lvalue(self, expr: ast.Expr, decl, operand_count: int) -> None:
        if isinstance(expr, ast.OperandRef):
            self._check_operand_ref(expr, decl, operand_count)
        elif isinstance(expr, ast.NameRef):
            if expr.name not in self.reg_sets:
                self.fail(
                    f"assignment target {expr.name!r} is not a register", decl
                )
        elif isinstance(expr, ast.MemRef):
            if expr.memory not in self.memories:
                self.fail(f"unknown memory {expr.memory!r}", decl)
            self._check_expr(expr.address, decl, operand_count)
        else:
            self.fail(f"invalid assignment target {expr}", decl)

    def _check_operand_ref(self, ref: ast.OperandRef, decl, operand_count: int) -> None:
        if not 1 <= ref.index <= operand_count:
            self.fail(
                f"operand reference ${ref.index} out of range (instruction has "
                f"{operand_count} operands)",
                decl,
            )

    def _check_expr(self, expr: ast.Expr, decl, operand_count: int) -> None:
        if isinstance(expr, ast.OperandRef):
            self._check_operand_ref(expr, decl, operand_count)
        elif isinstance(expr, ast.NameRef):
            if expr.name not in self.reg_sets:
                self.fail(f"unknown name {expr.name!r} in expression", decl)
        elif isinstance(expr, (ast.IntLit, ast.FloatLit)):
            pass
        elif isinstance(expr, ast.MemRef):
            if expr.memory not in self.memories:
                self.fail(f"unknown memory {expr.memory!r}", decl)
            self._check_expr(expr.address, decl, operand_count)
        elif isinstance(expr, ast.Unary):
            self._check_expr(expr.operand, decl, operand_count)
        elif isinstance(expr, ast.Binary):
            self._check_expr(expr.left, decl, operand_count)
            self._check_expr(expr.right, decl, operand_count)
        elif isinstance(expr, ast.BuiltinCall):
            if len(expr.args) != 1:
                self.fail(f"builtin {expr.name} takes one argument", decl)
            self._check_expr(expr.args[0], decl, operand_count)
        else:
            self.fail(f"unexpected expression {expr!r}", decl)

    def _check_glue(self, decl: ast.GlueDecl) -> None:
        operand_count = len(decl.operands)
        for operand in decl.operands:
            self._check_operand_spec(operand, decl)
        for item in (decl.pattern, decl.replacement):
            if isinstance(item, ast.Stmt):
                self._check_stmt(item, decl, operand_count)
            else:
                self._check_expr(item, decl, operand_count)
