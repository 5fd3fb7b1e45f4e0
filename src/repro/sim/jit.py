"""Block-level JIT: hot straight-line segments compiled to flat Python.

The closure interpreter (:mod:`repro.sim.executor`) pays per-operand
closure dispatch, register-unit packing/unpacking and mem-log
bookkeeping on every executed instruction.  The Livermore kernels spend
essentially all dynamic instructions in a handful of loop bodies, so
once a segment entry (the same ``(entry_pc, ...)`` unit the block-timing
memo keys on in :meth:`Simulator._run_fast`) has been dispatched
:data:`JIT_WARMUP` times, :class:`SegmentTranslator` walks the segment's
Maril semantics trees and emits one flat Python function for the whole
straight-line region via source generation + ``compile()``/``exec``.

Inside the generated function:

* integer and double registers live in Python locals across the whole
  segment — loaded once at entry, stored back only at the exits (and
  only the views the path actually wrote);
* float-typed and aliased register units stay as raw 32-bit words, with
  the same prebound ``struct`` codecs the interpreter uses, so every
  value is bit-identical — including NaN payloads (floats are never
  held as typed locals because the f32<->f64 conversion can quiet a
  signaling NaN);
* memory accesses perform the data-cache tag check (pure shift/mask
  over the cache's preallocated tag array — the same arithmetic
  :meth:`DirectMappedCache.access` runs, inlined), the miss-mask and
  event-list bookkeeping, in exactly the positional order the closure
  contract requires (``executor.py`` module docstring), so the
  block-timing replay sees an indistinguishable event stream;
* conditional branches become early returns; the tail control transfer
  (and its delay slots) is compiled into the exit itself.  Every
  generated function — plain segment or superblock — shares the
  15-tuple exit contract documented on :class:`_TraceCodegen`, which
  threads the timing digest id through the call so the driver never
  re-derives it;
* a segment whose taken transfer targets its *own entry* (an innermost
  loop) is *chained*: the body is wrapped in ``while 1`` and the
  back-edge, instead of returning, commits the iteration's timing
  through an inlined transition-table probe and jumps back to the top —
  registers stay in Python locals and a warm iteration boundary costs
  one integer-tuple dict lookup, with no call out of generated code.
  Such functions raise division errors inline rather than deopting (a
  mid-loop deopt would discard committed register state that only
  lives in locals), and every exit flushes the union of all views the
  body can write (a previous iteration may have taken any path).

On top of single segments, hot multi-segment *traces* are stitched into
**superblocks**: the driver profiles taken segment edges, and once an
edge crosses :data:`SUPERBLOCK_WARMUP` the greedy selector follows
terminal-goto successors while the profile stays hot, bounded by
:data:`SUPERBLOCK_MAX_NODES`.  The whole trace becomes one generated
function with the transition probe inlined at every internal segment
boundary — a warm hit costs one dict lookup inside generated code, and
only a first visit calls back into :meth:`BlockTimingCache.close`.
Any taken exit targeting the trace head becomes a back-edge of one
outer ``while 1`` (probe + fuse check + ``continue``), so steady-state
iterations of multi-segment loops never return to the dispatch loop;
every other exit is a *side exit* that returns with the final segment
left open for the driver to close — timing keys, close order and event
streams are exactly the ones interpreted segments produce, which is
what keeps compiled code bit-identical to the interpreter.  Both shapes
share one codegen (:class:`_TraceCodegen`; a plain segment is a
one-node trace) and therefore one branch in the dispatch loop.

Anything the translator does not cover — temporal registers, invalid
double pairings, control in a delay slot, unallocated operands — is
refused statically (:class:`Uncompilable`) and that entry permanently
stays on the interpreter.  Division guards that trip *before* the first
non-undoable side effect (a real cache access or a memory write) raise
:class:`JitDeopt`: the caller undoes the block-count increments the
compiled prefix made, clears the (still unconsumed) event list, and
re-executes the segment interpreted, which then raises the exact
interpreter error.  Past the first side effect the generated code raises
the interpreter's :class:`~repro.errors.SimulationError` directly with
the same message.  An entry that deopts :data:`MAX_DEOPTS` times is
blacklisted back to the interpreter.
"""

from __future__ import annotations

import marshal
import struct
from importlib.util import MAGIC_NUMBER

from repro.backend.insts import Imm, Lab, MachineInstr, Reg
from repro.backend.values import fold_halves
from repro.errors import SimulationError
from repro.machine.registers import PhysReg
from repro.maril import ast
from repro.sim.blockcache import SEGMENT_CAP, decode_blocks
from repro.sim.executor import (
    _DOUBLE,
    _FLOAT,
    _PAIR,
    _WORD,
    SemanticsCompiler,
    _int_div,
    _int_mod,
    _promote,
    _wrap32,
)

#: dispatches of one segment entry before it is compiled
JIT_WARMUP = 16

#: guard failures before a compiled entry is blacklisted
MAX_DEOPTS = 8

#: taken-edge traversals of one (from, to) segment edge before a trace
#: superblock is attempted at the edge's source entry
SUPERBLOCK_WARMUP = 64

#: an internal trace edge must have been taken at least this often for
#: the greedy selector to keep extending the trace through it
SUPERBLOCK_MIN_EDGE = max(1, SUPERBLOCK_WARMUP // 4)

#: maximum number of segments stitched into one superblock
SUPERBLOCK_MAX_NODES = 8

#: trace-call quality window: every WINDOW side exits the trace's
#: early-exit rate is judged, and a trace whose cold-side exits (side
#: exits before the first back-edge) exceed RATIO of the window is
#: demoted back to its plain segment.  Selection is profile-guided; a
#: data-dependent branch that is not as biased as warmup suggested
#: leaves a trace that keeps dropping its open tail into the
#: interpreter, costing more than the dispatches it saves
SUPERBLOCK_DEMOTE_WINDOW = 16
SUPERBLOCK_DEMOTE_RATIO = 0.25

#: a mid-segment conditional is only worth truncating a trace node at
#: when its taken side dominates: the profiled taken count must be at
#: least this many times the fall-through block's execution count.
#: Below that, selection keeps the whole segment — both diamond sides
#: stay inline, exactly as the plain segment ran them — because every
#: fall-through at a cut drops the trace's open tail into the
#: interpreter
SUPERBLOCK_CUT_BIAS = 8

_INT_MAX = 2**31 - 1

_INT_OPS = frozenset("+ - * / % & | ^ << >>".split())
_FLOAT_OPS = frozenset("+ - * /".split())
_REL_OPS = frozenset("== != < <= > >=".split())


class Uncompilable(Exception):
    """Static refusal: this segment stays on the closure interpreter."""


class JitDeopt(Exception):
    """A runtime guard failed before any non-undoable side effect.

    ``bc_undo`` lists the block labels whose dynamic counts the compiled
    prefix already incremented; the caller decrements them and re-runs
    the segment interpreted."""

    def __init__(self, bc_undo: tuple[str, ...] = ()):
        super().__init__("jit guard failed")
        self.bc_undo = bc_undo


# names prebound into every generated function's globals; the generated
# code never does a dotted or module-global lookup on its hot path
_BASE_ENV = {
    "_w32": _wrap32,
    "_idiv": _int_div,
    "_imod": _int_mod,
    "_SE": SimulationError,
    "_pk_d": _DOUBLE.pack,
    "_upk_d": _DOUBLE.unpack,
    "_pk_f": _FLOAT.pack,
    "_upk_f": _FLOAT.unpack,
    "_pk_w": _WORD.pack,
    "_upk_w": _WORD.unpack,
    "_pk_p": _PAIR.pack,
    "_upk_p": _PAIR.unpack,
    "_upkm_i": struct.Struct("<i").unpack_from,
    "_pkm_i": struct.Struct("<i").pack_into,
    "_upkm_d": struct.Struct("<d").unpack_from,
    "_pkm_d": struct.Struct("<d").pack_into,
    "_upkm_f": struct.Struct("<f").unpack_from,
    "_pkm_f": struct.Struct("<f").pack_into,
    "int": int,
    "float": float,
}

_CONTROL_STMTS = (
    ast.CondGotoStmt,
    ast.GotoStmt,
    ast.CallStmt,
    ast.RetStmt,
)
_UNCONDITIONAL = (ast.GotoStmt, ast.CallStmt, ast.RetStmt)


def _stmts_of(instr: MachineInstr) -> list[ast.Stmt]:
    return [
        stmt
        for stmt in instr.desc.semantics
        if not isinstance(stmt, ast.EmptyStmt)
    ]


def _control_of(stmts: list[ast.Stmt]) -> ast.Stmt | None:
    """The instruction's single trailing control statement, or ``None``.

    The interpreter runs every statement and keeps the last non-``None``
    effect; a control statement anywhere but last (or more than one)
    would need that generality, so such instructions are refused."""
    controls = [
        index
        for index, stmt in enumerate(stmts)
        if isinstance(stmt, _CONTROL_STMTS)
    ]
    if not controls:
        return None
    if len(controls) > 1 or controls[0] != len(stmts) - 1:
        raise Uncompilable("control statement not in tail position")
    return stmts[-1]


class SegmentTranslator:
    """Translates straight-line segments of one executable to Python."""

    def __init__(self, executable):
        self.executable = executable
        self.target = executable.target
        self.instrs = executable.instrs
        self.compiler = SemanticsCompiler(executable.target)
        self.block_of, self.block_starts = decode_blocks(executable)

    def translate(self, entry: int, cached: bool):
        """Compile the segment at ``entry``; ``(function, max_executed)``.

        A plain segment is emitted as a one-node trace, so segment and
        superblock functions share one call contract and one codegen
        (self-loop back-edges chain in-function with the timing probe
        inlined, exactly like trace back-edges).  Raises
        :class:`Uncompilable` when any instruction on the trace uses a
        construct the translator does not cover."""
        trace, tail = self._trace(entry)
        codegen = _TraceCodegen(
            self, [entry], [(entry, trace, tail)], cached, plain=True
        )
        return codegen.build()

    def translate_trace(
        self, entries: list[int], cached: bool, cuts: dict | None = None
    ):
        """Compile the multi-segment trace headed at ``entries[0]``;
        ``(function, max_executed)`` with the superblock call contract
        (see :class:`_TraceCodegen`).  ``cuts`` maps an entry to the pc
        of a mid-segment conditional whose *taken* side continues the
        trace: the node is truncated there, the not-taken side becomes
        an open side exit.  Raises :class:`Uncompilable`."""
        nodes = []
        for entry in entries:
            trace, tail = self._trace(entry)
            cut = cuts.get(entry) if cuts else None
            if cut is not None:
                index = trace.index(cut)
                trace = trace[: index + 1]
                tail = _control_of(_stmts_of(self.instrs[cut]))
                if not isinstance(tail, ast.CondGotoStmt):
                    raise Uncompilable("trace cut is not a conditional")
            nodes.append((entry, trace, tail))
        codegen = _TraceCodegen(self, entries, nodes, cached)
        # reject non-loop shapes before paying for scan/emit/compile
        codegen._find_trace_shape()
        return codegen.build()

    def _resolve_target(self, pc: int, control) -> int | None:
        """The pc a goto/call/conditional at ``pc`` statically targets."""
        instr = self.instrs[pc]
        target = control.target
        if not isinstance(target, ast.OperandRef):
            return None
        operand = instr.operands[target.index - 1]
        if not isinstance(operand, Lab):
            return None
        return self.executable.labels.get(operand.name)

    def terminal_successor(self, entry: int) -> int | None:
        """The static successor through the segment's terminal
        unconditional goto, or ``None`` for any other tail shape."""
        try:
            trace, tail = self._trace(entry)
        except Uncompilable:
            return None
        if not isinstance(tail, ast.GotoStmt):
            return None
        return self._resolve_target(trace[-1], tail)

    def trace_successor(self, entry: int, returns: list):
        """The static successor through the segment's unconditional
        tail, following in-trace calls and returns: a call pushes its
        static return pc on ``returns`` (and enters the callee), a
        return pops it (the popped pc is what a run-time guard later
        enforces).  ``(successor, via)`` with ``via`` one of ``"goto"``
        / ``"call"`` / ``"ret"``, or ``(None, None)``."""
        try:
            trace, tail = self._trace(entry)
        except Uncompilable:
            return None, None
        if isinstance(tail, ast.GotoStmt):
            return self._resolve_target(trace[-1], tail), "goto"
        if isinstance(tail, ast.CallStmt):
            if self.target.cwvm.retaddr is None:
                return None, None
            succ = self._resolve_target(trace[-1], tail)
            if succ is None:
                return None, None
            returns.append(trace[-1] + 1)
            return succ, "call"
        if isinstance(tail, ast.RetStmt) and returns:
            return returns.pop(), "ret"
        return None, None

    def hot_cut(self, entry: int, target: int, site: int | None = None):
        """How the profiled taken edge ``entry -> target`` leaves the
        segment: ``("tail", None)`` through the terminal goto, or
        ``("cond", pc)`` at the branching conditional (a truncation
        point for trace selection), or ``None``.  ``site`` is the
        branch pc the dispatch profiler observed taking the edge; when
        several conditionals in the segment share the target label it
        disambiguates which one is hot (a label-only scan would cut at
        the first match and leave the actually-hot branch outside the
        trace)."""
        try:
            trace, tail = self._trace(entry)
        except Uncompilable:
            return None
        if site is not None and site in trace:
            try:
                control = _control_of(_stmts_of(self.instrs[site]))
            except Uncompilable:
                return None
            if isinstance(control, ast.CondGotoStmt):
                if self._resolve_target(site, control) == target:
                    return ("cond", site)
            if site == trace[-1] and isinstance(tail, ast.GotoStmt):
                if self._resolve_target(site, tail) == target:
                    return ("tail", None)
            # a recorded site that does not check out falls back to the
            # label scan below
        for pc in trace[:-1]:
            try:
                control = _control_of(_stmts_of(self.instrs[pc]))
            except Uncompilable:
                return None
            if isinstance(control, ast.CondGotoStmt):
                if self._resolve_target(pc, control) == target:
                    return ("cond", pc)
        last = trace[-1]
        try:
            control = _control_of(_stmts_of(self.instrs[last]))
        except Uncompilable:
            return None
        if isinstance(control, ast.CondGotoStmt):
            if self._resolve_target(last, control) == target:
                return ("cond", last)
        if isinstance(tail, ast.GotoStmt):
            if self._resolve_target(last, tail) == target:
                return ("tail", None)
        return None

    def fallthrough_count(self, pc: int, block_counts) -> int | None:
        """How often the fall-through side of the conditional at ``pc``
        ran, read from the profiled block counts — the not-taken
        counterpart of the taken-edge profile.  ``None`` when the
        fall-through point is not a block start (no counter exists)."""
        if block_counts is None:
            return None
        instr = self.instrs[pc]
        fall = pc + 1 + abs(instr.desc.slots)
        if fall not in self.block_starts:
            return None
        return block_counts.get(self.block_of[fall], 0)

    def _trace(self, entry: int):
        """Static straight-line walk: pcs up to (and including) the first
        unconditional transfer, the segment cap, or the program end."""
        pcs: list[int] = []
        pc = entry
        program_size = len(self.instrs)
        while pc < program_size and len(pcs) < SEGMENT_CAP:
            control = _control_of(_stmts_of(self.instrs[pc]))
            pcs.append(pc)
            if isinstance(control, _UNCONDITIONAL):
                return pcs, control
            pc += 1
        return pcs, None

    def slot_pcs(self, pc: int, instr: MachineInstr) -> list[int]:
        program_size = len(self.instrs)
        return [
            pc + 1 + slot
            for slot in range(abs(instr.desc.slots))
            if pc + 1 + slot < program_size
        ]


class _SegmentCodegen:
    """Shared scan/decide/emit machinery (one trace node at a time).

    All emission goes through :class:`_TraceCodegen` — a plain segment
    is a one-node trace — so this base only holds the per-node walkers:
    view scanning, local-representation decisions, expression/statement
    emission, and the flush/entry-load bookkeeping."""

    def __init__(self, translator, entry, trace, tail, cached):
        self.tr = translator
        self.entry = entry
        self.trace = trace
        self.tail = tail
        self.cached = cached
        # scan results
        self.touched: set[tuple[int, int]] = set()
        self.view_types: dict[tuple, set[str]] = {}
        self.unit_views: dict[tuple[int, int], set[tuple]] = {}
        #: any memory access anywhere in the function (a whole-function
        #: property, so prologue/exit data-cache bookkeeping is emitted
        #: consistently regardless of source order)
        self.has_mem = False
        # decided representations
        self.typed: dict[tuple, str] = {}
        # emit state
        self.lines: list[str] = []
        self.indent = 1
        self.tmp_count = 0
        self.written: dict[tuple, None] = {}
        self.entry_reads: set[tuple] = set()
        self.effects = False
        self.bc_trail: list[str] = []
        self.uses_bc = False
        #: block label -> prologue local batching its execution count in
        #: looping functions (committed to ``bc`` at every return site)
        self.bc_locals: dict[str, str] = {}
        self.loads = 0
        self.stores = 0
        self.max_exec = 0
        self.consts: dict[str, object] = {}
        self.looping = False

    # -- driver ---------------------------------------------------------------

    def build(self):
        self._scan()
        self._decide()
        source = self._emit()
        name = self._name()
        env = dict(_BASE_ENV)
        env.update(self.consts)
        code = compile(source, f"<jit:{name}>", "exec")
        exec(code, env)
        fn = env[name]
        fn._jit_source = source
        # everything a fresh process needs to re-materialize this
        # function without re-translating: the consts are all JitDeopt
        # instances, recorded by their undo lists (see _materialize);
        # the code object rides along so export can marshal it
        fn._jit_name = name
        fn._jit_consts = {
            cname: value.bc_undo for cname, value in self.consts.items()
        }
        fn._jit_code = code
        return fn, self.max_exec

    # -- scan: collect register views and refuse what we don't cover ----------

    def _scan(self) -> None:
        instrs = self.tr.instrs
        for pc in self.trace:
            instr = instrs[pc]
            stmts = _stmts_of(instr)
            control = _control_of(stmts)
            for stmt in stmts[:-1] if control is not None else stmts:
                self._scan_stmt(stmt, instr)
            if isinstance(control, ast.CondGotoStmt):
                self._scan_expr(control.condition, instr, "int")
                self._label_of(control.target, instr)
                self._scan_slots(pc, instr)
            elif isinstance(control, (ast.GotoStmt, ast.CallStmt)):
                self._label_of(control.target, instr)
                if isinstance(control, ast.CallStmt):
                    if self.tr.target.cwvm.retaddr is None:
                        raise Uncompilable("call without a %retaddr register")
                else:
                    self._scan_slots(pc, instr)
            elif isinstance(control, ast.RetStmt):
                self._scan_slots(pc, instr)

    def _scan_slots(self, pc: int, instr: MachineInstr) -> None:
        for slot_pc in self.tr.slot_pcs(pc, instr):
            slot_stmts = _stmts_of(self.tr.instrs[slot_pc])
            if _control_of(slot_stmts) is not None:
                raise Uncompilable("control instruction in a delay slot")
            for stmt in slot_stmts:
                self._scan_stmt(stmt, self.tr.instrs[slot_pc])

    def _label_of(self, target: ast.Expr, instr: MachineInstr) -> str:
        if not isinstance(target, ast.OperandRef):
            raise Uncompilable("branch target is not an operand")
        operand = instr.operands[target.index - 1]
        if not isinstance(operand, Lab):
            raise Uncompilable("branch target operand is not a label")
        return operand.name

    def _move_units(self, stmt: ast.AssignStmt, instr: MachineInstr):
        """The (dst_units, src_units) of a raw register-to-register move,
        or ``None`` — mirrors the interpreter's ``copy_units`` fast path
        exactly (same conditions, same raw-bits semantics)."""
        if not (
            isinstance(stmt.target, ast.OperandRef)
            and isinstance(stmt.value, ast.OperandRef)
        ):
            return None
        dst_operand = instr.operands[stmt.target.index - 1]
        src_operand = instr.operands[stmt.value.index - 1]
        if not (
            isinstance(dst_operand, Reg)
            and isinstance(src_operand, Reg)
            and isinstance(dst_operand.reg, PhysReg)
            and isinstance(src_operand.reg, PhysReg)
        ):
            return None
        registers = self.tr.target.registers
        dst_units = registers.units_of(dst_operand.reg)
        src_units = registers.units_of(src_operand.reg)
        if len(dst_units) != len(src_units):
            return None
        return dst_units, src_units

    def _reg_view(self, instr: MachineInstr, position: int):
        """(units, type, view_key) of a register operand access."""
        operand = instr.operands[position]
        if not isinstance(operand, Reg) or not isinstance(
            operand.reg, PhysReg
        ):
            raise Uncompilable("unallocated or non-register operand")
        type_name = self.tr.compiler._operand_type(instr, position)
        units = self.tr.target.registers.units_of(operand.reg)
        if type_name == "double":
            if len(units) != 2:
                raise Uncompilable("invalid double register pairing")
            return units, type_name, (units[0], units[1])
        return units, type_name, (units[0],)

    def _record_view(self, key: tuple, type_name: str) -> None:
        self.view_types.setdefault(key, set()).add(type_name)
        for unit in key:
            self.touched.add(unit)
            self.unit_views.setdefault(unit, set()).add(key)

    def _scan_stmt(self, stmt: ast.Stmt, instr: MachineInstr) -> None:
        if isinstance(stmt, ast.AssignStmt):
            move = self._move_units(stmt, instr)
            if move is not None:
                for unit in move[0] + move[1]:
                    self.touched.add(unit)
                return
            target = stmt.target
            if isinstance(target, ast.OperandRef):
                _units, type_name, key = self._reg_view(
                    instr, target.index - 1
                )
                self._record_view(key, type_name)
                self._scan_expr(stmt.value, instr, type_name)
                return
            if isinstance(target, ast.MemRef):
                self.has_mem = True
                self._scan_expr(target.address, instr, "int")
                self._scan_expr(stmt.value, instr, None)
                return
            # NameRef (temporal register) or anything else
            raise Uncompilable(f"cannot compile assignment to {target}")
        raise Uncompilable(f"cannot compile statement {stmt}")

    def _scan_expr(
        self, expr: ast.Expr, instr: MachineInstr, expected: str | None
    ) -> str:
        if isinstance(expr, ast.OperandRef):
            operand = instr.operands[expr.index - 1]
            if isinstance(operand, Imm):
                value = fold_halves(operand.value)
                if not isinstance(value, (int, float)):
                    raise Uncompilable("unresolved immediate")
                return "int"
            _units, type_name, key = self._reg_view(instr, expr.index - 1)
            self._record_view(key, type_name)
            return type_name
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.FloatLit):
            return "double"
        if isinstance(expr, ast.MemRef):
            if expected is None:
                raise Uncompilable("memory read with unknown width")
            self.has_mem = True
            self._scan_expr(expr.address, instr, "int")
            return expected
        if isinstance(expr, ast.Unary):
            operand_type = self._scan_expr(expr.operand, instr, expected)
            if expr.op == "-":
                return operand_type
            if expr.op in ("~", "!"):
                return "int"
            raise Uncompilable(f"unknown unary operator {expr.op}")
        if isinstance(expr, ast.Binary):
            left = self._scan_expr(expr.left, instr, expected)
            right = self._scan_expr(expr.right, instr, expected)
            if expr.op == "::" or expr.op in _REL_OPS:
                return "int"
            common = _promote(left, right)
            if common == "int":
                if expr.op not in _INT_OPS:
                    raise Uncompilable(f"unknown int operator {expr.op}")
                return "int"
            if expr.op not in _FLOAT_OPS:
                raise Uncompilable(f"operator {expr.op} not on {common}")
            return common
        if isinstance(expr, ast.BuiltinCall):
            arg_type = self._scan_expr(expr.args[0], instr, None)
            if expr.name in ("int", "high", "low"):
                return "int"
            if expr.name in ("float", "double"):
                return expr.name
            if expr.name == "eval":
                return arg_type
            raise Uncompilable(f"unknown builtin {expr.name}")
        # NameRef (temporal register) or anything else
        raise Uncompilable(f"cannot compile expression {expr}")

    # -- decide: which views become typed locals -------------------------------

    def _decide(self) -> None:
        """A view becomes a typed local iff it is the *only* view of every
        unit it covers and its single type is safely representable (int as
        a signed Python int, double as a Python float — the ``<d`` codec
        is a lossless memcpy both ways).  Float views stay raw because the
        f32<->f64 conversion is not bit-stable for signaling NaNs.  Every
        other touched unit is held as a raw 32-bit word local."""
        for key, types in self.view_types.items():
            if len(types) != 1:
                continue
            type_name = next(iter(types))
            if type_name not in ("int", "double"):
                continue
            if all(self.unit_views.get(unit) == {key} for unit in key):
                self.typed[key] = type_name
        typed_units = {unit for key in self.typed for unit in key}
        self.raw = sorted(self.touched - typed_units)

    # -- emit helpers ----------------------------------------------------------

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _tmp(self) -> str:
        self.tmp_count += 1
        return f"t{self.tmp_count}"

    @staticmethod
    def _uname(unit) -> str:
        return f"u{unit[0]}_{unit[1]}"

    @staticmethod
    def _iname(key) -> str:
        return f"i{key[0][0]}_{key[0][1]}"

    @staticmethod
    def _dname(key) -> str:
        return f"d{key[0][0]}_{key[0][1]}"

    def _mark_written(self, kind: str, key) -> None:
        self.written[(kind, key)] = None

    def _need(self, kind: str, key) -> None:
        """Record a read of a view local that happens before any write on
        the current path: exactly these views get an entry load (write-only
        and write-before-read views start uninitialized, which is fine
        because the flush set only ever contains written views)."""
        if (kind, key) not in self.written:
            self.entry_reads.add((kind, key))

    @staticmethod
    def _wrap(code: str) -> str:
        """Branch-free inline 32-bit signed wrap — the same value
        ``executor._wrap32`` computes, without the per-op call."""
        return f"((({code}) + 2147483648 & 4294967295) - 2147483648)"

    def _deopt_name(self) -> str:
        name = f"_D{len(self.consts)}"
        self.consts[name] = JitDeopt(tuple(self.bc_trail))
        return name

    def _guard_zero(self, var: str, message: str) -> None:
        """Division guard: deopt while still undoable, else raise the
        interpreter's exact error inline."""
        if self.effects:
            self._line(f"if {var} == 0: raise _SE({message!r})")
        else:
            self._line(f"if {var} == 0: raise {self._deopt_name()}")

    def _emit_bc(self, pc: int) -> None:
        if pc not in self.tr.block_starts:
            return
        label = self.tr.block_of[pc]
        self.uses_bc = True
        if self.looping:
            # a looping function executes each block once per iteration:
            # batch the count in an int local (committed by every return
            # site) instead of a dict get + set per block per iteration.
            # Deopt undo is unaffected — looping functions raise inline,
            # never JitDeopt, so the bc trail stays a plain-segment tool
            local = self.bc_locals.get(label)
            if local is None:
                local = self.bc_locals[label] = f"bn{len(self.bc_locals)}"
            self._line(f"{local} += 1")
        else:
            self._line(f"bc[{label!r}] = bcg({label!r}, 0) + 1")
            self.bc_trail.append(label)

    def _bounds_check(self, addr: str, size: int) -> None:
        self._line(
            f"if {addr} < 0 or {addr} + {size} > ml:"
            f" raise _SE('memory access at %d outside [0, %d)' % ({addr}, ml))"
        )

    # -- emit: expressions -----------------------------------------------------

    def _expr(
        self,
        expr: ast.Expr,
        instr: MachineInstr,
        expected: str | None,
        pc: int,
        slot: bool,
    ):
        """Returns ``(code, static_type, wrapped)``; ``wrapped`` promises
        the value is a Python int already in signed 32-bit range, so
        redundant ``_wrap32(int(...))`` conversions can be skipped."""
        if isinstance(expr, ast.OperandRef):
            operand = instr.operands[expr.index - 1]
            if isinstance(operand, Imm):
                value = fold_halves(operand.value)
                wrapped = (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and -(2**31) <= value <= _INT_MAX
                )
                return f"({value!r})", "int", wrapped
            return self._emit_reg_read(instr, expr.index - 1)
        if isinstance(expr, ast.IntLit):
            value = expr.value
            wrapped = -(2**31) <= value <= _INT_MAX
            return f"({value!r})", "int", wrapped
        if isinstance(expr, ast.FloatLit):
            return f"({expr.value!r})", "double", False
        if isinstance(expr, ast.MemRef):
            return self._emit_mem_read(expr, instr, expected, pc, slot)
        if isinstance(expr, ast.Unary):
            return self._emit_unary(expr, instr, expected, pc, slot)
        if isinstance(expr, ast.Binary):
            return self._emit_binary(expr, instr, expected, pc, slot)
        if isinstance(expr, ast.BuiltinCall):
            return self._emit_builtin(expr, instr, pc, slot)
        raise Uncompilable(f"cannot compile expression {expr}")

    def _emit_reg_read(self, instr: MachineInstr, position: int):
        units, type_name, key = self._reg_view(instr, position)
        if type_name == "double":
            if key in self.typed:
                self._need("double", key)
                return self._dname(key), "double", False
            self._need("raw", units[0])
            self._need("raw", units[1])
            lo, hi = self._uname(units[0]), self._uname(units[1])
            return f"_upk_d(_pk_p({lo}, {hi}))[0]", "double", False
        if type_name == "float":
            self._need("raw", units[0])
            word = self._uname(units[0])
            return f"_upk_f(_pk_w({word}))[0]", "float", False
        if key in self.typed:
            self._need("int", key)
            return self._iname(key), "int", True
        self._need("raw", units[0])
        word = self._uname(units[0])
        return (
            f"({word} - 4294967296 if {word} > 2147483647 else {word})",
            "int",
            True,
        )

    def _emit_mem_read(self, expr, instr, expected, pc, slot):
        if expected is None:
            raise Uncompilable("memory read with unknown width")
        addr_code, _, _ = self._expr(expr.address, instr, "int", pc, slot)
        addr = self._tmp()
        self._line(f"{addr} = {addr_code}")
        self._bounds_check(addr, 8 if expected == "double" else 4)
        if self.cached:
            # the data-cache access is pure shift/mask over the
            # preallocated tag array (see sim/cache.py), inlined here so
            # the hot path never leaves generated code
            idx, tag = self._tmp(), self._tmp()
            self._line(f"{idx} = ({addr} >> dls) & dsm")
            self._line(f"{tag} = {addr} >> dts")
            self._line(f"if dtg[{idx}] == {tag}:")
            self._line("    dh += 1")
            self._line(f"    ea(({pc}, False, True))")
            self._line("else:")
            self._line(f"    dtg[{idx}] = {tag}")
            self._line("    dm += 1")
            self._line("    mm |= lb")
            self._line(f"    ea(({pc}, False, False))")
            self._line("lb <<= 1")
            self.effects = True
        else:
            self._line("lb <<= 1")
            self._line(f"ea(({pc}, False, True))")
        if not slot:
            self.loads += 1
        value = self._tmp()
        unpack = {"double": "_upkm_d", "float": "_upkm_f"}.get(
            expected, "_upkm_i"
        )
        self._line(f"{value} = {unpack}(mem, {addr})[0]")
        return value, expected, expected == "int"

    def _emit_unary(self, expr, instr, expected, pc, slot):
        code, type_name, wrapped = self._expr(
            expr.operand, instr, expected, pc, slot
        )
        if expr.op == "-":
            if type_name == "int":
                return self._wrap(f"-({code})"), "int", True
            return f"(-({code}))", type_name, False
        if expr.op == "~":
            return self._wrap(f"~({code})"), "int", True
        if expr.op == "!":
            return f"(0 if {code} else 1)", "int", True
        raise Uncompilable(f"unknown unary operator {expr.op}")

    def _emit_binary(self, expr, instr, expected, pc, slot):
        lcode, ltype, lwrapped = self._expr(
            expr.left, instr, expected, pc, slot
        )
        rcode, rtype, rwrapped = self._expr(
            expr.right, instr, expected, pc, slot
        )
        op = expr.op
        if op == "::":
            left, right = self._tmp(), self._tmp()
            self._line(f"{left} = {lcode}")
            self._line(f"{right} = {rcode}")
            return (
                f"(({left} > {right}) - ({left} < {right}))",
                "int",
                True,
            )
        if op in _REL_OPS:
            return f"(1 if ({lcode}) {op} ({rcode}) else 0)", "int", True
        common = _promote(ltype, rtype)
        if common == "int":
            if op == "+":
                return self._wrap(f"({lcode}) + ({rcode})"), "int", True
            if op == "-":
                return self._wrap(f"({lcode}) - ({rcode})"), "int", True
            if op == "*":
                return self._wrap(f"({lcode}) * ({rcode})"), "int", True
            if op == "&":
                return f"(({lcode}) & ({rcode}))", "int", lwrapped and rwrapped
            if op == "|":
                return f"(({lcode}) | ({rcode}))", "int", lwrapped and rwrapped
            if op == "^":
                return f"(({lcode}) ^ ({rcode}))", "int", lwrapped and rwrapped
            if op == "<<":
                return (
                    self._wrap(f"({lcode}) << (({rcode}) & 31)"),
                    "int",
                    True,
                )
            if op == ">>":
                return f"(({lcode}) >> (({rcode}) & 31))", "int", lwrapped
            if op in ("/", "%"):
                left, right = self._tmp(), self._tmp()
                self._line(f"{left} = {lcode}")
                self._line(f"{right} = {rcode}")
                self._guard_zero(right, "integer division by zero")
                fn = "_idiv" if op == "/" else "_imod"
                return f"{fn}({left}, {right})", "int", False
            raise Uncompilable(f"unknown int operator {op}")
        if op in ("+", "-", "*"):
            return f"(({lcode}) {op} ({rcode}))", common, False
        if op == "/":
            left, right = self._tmp(), self._tmp()
            self._line(f"{left} = {lcode}")
            self._line(f"{right} = {rcode}")
            self._guard_zero(right, "floating divide by zero")
            return f"({left} / {right})", common, False
        raise Uncompilable(f"operator {op} not on {common}")

    def _emit_builtin(self, expr, instr, pc, slot):
        code, arg_type, wrapped = self._expr(
            expr.args[0], instr, None, pc, slot
        )
        name = expr.name
        if name == "int":
            if wrapped:
                return code, "int", True
            # a static int is already a Python int: only the range wrap
            # is needed (int(x) is the identity the interpreter applies)
            inner = code if arg_type == "int" else f"int({code})"
            return self._wrap(inner), "int", True
        if name in ("float", "double"):
            if arg_type in ("float", "double"):
                return code, name, False
            return f"float({code})", name, False
        if name == "high":
            inner = code if arg_type == "int" else f"int({code})"
            return f"((({inner}) >> 16) & 65535)", "int", True
        if name == "low":
            inner = code if arg_type == "int" else f"int({code})"
            return f"(({inner}) & 65535)", "int", True
        if name == "eval":
            return code, arg_type, wrapped
        raise Uncompilable(f"unknown builtin {name}")

    # -- emit: statements ------------------------------------------------------

    def _emit_stmt(self, stmt, instr, pc, slot):
        if isinstance(stmt, ast.AssignStmt):
            move = self._move_units(stmt, instr)
            if move is not None:
                self._emit_move(*move)
                return
            target = stmt.target
            if isinstance(target, ast.OperandRef):
                self._emit_reg_write(stmt, instr, pc, slot)
                return
            if isinstance(target, ast.MemRef):
                self._emit_mem_write(stmt, instr, pc, slot)
                return
        raise Uncompilable(f"cannot compile statement {stmt}")

    def _read_unit_bits(self, unit) -> str:
        """Current 32-bit word of ``unit`` under its representation."""
        for key, type_name in self.typed.items():
            if unit not in key:
                continue
            if type_name == "int":
                self._need("int", key)
                return f"({self._iname(key)} & 4294967295)"
            self._need("double", key)
            half = key.index(unit)
            return f"_upk_p(_pk_d({self._dname(key)}))[{half}]"
        self._need("raw", unit)
        return self._uname(unit)

    def _write_unit_bits(self, unit, bits: str) -> None:
        for key, type_name in self.typed.items():
            if unit not in key:
                continue
            if type_name == "int":
                word = self._tmp()
                self._line(f"{word} = {bits}")
                self._line(
                    f"{self._iname(key)} = {word} - 4294967296"
                    f" if {word} > 2147483647 else {word}"
                )
                self._mark_written("int", key)
            else:
                self._need("double", key)  # the untouched half is read
                name = self._dname(key)
                halves = [
                    bits if key[index] == unit
                    else f"_upk_p(_pk_d({name}))[{index}]"
                    for index in range(2)
                ]
                self._line(
                    f"{name} = _upk_d(_pk_p({halves[0]}, {halves[1]}))[0]"
                )
                self._mark_written("double", key)
            return
        self._line(f"{self._uname(unit)} = {bits}")
        self._mark_written("raw", unit)

    def _emit_move(self, dst_units, src_units) -> None:
        """Raw register move; like the interpreter's ``copy_units`` the
        copy is sequential unit by unit (overlapping pairs observe the
        partially-updated destination)."""
        dkey, skey = tuple(dst_units), tuple(src_units)
        if (
            len(dkey) == 2
            and self.typed.get(dkey) == "double"
            and self.typed.get(skey) == "double"
        ):
            if dkey != skey:
                self._need("double", skey)
                self._line(f"{self._dname(dkey)} = {self._dname(skey)}")
                self._mark_written("double", dkey)
            return
        for dst, src in zip(dst_units, src_units):
            if dst == src:
                continue
            self._write_unit_bits(dst, self._read_unit_bits(src))

    def _emit_reg_write(self, stmt, instr, pc, slot) -> None:
        position = stmt.target.index - 1
        units, type_name, key = self._reg_view(instr, position)
        vcode, vtype, vwrapped = self._expr(
            stmt.value, instr, type_name, pc, slot
        )
        if type_name == "double":
            conv = (
                vcode if vtype in ("float", "double") else f"float({vcode})"
            )
            if key in self.typed:
                self._line(f"{self._dname(key)} = {conv}")
                self._mark_written("double", key)
            else:
                lo, hi = self._uname(units[0]), self._uname(units[1])
                self._line(f"{lo}, {hi} = _upk_p(_pk_d({conv}))")
                self._mark_written("raw", units[0])
                self._mark_written("raw", units[1])
            return
        if type_name == "float":
            conv = (
                vcode if vtype in ("float", "double") else f"float({vcode})"
            )
            self._line(f"{self._uname(units[0])} = _upk_w(_pk_f({conv}))[0]")
            self._mark_written("raw", units[0])
            return
        if key in self.typed:
            if vtype == "int" and vwrapped:
                self._line(f"{self._iname(key)} = {vcode}")
            else:
                inner = vcode if vtype == "int" else f"int({vcode})"
                self._line(f"{self._iname(key)} = {self._wrap(inner)}")
            self._mark_written("int", key)
            return
        if vtype == "int":
            self._line(f"{self._uname(units[0])} = ({vcode}) & 4294967295")
        else:
            self._line(
                f"{self._uname(units[0])} = int({vcode}) & 4294967295"
            )
        self._mark_written("raw", units[0])

    def _emit_mem_write(self, stmt, instr, pc, slot) -> None:
        addr_code, _, _ = self._expr(
            stmt.target.address, instr, "int", pc, slot
        )
        addr = self._tmp()
        self._line(f"{addr} = {addr_code}")
        # the store's log record (and so its cache access) precedes the
        # value expression's loads, matching the closure's append order
        if self.cached:
            idx, tag = self._tmp(), self._tmp()
            self._line(f"{idx} = ({addr} >> dls) & dsm")
            self._line(f"{tag} = {addr} >> dts")
            self._line(f"if dtg[{idx}] == {tag}:")
            self._line("    dh += 1")
            self._line(f"    ea(({pc}, True, True))")
            self._line("else:")
            self._line(f"    dtg[{idx}] = {tag}")
            self._line("    dm += 1")
            self._line(f"    ea(({pc}, True, False))")
            self.effects = True
        else:
            self._line(f"ea(({pc}, True, True))")
        if not slot:
            self.stores += 1
        vcode, vtype, vwrapped = self._expr(stmt.value, instr, None, pc, slot)
        self._bounds_check(addr, 8 if vtype == "double" else 4)
        if vtype == "double":
            self._line(f"_pkm_d(mem, {addr}, {vcode})")
        elif vtype == "float":
            self._line(f"_pkm_f(mem, {addr}, float({vcode}))")
        else:
            if vwrapped:
                signed = vcode
            else:
                signed = self._wrap(
                    vcode if vtype == "int" else f"int({vcode})"
                )
            self._line(f"_pkm_i(mem, {addr}, {signed})")
        self.effects = True

    # -- emit: exits -----------------------------------------------------------

    def _flush(self) -> None:
        for kind, key in self.written:
            if kind == "raw":
                self._line(f"u[{key!r}] = {self._uname(key)}")
            elif kind == "int":
                self._line(f"u[{key[0]!r}] = {self._iname(key)} & 4294967295")
            else:
                self._line(
                    f"u[{key[0]!r}], u[{key[1]!r}] ="
                    f" _upk_p(_pk_d({self._dname(key)}))"
                )

    def _emit_slots(self, pc: int, instr: MachineInstr) -> int:
        """Delay-slot bodies for a taken exit; returns the segment end pc.
        Slot accesses hit the cache and shape the miss mask and events,
        but are not counted in loads/stores (matching ``_run_fast``)."""
        end = pc
        for slot_pc in self.tr.slot_pcs(pc, instr):
            for stmt in _stmts_of(self.tr.instrs[slot_pc]):
                self._emit_stmt(stmt, self.tr.instrs[slot_pc], slot_pc, True)
            end = slot_pc
        return end

    def _entry_loads(self) -> list[str]:
        """Loads for exactly the views the body reads before writing."""
        loads = []
        if self.entry_reads:
            loads.append("    ug = u.get")
        for unit in self.raw:
            if ("raw", unit) in self.entry_reads:
                loads.append(f"    {self._uname(unit)} = ug({unit!r}, 0)")
        for key in sorted(self.typed):
            type_name = self.typed[key]
            if (type_name, key) not in self.entry_reads:
                continue
            if type_name == "int":
                iname = self._iname(key)
                loads.append(f"    {iname} = ug({key[0]!r}, 0)")
                loads.append(
                    f"    if {iname} > 2147483647: {iname} -= 4294967296"
                )
            else:
                loads.append(
                    f"    {self._dname(key)} = _upk_d(_pk_p("
                    f"ug({key[0]!r}, 0), ug({key[1]!r}, 0)))[0]"
                )
        return loads


class _TraceCodegen(_SegmentCodegen):
    """One trace (a chain of segments) -> one generated function.

    Every generated function — plain segment (``plain=True``, a
    one-node trace) or superblock — comes from here and shares one call
    contract.  Structure: single entry at the trace head.  Internal
    transitions (a node's terminal goto targeting the next node) run
    the block-timing transition probe inline and fall through into the
    next node's code; any taken exit targeting the *head* becomes a
    back-edge of one outer ``while 1`` (probe + fuse check +
    ``continue``); every other exit is a side exit returning to the
    dispatch loop — exits at a segment boundary (kinds 1-3) close their
    final segment inline through the same probe machinery, so the
    dispatch loop only routes the pc; only a not-taken/fallthrough exit
    (kind 0) leaves a segment open for the interpreter to continue.

    Call contract::

        fn(state, dcache, events, bc, tt, close, eid, b0, fz, mm, lb)

    ``dcache`` is the data-cache model (its tag array and shift/mask
    geometry are read into locals once; accesses are inlined
    arithmetic), ``events`` the shared event list (the probe consumes
    it), ``tt`` the transition-table accessor — ``tt(entry, end,
    transfer)`` returns the per-segment ``{(eid, mm): (cycle_delta,
    exit_id)}`` dict, whose bound ``get`` the prologue captures per
    probe site so a warm boundary is one two-int-tuple lookup — and
    ``close`` the miss path.  ``eid`` is the entry digest id, ``b0``
    the absolute base cycle at entry, and ``fz`` the
    executed-instruction budget for back-edges.  Returns a 15-tuple
    ``(kind, end, transfer, label, node_entry, open_len, ex, ld, st,
    mm, lb, ci, eid, bch, sbh)``: ``kind`` 1/2/3 are
    taken-branch/return/call exits with every segment (including the
    final one) already closed and mm/lb reset, ``kind`` 0 is a
    not-taken or fallthrough exit whose final segment at ``node_entry``
    stays *open* (events/mm/lb live, ``open_len`` instructions already
    executed) for the interpreter to continue, and ``kind`` 4 is a fuse
    stop at the head with everything closed.  ``ex``/``ld``/``st`` are whole-call
    instruction/load/store totals, ``ci`` the accumulated cycle delta,
    ``eid`` the current digest id, ``bch`` inline probe hits and
    ``sbh`` segments closed in-function.  A function with no probe on
    any path (a non-looping plain segment) elides the running totals
    entirely and returns static literals.

    Inlined probes count as non-undoable side effects (a miss mutates
    the shared memo), so a division guard can deopt only in the head
    node before the first probe — exactly the window where no event has
    been consumed and no register flush happened, making the undo
    argument identical across function shapes.  Looping functions force
    ``effects`` (and all-load-all-flush) upfront: iteration state lives
    only in locals.
    """

    def __init__(self, translator, entries, nodes, cached, plain=False):
        head_entry, head_trace, head_tail = nodes[0]
        super().__init__(translator, head_entry, head_trace, head_tail, cached)
        self.entries = entries
        self.nodes = nodes
        #: single-node "trace" standing in for a plain segment: named
        #: ``_jit_*`` and allowed to have no back-edge
        self.plain = plain
        #: ``(entry, end, transfer) -> prologue local`` holding that
        #: probe site's transition table ``.get``
        self.probe_sites: dict[tuple, str] = {}
        #: a probe has been emitted (monotonic: emission follows
        #: execution order in non-looping functions, so exits emitted
        #: before the first probe can return static literal totals)
        self._totals_live = False
        #: node position -> statically pinned return pc for in-trace
        #: returns (filled by :meth:`_find_trace_shape`); the pc a
        #: run-time guard on the %retaddr register enforces
        self.ret_targets: dict[int, int] = {}
        #: the %retaddr register's first unit, tracked as a view when
        #: the trace contains any call or guarded return
        self.ret_unit = None
        # cumulative executed/loads/stores already committed at the most
        # recent probe on the current emission path (static bookkeeping)
        self.sb_ex_base = 0
        self.sb_ld_base = 0
        self.sb_st_base = 0
        #: instructions executed from the head up to the current node
        self.node_exec_base = 0

    def _name(self) -> str:
        prefix = "_jit" if self.plain else "_sbjit"
        return f"{prefix}_{self.entry}_{'c' if self.cached else 'n'}"

    # -- scan across every node ------------------------------------------------

    def _scan(self) -> None:
        saved = self.trace, self.tail
        for _entry, trace, tail in self.nodes:
            self.trace, self.tail = trace, tail
            super()._scan()
        self.trace, self.tail = saved
        # in-trace calls write the %retaddr register and guarded
        # returns read it, so it must live as a tracked view
        if self.ret_targets or any(
            isinstance(tail, ast.CallStmt) for _e, _t, tail in self.nodes
        ):
            retaddr = self.tr.target.cwvm.retaddr
            if retaddr is None:
                raise Uncompilable("call without a %retaddr register")
            self.ret_unit = self.tr.target.registers.units_of(retaddr)[0]
            self.touched.add(self.ret_unit)

    # -- trace shape -----------------------------------------------------------

    def _find_trace_shape(self) -> None:
        """Validate internal edges and detect back-edges to the head
        (any of which makes the whole trace a loop).  Node successors
        follow unconditional gotos, truncated-node taken conditionals,
        calls (pushing the static return pc) and returns (popping it —
        the pc a run-time guard then enforces, via
        :attr:`ret_targets`)."""
        labels = self.tr.executable.labels
        instrs = self.tr.instrs
        head = self.entry
        self.looping = False
        self.ret_targets = {}
        returns: list[int] = []
        last = len(self.nodes) - 1
        for position, (entry, trace, tail) in enumerate(self.nodes):
            for pc in trace:
                instr = instrs[pc]
                control = _control_of(_stmts_of(instr))
                if isinstance(control, (ast.CondGotoStmt, ast.GotoStmt)):
                    label = self._label_of(control.target, instr)
                    if labels.get(label) == head:
                        self.looping = True
            succ = None
            if isinstance(
                tail, (ast.GotoStmt, ast.CondGotoStmt, ast.CallStmt)
            ):
                instr = instrs[trace[-1]]
                succ = labels.get(self._label_of(tail.target, instr))
                if isinstance(tail, ast.CallStmt):
                    returns.append(trace[-1] + 1)
            elif isinstance(tail, ast.RetStmt) and returns:
                succ = returns.pop()
                self.ret_targets[position] = succ
                if succ == head:
                    self.looping = True
            if position < last:
                if succ is None:
                    raise Uncompilable(
                        "internal trace node lacks a static successor"
                    )
                if succ != self.nodes[position + 1][0]:
                    raise Uncompilable(
                        "trace edge does not match the node tail"
                    )
        if not self.looping and not self.plain:
            # a straight merge only saves one dispatch per invocation but
            # pays a wider register reload/flush at every entry and side
            # exit — measured net-negative, so only loops get traced
            # (plain one-node functions are exempt: they ARE the segment)
            raise Uncompilable("trace has no back-edge to its head")

    # -- emission helpers ------------------------------------------------------

    def _snapshot(self):
        return (
            dict(self.written), self.effects, list(self.bc_trail),
            self.sb_ex_base, self.sb_ld_base, self.sb_st_base,
            self.loads, self.stores,
        )

    def _restore(self, snapshot) -> None:
        (written, effects, bc_trail,
         ex_base, ld_base, st_base, loads, stores) = snapshot
        self.written = dict(written)
        self.effects = effects
        self.bc_trail = list(bc_trail)
        self.sb_ex_base = ex_base
        self.sb_ld_base = ld_base
        self.sb_st_base = st_base
        self.loads = loads
        self.stores = stores

    def _probe_getter(self, nentry, end, transfer) -> str:
        """The prologue local holding this probe site's transition
        table ``.get`` (registered on first use)."""
        site = (nentry, end, transfer)
        getter = self.probe_sites.get(site)
        if getter is None:
            getter = self.probe_sites[site] = f"tg{len(self.probe_sites)}"
        return getter

    def _emit_probe(self, nentry, end, transfer, node_exec) -> None:
        """Close the segment ``[nentry..end]`` inline: probe the
        segment's transition table through a per-site prologue local (a
        warm boundary is one two-int-tuple dict lookup, zero hashing of
        pipeline state), fall back to the real ``close`` on a miss, and
        commit the statically-known instruction/load/store deltas to
        the running totals."""
        total = self.node_exec_base + node_exec
        if total > self.max_exec:
            self.max_exec = total
        ex_delta = total - self.sb_ex_base
        ld_delta = self.loads - self.sb_ld_base
        st_delta = self.stores - self.sb_st_base
        getter = self._probe_getter(nentry, end, transfer)
        self._totals_live = True
        probe = self._tmp()
        self._line(f"{probe} = {getter}((eid, mm))")
        self._line(f"if {probe} is None:")
        self._line(
            f"    {probe} = close({nentry}, {end}, {transfer},"
            " mm, events, eid, b0 + ci)"
        )
        self._line("else:")
        self._line("    bch += 1")
        self._line(f"ci += {probe}[0]")
        self._line(f"eid = {probe}[1]")
        self._line("sbh += 1")
        self._line(f"ex += {ex_delta}")
        if ld_delta:
            self._line(f"ld += {ld_delta}")
        if st_delta:
            self._line(f"st += {st_delta}")
        self._line("del events[:]")
        self._line("mm = 0")
        self._line("lb = 1")
        self.sb_ex_base = total
        self.sb_ld_base = self.loads
        self.sb_st_base = self.stores
        self.effects = True

    def _emit_dflush(self) -> None:
        """Commit the batched block counts and inline data-cache tallies
        before a return (inline ``_SE`` raises skip this: the run
        aborts, matching the totals already lost with
        ``ex``/``ld``/``st``).  A zero block count is not written — the
        reference path never creates the key, and ``block_counts`` is
        compared bit-for-bit."""
        for label, local in self.bc_locals.items():
            self._line(f"if {local}:")
            self._line(f"    bc[{label!r}] = bcg({label!r}, 0) + {local}")
        if self.cached and self.has_mem:
            self._line("dcache.hits += dh; dcache.misses += dm")

    def _emit_side_exit(
        self, nentry, end, transfer, kind, label, node_exec,
        open_len=0, flush=True,
    ) -> None:
        if flush:
            self._flush()
        if kind != 0:
            # exit kinds 1-3 leave at a closed segment boundary: commit
            # it here (chain probe, ``close()`` on a miss) so the
            # dispatch loop only routes the pc — it never closes these
            if self.looping or self._totals_live:
                self._emit_probe(nentry, end, transfer, node_exec)
                self._emit_dflush()
                self._line(
                    f"return ({kind}, {end}, {transfer}, {label!r},"
                    f" {nentry}, 0, ex, ld, st, 0, 1, ci, eid, bch, sbh)"
                )
            else:
                self._emit_static_close(
                    nentry, end, transfer, kind, label, node_exec
                )
            return
        self._emit_dflush()
        total = self.node_exec_base + node_exec
        if total > self.max_exec:
            self.max_exec = total
        ex_delta = total - self.sb_ex_base
        ld_delta = self.loads - self.sb_ld_base
        st_delta = self.stores - self.sb_st_base
        if self.looping or self._totals_live:
            tail = (
                f"ex + {ex_delta}, ld + {ld_delta}, st + {st_delta},"
                " mm, lb, ci, eid, bch, sbh"
            )
        else:
            # no probe has run on this path (and no earlier iteration
            # can exist): the totals are static and the timing id is
            # untouched, so the running-total locals are elided
            tail = (
                f"{ex_delta}, {ld_delta}, {st_delta},"
                " mm, lb, 0, eid, 0, 0"
            )
        self._line(
            f"return ({kind}, {end}, {transfer}, {label!r}, {nentry},"
            f" {open_len}, {tail})"
        )

    def _emit_static_close(
        self, nentry, end, transfer, kind, label, node_exec
    ) -> None:
        """Closing exit of a function that has not probed on this path
        (the common shape: a plain non-looping segment).  Every running
        total is a static literal and the cycle base is exactly ``b0``,
        so only the transition record flows through a local — a warm
        call is one table probe and a constant tuple build."""
        total = self.node_exec_base + node_exec
        if total > self.max_exec:
            self.max_exec = total
        ex_delta = total - self.sb_ex_base
        ld_delta = self.loads - self.sb_ld_base
        st_delta = self.stores - self.sb_st_base
        getter = self._probe_getter(nentry, end, transfer)
        probe = self._tmp()
        head = (
            f"({kind}, {end}, {transfer}, {label!r}, {nentry}, 0,"
            f" {ex_delta}, {ld_delta}, {st_delta}, 0, 1,"
            f" {probe}[0], {probe}[1]"
        )
        self._line(f"{probe} = {getter}((eid, mm))")
        self._line(f"if {probe} is None:")
        self._line(
            f"    {probe} = close({nentry}, {end}, {transfer},"
            " mm, events, eid, b0)"
        )
        self._line("    del events[:]")
        self.indent += 1
        self._emit_dflush()
        self.indent -= 1
        self._line(f"    return {head}, 0, 1)")
        self._line("del events[:]")
        self._emit_dflush()
        self._line(f"return {head}, 1, 1)")

    def _emit_back_edge(self, nentry, pc, instr, index) -> None:
        """A taken exit targeting the trace head: close the segment
        inline, then loop in-function while the fuse budget allows,
        otherwise flush and stop at the head (kind 4: everything
        already closed and accounted in the returned totals)."""
        end = self._emit_slots(pc, instr)
        executed = index + 1 + abs(instr.desc.slots)
        self._emit_probe(nentry, end, pc, executed)
        self._line("if ex <= fz:")
        self._line("    continue")
        self._flush()
        self._emit_dflush()
        self._line(
            f"return (4, 0, -1, None, {self.entry}, 0, ex, ld, st,"
            " 0, 1, ci, eid, bch, sbh)"
        )

    # -- emit: the function ----------------------------------------------------

    def _emit(self) -> str:
        name = self._name()
        self.lines = [
            f"def {name}(state, dcache, events, bc, tt, close,"
            " eid, b0, fz, mm, lb):"
        ]
        # the whole prologue is assembled after the body, once the body
        # says which bindings it actually needs (memory, block counts,
        # data-cache geometry, running totals, probe-site getters,
        # entry loads)
        prologue_at = len(self.lines)
        self._find_trace_shape()
        if self.looping:
            # same argument as chained self-loops: iterations past the
            # first run on register state that only lives in locals, so
            # guards raise inline and every exit flushes every view
            self.effects = True
            for key, type_name in self.typed.items():
                self._mark_written(type_name, key)
                self.entry_reads.add((type_name, key))
            for unit in self.raw:
                self._mark_written("raw", unit)
                self.entry_reads.add(("raw", unit))
            # pre-register every block label the trace can count: an
            # early side exit flushes whatever locals exist at emission
            # time, and a later iteration may reach it carrying counts
            # in locals that are only *emitted* further down the body
            for _entry, trace, _tail in self.nodes:
                for pc in trace:
                    if pc in self.tr.block_starts:
                        label = self.tr.block_of[pc]
                        if label not in self.bc_locals:
                            self.bc_locals[label] = f"bn{len(self.bc_locals)}"
                            self.uses_bc = True
            self._line("while 1:")
            self.indent += 1
        last = len(self.nodes) - 1
        for position, (entry, trace, tail) in enumerate(self.nodes):
            self._emit_node(position, entry, trace, tail, position == last)
        prologue = ["    u = state.units"]
        if self.has_mem:
            prologue.append("    mem = state.memory")
            prologue.append("    ml = len(mem)")
            prologue.append("    ea = events.append")
        if self.uses_bc:
            prologue.append("    bcg = bc.get")
        for local in self.bc_locals.values():
            prologue.append(f"    {local} = 0")
        if self.cached and self.has_mem:
            prologue.append("    dtg = dcache.tags")
            prologue.append(
                "    dls = dcache.line_shift; dsm = dcache.set_mask;"
                " dts = dcache.tag_shift"
            )
            prologue.append("    dh = 0; dm = 0")
        if self.looping or self._totals_live:
            prologue.append(
                "    ex = 0; ld = 0; st = 0; ci = 0; bch = 0; sbh = 0"
            )
        for (entry, end, transfer), getter in self.probe_sites.items():
            prologue.append(
                f"    {getter} = tt({entry}, {end}, {transfer}).get"
            )
        prologue.extend(self._entry_loads())
        self.lines[prologue_at:prologue_at] = prologue
        return "\n".join(self.lines) + "\n"

    def _emit_node(self, position, entry, trace, tail, is_last) -> None:
        labels = self.tr.executable.labels
        head = self.entry
        instrs = self.tr.instrs
        for index, pc in enumerate(trace):
            instr = instrs[pc]
            stmts = _stmts_of(instr)
            control = _control_of(stmts)
            for stmt in stmts[:-1] if control is not None else stmts:
                self._emit_stmt(stmt, instr, pc, False)
            if isinstance(control, ast.CondGotoStmt):
                cond_code, _, _ = self._expr(
                    control.condition, instr, "int", pc, False
                )
                cond = self._tmp()
                self._line(f"{cond} = {cond_code}")
                self._emit_bc(pc)
                label = self._label_of(control.target, instr)
                if control is tail and pc == trace[-1]:
                    # truncated node: the taken side continues the
                    # trace; not-taken leaves with the segment open
                    self._line(f"if {cond} == 0:")
                    self.indent += 1
                    snapshot = self._snapshot()
                    self._emit_side_exit(
                        entry, pc, -1, 0, None, index + 1,
                        open_len=index + 1,
                    )
                    self._restore(snapshot)
                    self.indent -= 1
                    executed = index + 1 + abs(instr.desc.slots)
                    if labels.get(label) == head:
                        self._emit_back_edge(entry, pc, instr, index)
                    elif not is_last:
                        end = self._emit_slots(pc, instr)
                        self._emit_probe(entry, end, pc, executed)
                        self.node_exec_base += executed
                    else:
                        end = self._emit_slots(pc, instr)
                        self._emit_side_exit(
                            entry, end, pc, 1, label, executed
                        )
                    continue
                self._line(f"if {cond} != 0:")
                self.indent += 1
                snapshot = self._snapshot()
                if labels.get(label) == head:
                    self._emit_back_edge(entry, pc, instr, index)
                else:
                    end = self._emit_slots(pc, instr)
                    self._emit_side_exit(
                        entry, end, pc, 1, label,
                        index + 1 + abs(instr.desc.slots),
                    )
                self._restore(snapshot)
                self.indent -= 1
            elif isinstance(control, ast.GotoStmt):
                self._emit_bc(pc)
                label = self._label_of(control.target, instr)
                executed = index + 1 + abs(instr.desc.slots)
                if labels.get(label) == head:
                    self._emit_back_edge(entry, pc, instr, index)
                elif not is_last:
                    # the hot internal edge: probe, then fall through
                    # into the next node's code
                    end = self._emit_slots(pc, instr)
                    self._emit_probe(entry, end, pc, executed)
                    self.node_exec_base += executed
                else:
                    end = self._emit_slots(pc, instr)
                    self._emit_side_exit(entry, end, pc, 1, label, executed)
            elif isinstance(control, ast.RetStmt):
                self._emit_bc(pc)
                end = self._emit_slots(pc, instr)
                executed = index + 1 + abs(instr.desc.slots)
                expected = self.ret_targets.get(position)
                if expected is not None and (
                    expected == head or not is_last
                ):
                    # in-trace return: the matching call pinned the
                    # return address statically — guard on the live
                    # %retaddr view and stay in generated code
                    ra = self._read_unit_bits(self.ret_unit)
                    self._line(f"if {ra} != {expected}:")
                    self.indent += 1
                    snapshot = self._snapshot()
                    self._emit_side_exit(entry, end, pc, 2, None, executed)
                    self._restore(snapshot)
                    self.indent -= 1
                    self._emit_probe(entry, end, pc, executed)
                    if expected == head:
                        self._line("if ex <= fz:")
                        self._line("    continue")
                        self._flush()
                        self._emit_dflush()
                        self._line(
                            f"return (4, 0, -1, None, {self.entry}, 0,"
                            " ex, ld, st, 0, 1, ci, eid, bch, sbh)"
                        )
                    else:
                        self.node_exec_base += executed
                else:
                    self._emit_side_exit(entry, end, pc, 2, None, executed)
            elif isinstance(control, ast.CallStmt):
                self._emit_bc(pc)
                label = self._label_of(control.target, instr)
                # the return-address write stays in the tracked view:
                # internal calls fall through into the callee's code,
                # a tail call side-exits through the dispatch
                self._write_unit_bits(
                    self.ret_unit, str((pc + 1) & 0xFFFFFFFF)
                )
                if not is_last:
                    self._emit_probe(entry, pc, pc, index + 1)
                    self.node_exec_base += index + 1
                else:
                    self._emit_side_exit(
                        entry, pc, pc, 3, label, index + 1
                    )
            else:
                self._emit_bc(pc)
        if tail is None:
            # open fallthrough: only reachable as the trace's last exit
            self._emit_side_exit(
                entry, trace[-1], -1, 0, None, len(trace),
                open_len=len(trace),
            )


class SegmentJIT:
    """Per-executable JIT manager: warmup counting, the compiled-function
    tables (one per data-cache presence, since the bookkeeping differs),
    deopt blacklisting, and lifetime counters.  Shared by every
    :class:`~repro.sim.simulator.Simulator` over one executable, so
    warmup and translation amortize across runs."""

    def __init__(self, executable, warmup: int | None = None):
        self.translator = SegmentTranslator(executable)
        self.warmup = JIT_WARMUP if warmup is None else warmup
        self._tables: tuple[dict, dict] = ({}, {})
        #: artifact-cache payloads not yet materialized: entry pc ->
        #: exported record, consumed lazily at first dispatch so a
        #: preload never eagerly ``compile()``s thousands of segments
        self._pending: tuple[dict, dict] = ({}, {})
        self._dispatches: dict[int, int] = {}
        self._deopt_counts: dict[int, int] = {}
        #: taken-edge profile feeding trace selection:
        #: ``(from_entry, to_entry) -> count``, shared across runs
        self.edges: dict[tuple[int, int], int] = {}
        #: the branch pc last observed taking each profiled edge —
        #: disambiguates which of several same-label conditionals in a
        #: segment is the hot one when placing a trace cut
        self.edge_sites: dict[tuple[int, int], int] = {}
        #: trace heads already decided (built or refused), per table
        self._sb_decided: tuple[set, set] = (set(), set())
        #: ``(flag, head) ->`` the plain segment record a superblock
        #: replaced — live ``(fn, max_exec, False)`` tuple or exported
        #: ``("seg", ...)`` payload — restored when the trace blacklists
        self._sb_fallback: dict = {}
        #: ``(flag, head) ->`` node count of the installed trace, the
        #: yardstick for the quality gate: a call whose probe-close
        #: count stays at or below it never reached the back-edge
        self.sb_nodes: dict = {}
        #: ``(flag, head) -> (side exits, early exits)`` in the current
        #: quality window
        self._sb_bad: dict = {}
        self.compiled = 0
        self.uncompilable = 0
        self.preloaded = 0
        self.deopts = 0
        self.superblocks = 0
        self.sb_preloaded = 0
        #: something export() would return changed since the last
        #: persist — a fresh translation, refusal or blacklisting
        self.dirty = False

    def functions(self, cached: bool) -> dict:
        """entry pc -> ``(function, max_executed, is_superblock)`` |
        ``None`` (refused or blacklisted — permanently interpreted)."""
        return self._tables[1 if cached else 0]

    def active_segments(self) -> int:
        """Entries with a live compiled function (plain segment or
        superblock) in either table — whether freshly compiled or
        preloaded from the artifact cache.  This is the number that
        distinguishes a warm run (``compiled == 0`` but hundreds
        active) from a run with the JIT off."""
        return sum(
            1
            for table in self._tables
            for record in table.values()
            if record is not None
        )

    def warm(self, entry: int, cached: bool):
        """Count one dispatch of a not-yet-compiled entry; compile it
        once it crosses the warmup threshold.  Entries preloaded from
        the artifact cache skip warmup: the marshalled code object (or
        the generated source, when the payload came from a different
        interpreter) is materialized on the spot (counted in
        ``preloaded``, not ``compiled`` — no translation work
        happened)."""
        flag = 1 if cached else 0
        pending = self._pending[flag]
        if entry in pending:
            record = self._materialize((flag, entry), pending.pop(entry))
            self.preloaded += 1
            if record is not None and record[2]:
                self.sb_preloaded += 1
                self._sb_decided[flag].add(entry)
            self.functions(cached)[entry] = record
            return record
        count = self._dispatches.get(entry, 0) + 1
        if count < self.warmup:
            self._dispatches[entry] = count
            return None
        self._dispatches.pop(entry, None)
        try:
            fn, max_exec = self.translator.translate(entry, cached)
            record = (fn, max_exec, False)
            self.compiled += 1
        except Uncompilable:
            record = None
            self.uncompilable += 1
        self.functions(cached)[entry] = record
        self.dirty = True
        return record

    def build_superblock(
        self, head: int, cached: bool, block_counts=None
    ) -> bool:
        """Attempt to promote ``head``'s compiled segment into a trace
        superblock (greedy hot-path selection over :attr:`edges`).  One
        attempt per head; returns whether a superblock was installed.
        The plain record is stashed so blacklisting a trace falls back
        to the segment, and so promotion of a *preloaded* segment never
        perturbs the ``preloaded``/``compiled`` split."""
        flag = 1 if cached else 0
        decided = self._sb_decided[flag]
        if head in decided:
            return False
        decided.add(head)
        current = self._tables[flag].get(head)
        if current is None or current[2]:
            # refused/blacklisted head, or already a superblock
            return False
        selected = self._select_trace(head, block_counts)
        if selected is None:
            return False
        entries, cuts = selected
        try:
            fn, max_exec = self.translator.translate_trace(
                entries, cached, cuts
            )
        except Uncompilable:
            return False
        self._sb_fallback[(flag, head)] = current
        self._tables[flag][head] = (fn, max_exec, True)
        self.sb_nodes[(flag, head)] = len(entries)
        self.superblocks += 1
        self.dirty = True
        return True

    def note_trace_exit(
        self, head: int, cached: bool, closes: int, kind: int
    ) -> None:
        """Trace-quality gate, fed by the dispatch loop on every trace
        side exit.  The harmful pattern is an *open* exit (kind 0)
        before the first back-edge: the call did no better than the
        plain segments it replaced, and its open tail resumes
        mid-segment in the interpreter.  Taken/call/return side exits
        land on block starts and re-enter compiled code, so they stay
        cheap however often they fire — a trace that alternates arms
        of a diamond is doing its job.  ``closes`` is the number of
        probe closes the call performed: at most the trace's node
        count means it never reached the back-edge.  Every
        :data:`SUPERBLOCK_DEMOTE_WINDOW` side exits the early-open
        rate is judged; at or above :data:`SUPERBLOCK_DEMOTE_RATIO`
        the head is demoted back to its stashed segment record.  Fuse
        stops (kind 4) never reach here, so a trace that mostly runs
        to the fuse is never demoted."""
        item = (1 if cached else 0, head)
        nodes = self.sb_nodes.get(item)
        if nodes is None:
            return
        exits, early = self._sb_bad.get(item, (0, 0))
        exits += 1
        if kind == 0 and closes <= nodes:
            early += 1
        if exits < SUPERBLOCK_DEMOTE_WINDOW:
            self._sb_bad[item] = (exits, early)
            return
        if early >= exits * SUPERBLOCK_DEMOTE_RATIO:
            self._sb_bad.pop(item, None)
            self._demote(item)
        else:
            # window passed: start a fresh one so a later phase change
            # can still demote
            self._sb_bad[item] = (0, 0)

    def _demote(self, item) -> None:
        """Replace the trace at ``item`` with the plain segment record
        it was promoted from.  The head stays in ``_sb_decided``, so it
        is never re-promoted in this process."""
        flag, head = item
        fallback = self._sb_fallback.pop(item, None)
        if fallback is None:
            return
        if not callable(fallback[0]):
            fallback = self._materialize(item, fallback)
        self._tables[flag][head] = fallback
        self.sb_nodes.pop(item, None)
        self.dirty = True

    def _select_trace(self, head: int, block_counts=None):
        """Greedy hot-path selection from ``head``: at each node follow
        the hottest profiled taken edge (truncating the node at a
        mid-segment conditional when that is the hot exit), or the
        static flow through an unconditional tail — calls enter their
        callee and returns follow the pc an earlier in-trace call
        pinned.  Stops at the head itself (the codegen turns
        head-targeting exits into back-edges), a repeated node, a cold
        edge, or the node cap.  ``(entries, cuts)`` or ``None``."""
        entries = [head]
        seen = {head}
        current = head
        returns: list[int] = []
        cuts: dict[int, int] = {}
        while len(entries) < SUPERBLOCK_MAX_NODES:
            succ, cut = self._next_node(current, returns, block_counts)
            if succ is None or succ in seen:
                break
            if cut is not None:
                cuts[current] = cut
            entries.append(succ)
            seen.add(succ)
            current = succ
        return (entries, cuts) if len(entries) >= 2 else None

    def _next_node(self, current: int, returns: list, block_counts=None):
        """The trace successor of ``current`` and an optional
        truncation pc: the hottest profiled taken edge when it is hot
        enough (resolved to the terminal goto or a mid-segment
        conditional), else the deterministic call/return flow.  A
        conditional cut is only used when its taken side dominates the
        fall-through by :data:`SUPERBLOCK_CUT_BIAS`; a weakly biased
        branch keeps the whole segment in the trace and follows the
        static flow instead."""
        best, best_count = None, 0
        for (frm, to), count in self.edges.items():
            if frm == current and count > best_count:
                best, best_count = to, count
        if best is not None and best_count >= SUPERBLOCK_MIN_EDGE:
            cut = self.translator.hot_cut(
                current, best, self.edge_sites.get((current, best))
            )
            if cut is not None:
                kind, pc = cut
                if kind != "cond":
                    return best, None
                fall = self.translator.fallthrough_count(pc, block_counts)
                if fall is not None and (
                    best_count >= fall * SUPERBLOCK_CUT_BIAS
                ):
                    return best, pc
        succ, via = self.translator.trace_successor(current, returns)
        if via in ("call", "ret"):
            return succ, None
        return None, None

    def segment_fallback(self, entry: int, cached: bool):
        """The plain segment record behind a superblock at ``entry``
        (materialized on demand), restored when the trace blacklists."""
        item = (1 if cached else 0, entry)
        fallback = self._sb_fallback.get(item)
        if fallback is None:
            return None
        if not callable(fallback[0]):
            fallback = self._materialize(item, fallback)
            self._sb_fallback[item] = fallback
        return fallback

    def note_deopt(
        self, entry: int, cached: bool, fault: JitDeopt, block_counts: dict
    ) -> None:
        """Undo the compiled prefix's block-count increments; blacklist
        the entry after :data:`MAX_DEOPTS` guard failures.  A
        blacklisted *superblock* falls back to the plain segment record
        it replaced (with a fresh deopt budget) rather than all the way
        to the interpreter."""
        self.deopts += 1
        for label in fault.bc_undo:
            remaining = block_counts.get(label, 0) - 1
            if remaining > 0:
                block_counts[label] = remaining
            else:
                block_counts.pop(label, None)
        count = self._deopt_counts.get(entry, 0) + 1
        self._deopt_counts[entry] = count
        if count >= MAX_DEOPTS:
            restored = None
            current = self.functions(cached).get(entry)
            if current is not None and current[2]:
                restored = self.segment_fallback(entry, cached)
                item = (1 if cached else 0, entry)
                self._sb_fallback.pop(item, None)
                self.sb_nodes.pop(item, None)
                self._sb_bad.pop(item, None)
                self._deopt_counts[entry] = 0
            self.functions(cached)[entry] = restored
            self.dirty = True

    # -- artifact-cache serialization ------------------------------------

    @staticmethod
    def _compile_payload(payload):
        """``(name, source, consts, max_exec, magic, code_blob)`` ->
        ``(fn, max_exec)``.  ``code_blob`` is the marshalled code
        object; it is only trusted when ``magic`` matches this
        interpreter's bytecode magic (the payload may have been written
        by a different Python), otherwise the source is recompiled."""
        name, source, consts, max_exec, magic, blob = payload
        env = dict(_BASE_ENV)
        for cname, bc_undo in consts.items():
            env[cname] = JitDeopt(tuple(bc_undo))
        if magic == MAGIC_NUMBER and blob is not None:
            code = marshal.loads(blob)
        else:
            code = compile(source, f"<jit:{name}>", "exec")
        exec(code, env)
        fn = env[name]
        fn._jit_source = source
        fn._jit_name = name
        fn._jit_consts = dict(consts)
        fn._jit_code = code
        return fn, max_exec

    def _materialize(self, item, record):
        """Rebuild a table record from its exported form — the inverse
        of what :meth:`export` captures.  ``item`` is ``(flag, entry)``;
        a superblock payload also stashes its segment fallback."""
        if record is None:
            return None
        if record[0] == "sb":
            fn, max_exec = self._compile_payload(record[1])
            if record[2] is not None:
                self._sb_fallback.setdefault(item, record[2])
            if len(record) > 3 and record[3]:
                self.sb_nodes[item] = record[3]
            return (fn, max_exec, True)
        fn, max_exec = self._compile_payload(record[1:])
        return (fn, max_exec, False)

    @staticmethod
    def _export_payload(fn, max_exec):
        try:
            blob = marshal.dumps(fn._jit_code)
        except ValueError:
            blob = None
        return (
            fn._jit_name, fn._jit_source, dict(fn._jit_consts), max_exec,
            MAGIC_NUMBER, blob,
        )

    def export(self) -> dict:
        """A picklable snapshot of every decided entry: ``(cached,
        entry) -> None`` (refused/blacklisted), ``("seg", name, source,
        consts, max_executed, magic, code_blob)``, or ``("sb", payload,
        fallback, nodes)`` for a superblock (``fallback`` is the segment record
        it replaced, in ``("seg", ...)`` form, so a warm process can
        blacklist or demote back to it; ``nodes`` feeds the quality
        gate).  Pending preloads the process never dispatched are passed
        through so a partial warm run does not shrink the artifact."""
        out: dict = {}
        for flag in (0, 1):
            for entry, record in self._tables[flag].items():
                if record is None:
                    out[(flag, entry)] = None
                    continue
                fn, max_exec, is_sb = record
                body = self._export_payload(fn, max_exec)
                if is_sb:
                    fallback = self._sb_fallback.get((flag, entry))
                    if fallback is not None and callable(fallback[0]):
                        fallback = ("seg",) + self._export_payload(
                            fallback[0], fallback[1]
                        )
                    out[(flag, entry)] = (
                        "sb", body, fallback,
                        self.sb_nodes.get((flag, entry), 0),
                    )
                else:
                    out[(flag, entry)] = ("seg",) + body
            for entry, record in self._pending[flag].items():
                out.setdefault((flag, entry), record)
        return out

    def preload(self, payload: dict) -> int:
        """Stage an :meth:`export` payload; returns entries staged.
        Entries this process already decided are left alone; records in
        an unrecognized format are skipped."""
        staged = 0
        for item, record in payload.items():
            try:
                flag, entry = item
                table_index = 1 if flag else 0
            except (TypeError, ValueError):
                continue
            if record is not None and (
                not isinstance(record, tuple)
                or not record
                or record[0] not in ("seg", "sb")
            ):
                continue
            if entry in self._tables[table_index]:
                continue
            self._pending[table_index][entry] = record
            staged += 1
        return staged
