"""Block-level JIT: hot straight-line segments compiled to flat Python.

The closure interpreter (:mod:`repro.sim.executor`) pays per-operand
closure dispatch, register-unit packing/unpacking and mem-log
bookkeeping on every executed instruction.  The Livermore kernels spend
essentially all dynamic instructions in a handful of loop bodies, so
once a segment entry (the same ``(entry_pc, ...)`` unit the block-timing
memo keys on in :meth:`Simulator._run_fast`) has been dispatched
:data:`JIT_WARMUP` times, :class:`SegmentTranslator` walks the segment's
Maril semantics trees and emits one flat Python function for the whole
straight-line region: the generated source goes through ``compile()``
and the function is built from its code object over one shared,
read-only globals dict.  Only the code object and the probe sites live
on; the source is dropped once compiled.

Inside the generated function:

* integer and double registers live in Python locals across the whole
  segment — loaded at entry only where the body reads them before it
  writes them, stored back only at the exits (and only the views the
  path actually wrote);
* float-typed and aliased register units are raw 32-bit word locals,
  converted with the same prebound ``struct`` codecs the interpreter
  uses, so every value is bit-identical — including NaN payloads
  (floats are never held as typed values because the f32<->f64
  conversion can quiet a signaling NaN).  An aliased view written or
  read as a signed int or a double keeps that value in a temp that
  later reads reuse; its words are produced only where they are read
  as words (a move, the ``%retaddr`` guard), at a flush, a back-edge
  or a join;
* a 32-bit wrap is range-checked before it masks; a wrap or an
  address is computed once per path, and an address bounds-checked
  once, until a local the expression reads is written;
* temporal registers (the i860's pipeline latches ``m1..m3`` and
  ``a1..a3``) are read and written in machine state through a prologue
  local ``tp = state.temporal``, exactly as the interpreter does
  (``tp.get(name, 0.0)`` before the first write); a write whose
  value's static type differs from the latch's is refused, because the
  interpreter would store that value as it is;
* memory accesses perform the data-cache tag check (pure shift/mask
  over the cache's preallocated tag array — the same arithmetic
  :meth:`DirectMappedCache.access` runs, inlined) and set the miss-mask
  bit of a missed load, in exactly the positional order the closure
  contract requires (``executor.py`` module docstring), so the
  block-timing replay sees an indistinguishable miss mask;
* a conditional branch to a later pc of the same segment, past its
  delay slots, becomes an if/else that meets again at the segment's
  tail: the taken arm closes the segment inline and continues as the
  segment headed at the target, exactly as the dispatch loop would
  (one such join per segment); any other taken conditional branch is
  an early return, and the tail control transfer (and its delay slots)
  is compiled into the exit itself.  Every generated function — plain
  segment or superblock — leaves at a closed segment boundary and
  returns its next pc, under the exit contract documented on
  :class:`_TraceCodegen`;
* a segment whose taken transfer targets its *own entry* (an innermost
  loop) is *chained*: the body is wrapped in ``while 1`` and the
  back-edge, instead of returning, commits the iteration's timing
  through an inlined transition-table probe and jumps back to the top —
  registers stay in Python locals and a warm iteration boundary costs
  one int-keyed dict lookup, with no call out of generated code.
  Every exit of such a function flushes the union of all views the
  body can write (a previous iteration may have taken any path).

On top of single segments, hot multi-segment *traces* are stitched into
**superblocks**: the driver profiles taken segment edges, and once an
edge crosses :data:`SUPERBLOCK_WARMUP` the greedy selector follows each
node's unconditional tail — a goto only while it is the node's hottest
profiled edge, calls and returns always — bounded by
:data:`SUPERBLOCK_MAX_NODES`, and stopping before an inner loop's head,
whose own chained function runs it.  A node repeats only where a call
enters it, so a loop may call one function from several sites.  Only
traces that loop back to their head are installed.  The whole trace
becomes one generated function with the transition probe inlined at
every internal segment boundary — a warm hit costs one dict lookup
inside generated code, and only a first visit calls back into
:meth:`BlockTimingCache.close`.
The dispatch loop binds each function's probe-site getters once per
run (:attr:`_TraceCodegen.probe_sites`, carried as ``fn._jit_sites``).
Any taken exit targeting the trace head becomes a back-edge of one
outer ``while 1`` (probe + fuse check + ``continue``), so steady-state
iterations of multi-segment loops never return to the dispatch loop;
every other exit is a *side exit* that closes its final segment
in-function and returns the pc to continue at — timing keys, close
order and miss masks are exactly the ones interpreted segments produce,
which is what keeps compiled code bit-identical to the interpreter.
Both shapes share one codegen (:class:`_TraceCodegen`; a plain segment
is a one-node trace), one :meth:`SegmentTranslator.translate` and
therefore one branch in the dispatch loop.

Anything the translator does not cover — mistyped latch writes, invalid
double pairings, control in a delay slot, unallocated operands, a
branch to an undefined label, a segment that reaches
:data:`SEGMENT_CAP` or the program end without a transfer — is refused
statically (:class:`Uncompilable`) and that entry permanently stays on
the interpreter; ``SimResult.interpreted`` counts what a run left
there.  A division guard raises the interpreter's
:class:`~repro.errors.SimulationError` inline with the same message, in
plain segments and loops alike: a run that divides by zero has failed,
and that error is all it reports.
"""

from __future__ import annotations

import copy
import marshal
import re
import struct
import types

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

#: taken-edge traversals of one (from, to) segment edge before a trace
#: superblock is attempted at the edge's source entry
SUPERBLOCK_WARMUP = 64

#: an internal trace edge must have been taken at least this often for
#: the greedy selector to keep extending the trace through it
SUPERBLOCK_MIN_EDGE = max(1, SUPERBLOCK_WARMUP // 4)

#: maximum number of segments stitched into one superblock
SUPERBLOCK_MAX_NODES = 8

_INT_MAX = 2**31 - 1

_INT_OPS = frozenset("+ - * / % & | ^ << >>".split())
_FLOAT_OPS = frozenset("+ - * /".split())
_REL_OPS = frozenset("== != < <= > >=".split())
#: the register locals and ``tp`` (the latches) generated code reads
_LOCALS = re.compile(r"\b(?:[iud]\d+_\d+|tp)\b")


class Uncompilable(Exception):
    """Static refusal: this segment stays on the closure interpreter."""


# the globals dict every generated function shares (nothing writes it):
# its names are prebound, so the generated code never does a dotted or
# module-global lookup on its hot path
_BASE_ENV = {
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

    def translate(self, entries: list[int], cached: bool):
        """Compile the trace headed at ``entries[0]``; ``(function,
        max_executed)`` with the call contract of :class:`_TraceCodegen`.

        Every node is a whole segment, joined to the next through its
        unconditional tail.  One entry is a plain segment (self-loop
        back-edges chain in-function with the timing probe inlined,
        exactly like trace back-edges); more are a superblock, which
        must loop back to its head.  Raises :class:`Uncompilable` when
        the trace has another shape or any instruction on it uses a
        construct the translator does not cover."""
        nodes = [(entry, *self._trace(entry)) for entry in entries]
        return _TraceCodegen(self, nodes, cached).build()

    def target_pc(self, pc: int, control) -> int:
        """The pc the goto, call or conditional branch at ``pc``
        targets: the one label lookup generated code relies on.  Raises
        :class:`Uncompilable` unless the target is a defined label."""
        target = control.target
        if not isinstance(target, ast.OperandRef):
            raise Uncompilable("branch target is not an operand")
        operand = self.instrs[pc].operands[target.index - 1]
        if not isinstance(operand, Lab):
            raise Uncompilable("branch target operand is not a label")
        resolved = self.executable.labels.get(operand.name)
        if resolved is None:
            raise Uncompilable(f"undefined label {operand.name!r}")
        return resolved

    def trace_successor(self, entry: int, returns: list):
        """The static successor through the segment's unconditional
        tail, following in-trace calls and returns: a call pushes its
        static return pc on ``returns`` (and enters the callee), a
        return pops it (the popped pc is what a run-time guard later
        enforces).  ``(successor, via)`` with ``via`` one of ``"goto"``
        / ``"call"`` / ``"ret"``, or ``(None, None)``."""
        try:
            trace, tail = self._trace(entry)
            if isinstance(tail, ast.GotoStmt):
                return self.target_pc(trace[-1], tail), "goto"
            if isinstance(tail, ast.CallStmt) and (
                self.target.cwvm.retaddr is not None
            ):
                succ = self.target_pc(trace[-1], tail)
                returns.append(trace[-1] + 1)
                return succ, "call"
        except Uncompilable:
            return None, None
        if isinstance(tail, ast.RetStmt) and returns:
            return returns.pop(), "ret"
        return None, None

    def _trace(self, entry: int):
        """Static straight-line walk: pcs up to (and including) the first
        unconditional transfer.  A walk that reaches the segment cap or
        the program end first is refused, so every generated function
        leaves at a closed segment boundary."""
        pcs: list[int] = []
        pc = entry
        program_size = len(self.instrs)
        while pc < program_size and len(pcs) < SEGMENT_CAP:
            control = _control_of(_stmts_of(self.instrs[pc]))
            pcs.append(pc)
            if isinstance(control, _UNCONDITIONAL):
                return pcs, control
            pc += 1
        raise Uncompilable("segment ends without a transfer")

    def slot_pcs(self, pc: int, instr: MachineInstr) -> list[int]:
        program_size = len(self.instrs)
        return [
            pc + 1 + slot
            for slot in range(abs(instr.desc.slots))
            if pc + 1 + slot < program_size
        ]


def _function(code, sites: tuple):
    """A generated function, built from its code object over the shared
    :data:`_BASE_ENV`; ``_jit_sites`` lists the probe sites whose
    getters the dispatch loop binds (see :class:`_TraceCodegen`)."""
    fn = types.FunctionType(code, _BASE_ENV)
    fn._jit_sites = sites
    return fn


class _Path:
    """What the translator knows on the current emission path: copied at
    every branch (:meth:`_TraceCodegen._snapshot`), merged at a join.

    ``counts`` holds the instructions, loads, stores and closed segments
    since the function's entry or the last back-edge, keyed by the
    running-total local each one goes to (``ex``, ``ld``, ``st``,
    ``sbh``): static, so exits return them as literals.  ``values``
    maps a raw register view (one unit: a signed int, two: a double) to
    the temp holding its value, ``stale`` each raw unit whose local lags
    to the ``(temp, view)`` its word is still pending in, and ``exprs``
    an expression already computed on the path — a 32-bit wrap, keyed
    ``wrap32(code)``, or an address — to ``(temp, bytes bounds-checked
    there, locals it reads)``.  ``masked``: a load may have set a
    miss-mask bit since the last probe."""

    def __init__(self):
        self.counts = {"ex": 0, "ld": 0, "st": 0, "sbh": 0}
        self.values: dict[tuple, str] = {}
        self.stale: dict[tuple[int, int], tuple] = {}
        self.exprs: dict[str, tuple] = {}
        self.masked = False

    def copy(self) -> "_Path":
        other = copy.copy(self)
        other.counts = dict(self.counts)
        other.values = dict(self.values)
        other.stale = dict(self.stale)
        other.exprs = dict(self.exprs)
        return other


class _TraceCodegen:
    """One trace (a chain of segments) -> one generated function.

    Every generated function — plain segment (a one-node trace) or
    superblock — comes from here and shares one call contract.
    Structure: single entry at the trace head.  Internal
    transitions (a node's terminal goto targeting the next node) run
    the block-timing transition probe inline and fall through into the
    next node's code, and so does a taken forward branch inside a node
    (:meth:`_emit_join`); any taken exit targeting the *head* becomes a
    back-edge of one outer ``while 1`` (probe + fuse check +
    ``continue``); every other exit is a side exit returning to the
    dispatch loop.  Every exit leaves at a closed segment boundary: it
    closes its final segment inline through the same probe machinery,
    so the dispatch loop only continues at the returned pc.

    Call contract::

        fn(state, dcache, bc, tg, close, eid, b0, fz)

    ``dcache`` is the data-cache model (its tag array and shift/mask
    geometry are read into locals once; accesses are inlined
    arithmetic), ``tg`` the tuple of bound ``get`` methods of each
    probe site's ``{transition_key(eid, mm): record}`` transition dict,
    in :attr:`probe_sites` order (``fn._jit_sites``): the dispatch loop
    binds them once per run through that run's accessor, so a warm
    boundary is one int-keyed lookup — and
    ``close`` the miss path.  ``eid`` is the entry digest id, ``b0``
    the absolute base cycle at entry, and ``fz`` the
    executed-instruction budget for back-edges.  The segment's miss
    mask ``mm`` and next load bit ``lb`` start at ``0``/``1`` in the
    prologue: the function is only called at a fresh segment boundary.
    Returns ``(pc, edge, ex, ld, st, ci, eid, bch, sbh)``.  ``pc`` is
    where the run continues: a branch or call target resolved at
    translation (:meth:`SegmentTranslator.target_pc`), the ``%retaddr``
    word read after a return's flush, or the head after a fuse stop.
    ``edge`` is the entry of the segment whose taken branch the exit
    follows (the profiled edge's source), ``-1`` after a call or a
    return and ``None`` for a fuse stop.  ``ex``/``ld``/``st`` are
    whole-call instruction/load/store totals, ``ci`` the accumulated
    cycle delta, ``eid`` the current digest id, ``bch`` inline probe
    hits and ``sbh`` segments closed in-function.  A probe only counts
    its miss (``bm``): what a path executes, loads, stores and closes is
    static (:class:`_Path`), so an exit returns those counts as
    literals — in a looping function added to the running totals that
    every back-edge commits — and ``bch`` is ``sbh`` less the misses.
    Without a data cache the miss mask is the literal ``0``.
    """

    def __init__(self, translator, nodes, cached):
        self.tr = translator
        #: ``(entry, pcs, tail control)`` per segment, head first
        self.nodes = nodes
        self.entry = nodes[0][0]
        self.cached = cached
        # scan results
        self.touched: set[tuple[int, int]] = set()
        self.view_types: dict[tuple, set[str]] = {}
        self.unit_views: dict[tuple[int, int], set[tuple]] = {}
        #: any memory access anywhere in the function (a whole-function
        #: property, so prologue/exit data-cache bookkeeping is emitted
        #: consistently regardless of source order)
        self.has_mem = False
        #: access sizes whose bounds limit ``ml{size}`` the prologue binds
        self.limits: set[int] = set()
        # decided representations
        self.typed: dict[tuple, str] = {}
        # emit state
        self.lines: list[str] = []
        self.indent = 1
        self.tmp_count = 0
        self.written: dict[tuple, None] = {}
        self.path = _Path()
        self.entry_reads: set[tuple] = set()
        self.uses_bc = False
        #: block label -> prologue local batching its execution count in
        #: looping functions (committed to ``bc`` at every return site)
        self.bc_locals: dict[str, str] = {}
        self.max_exec = 0
        #: any taken exit targets the head (filled by
        #: :meth:`_find_trace_shape`)
        self.looping = False
        #: any temporal-register (latch) access: binds ``tp`` in the
        #: prologue
        self.uses_temporal = False
        #: ``(entry, end, transfer) -> prologue local`` holding that
        #: probe site's transition table ``.get`` (unpacked from ``tg``)
        self.probe_sites: dict[tuple, str] = {}
        #: node position -> statically pinned return pc for in-trace
        #: returns (filled by :meth:`_find_trace_shape`); the pc a
        #: run-time guard on the %retaddr register enforces
        self.ret_targets: dict[int, int] = {}
        #: the %retaddr register's first unit when the trace has a call
        #: or a return (tracked as a view with a call)
        self.ret_unit = None

    def _name(self) -> str:
        prefix = "_jit" if len(self.nodes) == 1 else "_sbjit"
        return f"{prefix}_{self.entry}_{'c' if self.cached else 'n'}"

    # -- driver ---------------------------------------------------------------

    def build(self):
        # a trace of the wrong shape is refused before any scan, emit or
        # compile work
        self._find_trace_shape()
        self._scan()
        self._decide()
        name = self._name()
        module = compile(self._emit(), f"<jit:{name}>", "exec")
        # the function is built from its code object, the module's one
        # code constant: nothing is exec'd, the shared globals are never
        # written, and the source is not kept
        code = next(
            const for const in module.co_consts
            if isinstance(const, types.CodeType)
        )
        return _function(code, tuple(self.probe_sites)), self.max_exec

    # -- scan: collect register views and refuse what we don't cover ----------

    def _scan(self) -> None:
        """Branch targets are checked by :meth:`_find_trace_shape`, and
        every call is a node's tail, covered by the %retaddr check."""
        instrs = self.tr.instrs
        for _entry, trace, _tail in self.nodes:
            for pc in trace:
                instr = instrs[pc]
                stmts = _stmts_of(instr)
                control = _control_of(stmts)
                for stmt in stmts[:-1] if control is not None else stmts:
                    self._scan_stmt(stmt, instr)
                if isinstance(control, ast.CondGotoStmt):
                    self._scan_expr(control.condition, instr, "int")
                    self._scan_slots(pc, instr)
                elif isinstance(control, (ast.GotoStmt, ast.RetStmt)):
                    self._scan_slots(pc, instr)
        # calls write the %retaddr register and returns read it; with a
        # call in the trace it lives as a tracked view
        tails = {type(tail) for _e, _t, tail in self.nodes}
        if tails & {ast.CallStmt, ast.RetStmt}:
            retaddr = self.tr.target.cwvm.retaddr
            if retaddr is None:
                raise Uncompilable("transfer without a %retaddr register")
            self.ret_unit = self.tr.target.registers.units_of(retaddr)[0]
            if ast.CallStmt in tails:
                self.touched.add(self.ret_unit)

    def _scan_slots(self, pc: int, instr: MachineInstr) -> None:
        for slot_pc in self.tr.slot_pcs(pc, instr):
            slot_stmts = _stmts_of(self.tr.instrs[slot_pc])
            if _control_of(slot_stmts) is not None:
                raise Uncompilable("control instruction in a delay slot")
            for stmt in slot_stmts:
                self._scan_stmt(stmt, self.tr.instrs[slot_pc])

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
            if isinstance(target, ast.NameRef):
                # the interpreter stores the value as is: a write whose
                # static type differs from the latch's would leave a
                # value of the wrong Python type in the latch
                type_name = self.tr.compiler._temporal_type(target.name)
                if self._scan_expr(stmt.value, instr, type_name) != type_name:
                    raise Uncompilable(f"mistyped write to {target.name}")
                self.uses_temporal = True
                return
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
        if isinstance(expr, ast.NameRef):
            self.uses_temporal = True
            return self.tr.compiler._temporal_type(expr.name)
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

    def _wrap(self, code: str) -> str:
        """``code`` wrapped to signed 32 bits, the value
        ``executor._wrap32`` computes, in a temp the rest of the path
        reuses (literal-only code folds to a literal).  The raw result
        is range-checked first, so the mask runs only on an out-of-range
        value and an in-range result stays a one-digit int."""
        if not re.search(r"[A-Za-z_]", code):
            value = eval(code)  # literals and operators only
            if isinstance(value, int):
                return f"({_wrap32(value)})"
        key = f"wrap32({code})"
        known = self.path.exprs.get(key)
        if known is not None:
            return known[0]
        temp = self._tmp()
        self._line(f"{temp} = {code}")
        self._line(
            f"if {temp} > 2147483647 or {temp} < -2147483648:"
            f" {temp} = ({temp} + 2147483648 & 4294967295) - 2147483648"
        )
        self.path.exprs[key] = (temp, 0, frozenset(_LOCALS.findall(code)))
        return temp

    def _guard_zero(self, var: str, message: str) -> None:
        """Division guard: raise the interpreter's exact error inline."""
        self._line(f"if {var} == 0: raise _SE({message!r})")

    def _emit_bc(self, pc: int) -> None:
        if pc not in self.tr.block_starts:
            return
        label = self.tr.block_of[pc]
        self.uses_bc = True
        if self.looping:
            # a looping function executes each block once per iteration:
            # batch the count in an int local (committed by every return
            # site) instead of a dict get + set per block per iteration
            local = self.bc_locals.get(label)
            if local is None:
                local = self.bc_locals[label] = f"bn{len(self.bc_locals)}"
            self._line(f"{local} += 1")
        else:
            self._line(f"bc[{label!r}] = bcg({label!r}, 0) + 1")

    def _bind(self, code: str) -> str:
        """``code`` as a temp or literal that later code may reuse: temps
        are assigned once per path, so reading one never goes stale.
        Integer arithmetic over literals is folded here."""
        if re.fullmatch(r"t\d+|\(-?\d+\)", code):
            return code
        if not re.search(r"[A-Za-z_]", code):
            value = eval(code)  # literals and operators only
            if isinstance(value, int):
                return f"({value})"
        temp = self._tmp()
        self._line(f"{temp} = {code}")
        return temp

    def _address(self, code: str) -> str:
        """A temp holding address ``code``, reused from earlier on the
        path if it was computed there."""
        known = self.path.exprs.get(code)
        return known[0] if known is not None else self._bind(code)

    def _check(self, code: str, addr: str, size: int) -> None:
        """Bounds-check ``size`` bytes at ``addr``, the value of address
        ``code``, unless the path already checked as many there.  The
        limit ``ml{size}`` (``ml - size``) is bound in the prologue."""
        known = self.path.exprs.get(code)
        if known is not None and known[1] >= size:
            return
        if re.fullmatch(r"\(\d+\)", addr):
            test = f"{int(addr[1:-1]) + size} > ml"
        else:
            test = f"{addr} < 0 or {addr} > ml{size}"
            self.limits.add(size)
        self._line(
            f"if {test}:"
            f" raise _SE('memory access at %d outside [0, %d)' % ({addr}, ml))"
        )
        self.path.exprs[code] = (addr, size, frozenset(_LOCALS.findall(code)))

    def _forget(self, name: str) -> None:
        """A write to local ``name`` (``tp``: a latch): wraps and
        addresses that read it are computed again."""
        exprs = self.path.exprs
        for code in [code for code in exprs if name in exprs[code][2]]:
            del exprs[code]

    # -- emit: raw register values ---------------------------------------------

    def _word(self, unit) -> str:
        """The local of raw ``unit`` holding its current 32-bit word: a
        word still pending in a value temp is produced first."""
        source = self.path.stale.get(unit)
        if source is not None:
            for pending in self._words(source, self._uname):
                del self.path.stale[pending]
        self._need("raw", unit)
        return self._uname(unit)

    def _words(self, source, name) -> list:
        """Assign the words pending in ``source``, a ``(temp, view)``
        value, to ``name(unit)`` for each unit still lagging it (one
        ``struct`` round trip); returns those units."""
        temp, view = source
        units = [unit for unit in view if self.path.stale.get(unit) == source]
        if len(view) == 1:
            words = f"{temp} & 4294967295"
        elif len(units) == 2:
            words = f"_upk_p(_pk_d({temp}))"
        else:
            words = f"_upk_p(_pk_d({temp}))[{view.index(units[0])}]"
        self._line(f"{', '.join(map(name, units))} = {words}")
        return units

    def _settle(self) -> None:
        """Produce every pending word: the code that follows (the next
        iteration, the code after a join) reads raw units as words."""
        for unit in list(self.path.stale):
            self._word(unit)

    def _value(self, key) -> str:
        """The value of raw view ``key`` (one unit: a signed int, two: a
        double), converted from its words on the path's first read."""
        temp = self.path.values.get(key)
        if temp is None:
            words = [self._word(unit) for unit in key]
            temp = self.path.values[key] = self._tmp()
            if len(key) == 2:
                code = f"_upk_d(_pk_p({words[0]}, {words[1]}))[0]"
            else:
                word = words[0]
                code = (
                    f"{word} - 4294967296 if {word} > 2147483647 else {word}"
                )
            self._line(f"{temp} = {code}")
        return temp

    def _clobber(self, key) -> None:
        """Ready raw units ``key`` for a write: the values and addresses
        over them are forgotten (a value they only partly cover keeps
        its other units' words pending)."""
        path = self.path
        path.values = {
            view: temp for view, temp in path.values.items()
            if set(key).isdisjoint(view)
        }
        for unit in key:
            path.stale.pop(unit, None)
            self._mark_written("raw", unit)
            self._forget(self._uname(unit))

    def _set_value(self, key, code: str) -> None:
        """Write value ``code`` to raw view ``key``, leaving its words
        pending (see :meth:`_word`)."""
        temp = self._bind(code)
        self._clobber(key)
        self.path.values[key] = temp
        for unit in key:
            self.path.stale[unit] = (temp, key)

    def _typed_name(self, key) -> str:
        return (self._iname if self.typed[key] == "int" else self._dname)(key)

    def _typed_read(self, key) -> str:
        self._need(self.typed[key], key)
        return self._typed_name(key)

    def _write_typed(self, key, code: str) -> None:
        name = self._typed_name(key)
        self._line(f"{name} = {code}")
        self._forget(name)
        self._mark_written(self.typed[key], key)

    # -- emit: expressions -----------------------------------------------------

    def _expr(
        self,
        expr: ast.Expr,
        instr: MachineInstr,
        expected: str | None,
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
            return self._emit_mem_read(expr, instr, expected, slot)
        if isinstance(expr, ast.Unary):
            return self._emit_unary(expr, instr, expected, slot)
        if isinstance(expr, ast.Binary):
            return self._emit_binary(expr, instr, expected, slot)
        if isinstance(expr, ast.BuiltinCall):
            return self._emit_builtin(expr, instr, slot)
        if isinstance(expr, ast.NameRef):
            # the interpreter's read: the latch's value, or its type's
            # zero before the first write
            type_name = self.tr.compiler._temporal_type(expr.name)
            default = 0.0 if type_name in ("float", "double") else 0
            return f"tp.get({expr.name!r}, {default!r})", type_name, False
        raise Uncompilable(f"cannot compile expression {expr}")

    def _emit_reg_read(self, instr: MachineInstr, position: int):
        units, type_name, key = self._reg_view(instr, position)
        if type_name == "double":
            if key in self.typed:
                return self._typed_read(key), "double", False
            return self._value(key), "double", False
        if type_name == "float":
            word = self._word(units[0])
            return f"_upk_f(_pk_w({word}))[0]", "float", False
        if key in self.typed:
            return self._typed_read(key), "int", True
        return self._value(key), "int", True

    def _emit_dcache(self, addr: str, load: bool) -> None:
        """The data-cache access at ``addr``: pure shift/mask over the
        preallocated tag array (see sim/cache.py), inlined so the hot
        path never leaves generated code.  A load takes the next
        miss-mask bit, set on a miss.  Without a data cache nothing is
        emitted: no load misses, so the miss mask needs no bit."""
        if not self.cached:
            return
        idx, tag = self._tmp(), self._tmp()
        self._line(f"{idx} = ({addr} >> dls) & dsm")
        self._line(f"{tag} = {addr} >> dts")
        self._line(f"if dtg[{idx}] == {tag}:")
        self._line("    dh += 1")
        self._line("else:")
        self._line(f"    dtg[{idx}] = {tag}")
        self._line("    dm += 1")
        if load:
            self._line("    mm |= lb")
            self._line("lb <<= 1")
            self.path.masked = True

    def _emit_mem_read(self, expr, instr, expected, slot):
        if expected is None:
            raise Uncompilable("memory read with unknown width")
        addr_code, _, _ = self._expr(expr.address, instr, "int", slot)
        addr = self._address(addr_code)
        self._check(addr_code, addr, 8 if expected == "double" else 4)
        self._emit_dcache(addr, load=True)
        if not slot:
            self.path.counts["ld"] += 1
        value = self._tmp()
        unpack = {"double": "_upkm_d", "float": "_upkm_f"}.get(
            expected, "_upkm_i"
        )
        self._line(f"{value} = {unpack}(mem, {addr})[0]")
        return value, expected, expected == "int"

    def _emit_unary(self, expr, instr, expected, slot):
        code, type_name, wrapped = self._expr(
            expr.operand, instr, expected, slot
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

    def _emit_binary(self, expr, instr, expected, slot):
        lcode, ltype, lwrapped = self._expr(expr.left, instr, expected, slot)
        rcode, rtype, rwrapped = self._expr(expr.right, instr, expected, slot)
        op = expr.op
        if op == "::":
            left, right = self._bind(lcode), self._bind(rcode)
            return (
                f"(({left} > {right}) - ({left} < {right}))",
                "int",
                True,
            )
        if op in _REL_OPS:
            return f"(1 if ({lcode}) {op} ({rcode}) else 0)", "int", True
        common = _promote(ltype, rtype)
        if common == "int":
            if rcode == "(0)" and lwrapped and op in (
                "+", "-", "|", "^", "<<", ">>"
            ):
                # a zero displacement or shift: the value as it is
                return lcode, "int", True
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
                # Python's floor division and modulo truncate like the
                # interpreter's where neither operand is negative
                left, right = self._bind(lcode), self._bind(rcode)
                if re.fullmatch(r"\([1-9]\d*\)", right):
                    signs = f"{left} >= 0"
                else:
                    self._guard_zero(right, "integer division by zero")
                    signs = f"{left} >= 0 and {right} > 0"
                fn, inline = ("_idiv", "//") if op == "/" else ("_imod", "%")
                # a remainder of wrapped operands is in range; a quotient
                # is not (INT_MIN / -1)
                return (
                    f"({left} {inline} {right} if {signs}"
                    f" else {fn}({left}, {right}))",
                    "int",
                    op == "%" and lwrapped and rwrapped,
                )
            raise Uncompilable(f"unknown int operator {op}")
        if op in ("+", "-", "*"):
            return f"(({lcode}) {op} ({rcode}))", common, False
        if op == "/":
            left, right = self._bind(lcode), self._bind(rcode)
            self._guard_zero(right, "floating divide by zero")
            return f"({left} / {right})", common, False
        raise Uncompilable(f"operator {op} not on {common}")

    def _emit_builtin(self, expr, instr, slot):
        code, arg_type, wrapped = self._expr(expr.args[0], instr, None, slot)
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

    def _emit_stmt(self, stmt, instr, slot):
        if isinstance(stmt, ast.AssignStmt):
            move = self._move_units(stmt, instr)
            if move is not None:
                self._emit_move(*move)
                return
            target = stmt.target
            if isinstance(target, ast.OperandRef):
                self._emit_reg_write(stmt, instr, slot)
                return
            if isinstance(target, ast.MemRef):
                self._emit_mem_write(stmt, instr, slot)
                return
            if isinstance(target, ast.NameRef):
                type_name = self.tr.compiler._temporal_type(target.name)
                vcode, _, _ = self._expr(stmt.value, instr, type_name, slot)
                self._line(f"tp[{target.name!r}] = {vcode}")
                self._forget("tp")
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
        return self._word(unit)

    def _write_unit_bits(self, unit, bits: str) -> None:
        for key, type_name in self.typed.items():
            if unit not in key:
                continue
            if type_name == "int":
                word = self._tmp()
                self._line(f"{word} = {bits}")
                self._write_typed(
                    key,
                    f"{word} - 4294967296 if {word} > 2147483647 else {word}",
                )
            else:
                self._need("double", key)  # the untouched half is read
                name = self._dname(key)
                halves = [
                    bits if key[index] == unit
                    else f"_upk_p(_pk_d({name}))[{index}]"
                    for index in range(2)
                ]
                self._write_typed(
                    key, f"_upk_d(_pk_p({halves[0]}, {halves[1]}))[0]"
                )
            return
        self._clobber((unit,))
        self._line(f"{self._uname(unit)} = {bits}")

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
                self._write_typed(dkey, self._typed_read(skey))
            return
        for dst, src in zip(dst_units, src_units):
            if dst != src:
                self._write_unit_bits(dst, self._read_unit_bits(src))

    def _emit_reg_write(self, stmt, instr, slot) -> None:
        position = stmt.target.index - 1
        units, type_name, key = self._reg_view(instr, position)
        vcode, vtype, vwrapped = self._expr(stmt.value, instr, type_name, slot)
        if type_name in ("double", "float"):
            value = (
                vcode if vtype in ("float", "double") else f"float({vcode})"
            )
        elif vtype == "int" and vwrapped:
            value = vcode
        else:
            value = self._wrap(vcode if vtype == "int" else f"int({vcode})")
        if type_name == "float":
            self._clobber(key)
            self._line(f"{self._uname(units[0])} = _upk_w(_pk_f({value}))[0]")
        elif key in self.typed:
            self._write_typed(key, value)
        else:
            self._set_value(key, value)

    def _emit_mem_write(self, stmt, instr, slot) -> None:
        addr_code, _, _ = self._expr(stmt.target.address, instr, "int", slot)
        addr = self._address(addr_code)
        # the store's cache access precedes the value expression's
        # loads, matching the closure's log order
        self._emit_dcache(addr, load=False)
        if not slot:
            self.path.counts["st"] += 1
        vcode, vtype, vwrapped = self._expr(stmt.value, instr, None, slot)
        self._check(addr_code, addr, 8 if vtype == "double" else 4)
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

    # -- emit: exits -----------------------------------------------------------

    def _flush(self) -> None:
        """Store every written view; a pending word goes straight from
        its value temp."""
        stale, done = self.path.stale, set()
        for kind, key in self.written:
            if kind == "int":
                self._line(f"u[{key[0]!r}] = {self._iname(key)} & 4294967295")
            elif kind == "double":
                self._line(
                    f"u[{key[0]!r}], u[{key[1]!r}] ="
                    f" _upk_p(_pk_d({self._dname(key)}))"
                )
            elif key not in stale:
                self._line(f"u[{key!r}] = {self._uname(key)}")
            elif key not in done:
                done.update(self._words(stale[key], "u[{!r}]".format))

    def _emit_slots(self, pc: int, instr: MachineInstr) -> int:
        """Delay-slot bodies for a taken exit; returns the segment end pc.
        Slot accesses hit the cache and shape the miss mask, but are not
        counted in loads/stores (matching ``_run_fast``)."""
        end = pc
        for slot_pc in self.tr.slot_pcs(pc, instr):
            for stmt in _stmts_of(self.tr.instrs[slot_pc]):
                self._emit_stmt(stmt, self.tr.instrs[slot_pc], True)
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

    # -- trace shape -----------------------------------------------------------

    def _find_trace_shape(self) -> None:
        """Validate internal edges and detect back-edges to the head
        (any of which makes the whole trace a loop).  Node successors
        come from :meth:`SegmentTranslator.trace_successor`: a return's
        is the pc its in-trace call pinned, which a run-time guard then
        enforces (:attr:`ret_targets`)."""
        head = self.entry
        returns: list[int] = []
        last = len(self.nodes) - 1
        for position, (entry, trace, _tail) in enumerate(self.nodes):
            for pc in trace:
                control = _control_of(_stmts_of(self.tr.instrs[pc]))
                if isinstance(control, (ast.CondGotoStmt, ast.GotoStmt)) and (
                    self.tr.target_pc(pc, control) == head
                ):
                    self.looping = True
            succ, via = self.tr.trace_successor(entry, returns)
            if via == "ret":
                self.ret_targets[position] = succ
                if succ == head:
                    self.looping = True
            if position < last and succ != self.nodes[position + 1][0]:
                raise Uncompilable("trace edge does not match the node tail")
        if not self.looping and len(self.nodes) > 1:
            # a straight merge only saves one dispatch per invocation but
            # pays a wider register reload/flush at every entry and side
            # exit — measured net-negative, so only loops get traced
            # (plain one-node functions are exempt: they ARE the segment)
            raise Uncompilable("trace has no back-edge to its head")

    # -- emission helpers ------------------------------------------------------

    def _snapshot(self):
        return dict(self.written), self.path.copy()

    def _restore(self, snapshot) -> None:
        written, path = snapshot
        self.written = dict(written)
        self.path = path.copy()

    def _probe_getter(self, nentry, end, transfer) -> str:
        """The prologue local holding this probe site's transition
        table ``.get`` (registered on first use)."""
        site = (nentry, end, transfer)
        getter = self.probe_sites.get(site)
        if getter is None:
            getter = self.probe_sites[site] = f"tg{len(self.probe_sites)}"
        return getter

    def _emit_probe(self, nentry, end, transfer) -> None:
        """Close the segment ``[nentry..end]`` inline: probe the
        segment's transition table through a per-site prologue local (a
        warm boundary is one int-keyed dict lookup, zero hashing of
        pipeline state), and fall back to the real ``close`` on a miss,
        counted in ``bm``.  The path's static totals count the probe.
        The key is :func:`~repro.sim.blockcache.transition_key` inline:
        the entry id alone where no load since the last probe can have
        set a miss-mask bit."""
        getter = self._probe_getter(nentry, end, transfer)
        probe = self._tmp()
        if self.path.masked:
            mm, key = "mm", "mm << 32 | eid"
        else:
            mm, key = "0", "eid"
        self._line(f"{probe} = {getter}({key})")
        self._line(f"if {probe} is None:")
        self._line(
            f"    {probe} = close({nentry}, {end}, {transfer},"
            f" {mm}, eid, b0 + ci)"
        )
        self._line("    bm += 1")
        self._line(f"ci += {probe}[0]")
        self._line(f"eid = {probe}[1]")
        if self.path.masked:
            self._line("mm = 0; lb = 1")
            self.path.masked = False
        self.path.counts["sbh"] += 1

    def _counts(self, node_exec) -> dict:
        """The path's static counts after ``node_exec`` instructions of
        the current node (``max_exec`` bounds every such ``ex``)."""
        counts = dict(self.path.counts)
        counts["ex"] += node_exec
        self.max_exec = max(self.max_exec, counts["ex"])
        return counts

    def _totals(self, node_exec) -> str:
        """``ex, ld, st, ci, eid, bch, sbh`` of an exit after
        ``node_exec`` instructions of the current node: the path's
        static counts, plus a looping function's running totals."""
        counts = self._counts(node_exec)
        if self.looping:
            counts = {
                name: f"{name} + {count}" if count else name
                for name, count in counts.items()
            }
        return "{ex}, {ld}, {st}, ci, eid, {sbh} - bm, {sbh}".format(**counts)

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

    def _emit_exit(
        self, nentry, end, transfer, node_exec, target=None, edge=-1,
    ) -> None:
        """A side exit: flush, close the segment ``[nentry..end]``
        (:meth:`_emit_probe`), commit, and return ``target`` — on a
        return (``target`` ``None``), the %retaddr word read after the
        flush — with ``edge`` as the call contract defines it."""
        self._flush()
        if target is None:
            ra = self._tmp()
            self._line(f"{ra} = u.get({self.ret_unit!r}, 0)")
            target = f"{ra} - 4294967296 if {ra} > 2147483647 else {ra}"
        self._emit_probe(nentry, end, transfer)
        self._emit_dflush()
        self._line(f"return ({target}, {edge}, {self._totals(node_exec)})")

    def _emit_taken(self, nentry, pc, instr, index, target) -> None:
        """The taken transfer at ``trace[index]``, after its delay
        slots: a back-edge when ``target`` is the head (close the
        segment inline and loop), otherwise a side exit."""
        end = self._emit_slots(pc, instr)
        executed = index + 1 + abs(instr.desc.slots)
        if target != self.entry:
            self._emit_exit(nentry, end, pc, executed, target, nentry)
            return
        self._emit_probe(nentry, end, pc)
        self._emit_loop(executed)

    def _emit_loop(self, node_exec) -> None:
        """Commit the path's static totals, then loop in-function while
        the fuse budget allows, otherwise flush and stop at the head
        (everything already closed and accounted in the returned
        totals).  The next iteration reads raw units as words."""
        self._settle()
        self._line("; ".join(
            f"{name} += {count}"
            for name, count in self._counts(node_exec).items() if count
        ))
        self._line("if ex <= fz:")
        self._line("    continue")
        self._flush()
        self._emit_dflush()
        self._line(
            f"return ({self.entry}, None, ex, ld, st, ci, eid, sbh - bm, sbh)"
        )

    # -- emit: the function ----------------------------------------------------

    def _emit(self) -> str:
        name = self._name()
        self.lines = [
            f"def {name}(state, dcache, bc, tg, close, eid, b0, fz):"
        ]
        # the whole prologue is assembled after the body, once the body
        # says which bindings it actually needs (memory, block counts,
        # data-cache geometry, running totals, probe-site getters,
        # entry loads)
        prologue_at = len(self.lines)
        if self.looping:
            # iterations past the first run on register state that only
            # lives in locals, so every exit flushes every view
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
        if self.cached:
            # generated code is only called at a fresh segment boundary,
            # where the miss mask is empty
            prologue.append("    mm = 0; lb = 1")
        if self.uses_temporal:
            prologue.append("    tp = state.temporal")
        if self.has_mem:
            prologue.append("    mem = state.memory")
            prologue.append("    ml = len(mem)")
            for size in sorted(self.limits):
                prologue.append(f"    ml{size} = ml - {size}")
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
        if self.looping:
            prologue.append("    ex = 0; ld = 0; st = 0; sbh = 0")
        # every exit probes, so every function closes a segment
        prologue.append("    ci = 0; bm = 0")
        prologue.append(f"    {', '.join(self.probe_sites.values())}, = tg")
        prologue.extend(self._entry_loads())
        self.lines[prologue_at:prologue_at] = prologue
        return "\n".join(self.lines) + "\n"

    def _emit_node(
        self, position, entry, trace, tail, is_last, start=0, join=True,
    ) -> None:
        """Emit ``trace[start:]``, the segment headed at ``entry``.  The
        first conditional branch whose target lies later in the node
        (past its delay slots) joins inside it (:meth:`_emit_join`) when
        ``join`` allows; every other one, taken, is a back-edge to the
        head or a side exit."""
        head = self.entry
        instrs = self.tr.instrs
        for index in range(start, len(trace)):
            pc = trace[index]
            instr = instrs[pc]
            stmts = _stmts_of(instr)
            control = _control_of(stmts)
            for stmt in stmts[:-1] if control is not None else stmts:
                self._emit_stmt(stmt, instr, False)
            if isinstance(control, ast.CondGotoStmt):
                cond_code, _, _ = self._expr(
                    control.condition, instr, "int", False
                )
                cond = self._tmp()
                self._line(f"{cond} = {cond_code}")
                self._emit_bc(pc)
                target = self.tr.target_pc(pc, control)
                if join and pc + abs(instr.desc.slots) < target <= trace[-1]:
                    self._emit_join(
                        position, entry, trace, tail, is_last, index, cond,
                        trace.index(target),
                    )
                    return
                self._line(f"if {cond} != 0:")
                self.indent += 1
                snapshot = self._snapshot()
                self._emit_taken(entry, pc, instr, index, target)
                self._restore(snapshot)
                self.indent -= 1
            elif isinstance(control, ast.GotoStmt):
                self._emit_bc(pc)
                target = self.tr.target_pc(pc, control)
                if target == head or is_last:
                    self._emit_taken(entry, pc, instr, index, target)
                else:
                    # the hot internal edge: probe, then fall through
                    # into the next node's code
                    end = self._emit_slots(pc, instr)
                    self._emit_probe(entry, end, pc)
                    self.path.counts["ex"] += index + 1 + abs(instr.desc.slots)
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
                    self._emit_exit(entry, end, pc, executed)
                    self._restore(snapshot)
                    self.indent -= 1
                    self._emit_probe(entry, end, pc)
                    if expected == head:
                        self._emit_loop(executed)
                    else:
                        self.path.counts["ex"] += executed
                else:
                    self._emit_exit(entry, end, pc, executed)
            elif isinstance(control, ast.CallStmt):
                self._emit_bc(pc)
                target = self.tr.target_pc(pc, control)
                # the return-address write stays in the tracked view:
                # internal calls fall through into the callee's code,
                # a tail call side-exits to the callee
                self._write_unit_bits(
                    self.ret_unit, str((pc + 1) & 0xFFFFFFFF)
                )
                if not is_last:
                    self._emit_probe(entry, pc, pc)
                    self.path.counts["ex"] += index + 1
                else:
                    self._emit_exit(entry, pc, pc, index + 1, target)
            else:
                self._emit_bc(pc)

    def _emit_join(
        self, position, entry, trace, tail, is_last, index, cond, at,
    ) -> None:
        """A conditional branch at ``trace[index]`` whose target is
        ``trace[at]``, as an if/else that meets again at the node's
        tail.  The not-taken arm continues the segment.  The taken arm
        runs the delay slots, closes the segment where the dispatch loop
        would, and emits ``trace[at:]`` as the segment headed at the
        target, so both arms close the memo keys the interpreter closes.
        Neither arm joins again, so no instruction is emitted more than
        twice.  Where code follows the join, each arm produces its
        pending words and both continue as one path (:meth:`_merge`)."""
        pc = trace[index]
        instr = self.tr.instrs[pc]
        before = self._snapshot()
        self._line(f"if {cond} == 0:")
        self.indent += 1
        self._emit_node(
            position, entry, trace, tail, is_last, index + 1, False
        )
        if not is_last:
            self._settle()
        not_taken = self._snapshot()
        self._restore(before)
        else_at = len(self.lines)
        self.indent -= 1
        self._line("else:")
        self.indent += 1
        end = self._emit_slots(pc, instr)
        self._emit_probe(entry, end, pc)
        self.path.counts["ex"] += index + 1 + abs(instr.desc.slots)
        self._emit_node(
            position, trace[at], trace[at:], tail, is_last, 0, False
        )
        if not is_last:
            # code follows the join (a trace's inner node, so the
            # function loops and the totals are running locals)
            self._settle()
            self._merge(not_taken, else_at)
        self.indent -= 1

    def _merge(self, other, else_at) -> None:
        """Continue after a join as one path: the taken arm just emitted
        and the not-taken arm ``other``, whose body ends at line
        ``else_at``."""
        written, path = other
        # a later flush writes every view either arm wrote, so a view
        # only one arm writes must hold its entry value on the other
        self.entry_reads.update(written.keys() ^ self.written.keys())
        self.written = {**written, **self.written}
        # each arm's static counts are raised to the larger of the two
        # (``max_exec`` stays an upper bound), and a running total
        # takes back what its arm did not count
        ours = self.path
        merged = {
            name: max(count, path.counts[name])
            for name, count in ours.counts.items()
        }
        for arm, at in ((ours, len(self.lines)), (path, else_at)):
            rebase = "; ".join(
                f"{name} -= {merged[name] - count}"
                for name, count in arm.counts.items()
                if merged[name] > count
            )
            if rebase:
                self.lines.insert(at, "    " * self.indent + rebase)
        ours.counts = merged
        ours.values = {
            view: temp for view, temp in ours.values.items()
            if path.values.get(view) == temp
        }
        ours.exprs = {
            code: known for code, known in ours.exprs.items()
            if path.exprs.get(code) == known
        }
        ours.masked = ours.masked or path.masked


class SegmentJIT:
    """Per-executable JIT manager: warmup counting, the compiled-function
    tables (one per data-cache presence, since the bookkeeping differs),
    trace promotion, and lifetime counters.  Shared by every
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
        #: taken-edge profile feeding trace selection:
        #: ``(from_entry, to_entry) -> count``, shared across runs
        self.edges: dict[tuple[int, int], int] = {}
        #: trace heads already decided (built or refused), per table
        self._sb_decided: tuple[set, set] = (set(), set())
        self.compiled = 0
        self.uncompilable = 0
        self.preloaded = 0
        self.superblocks = 0
        self.sb_preloaded = 0
        #: something export() would return changed since the last
        #: persist — a fresh translation, refusal or trace
        self.dirty = False

    def functions(self, cached: bool) -> dict:
        """entry pc -> ``(function, max_executed, is_superblock)`` |
        ``None`` (refused by the translator — permanently interpreted)."""
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
        the artifact cache skip warmup: the marshalled code object is
        materialized on the spot (counted in ``preloaded``, not
        ``compiled`` — no translation work happened)."""
        flag = 1 if cached else 0
        pending = self._pending[flag]
        if entry in pending:
            record = self._materialize(pending.pop(entry))
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
            fn, max_exec = self.translator.translate([entry], cached)
            record = (fn, max_exec, False)
            self.compiled += 1
        except Uncompilable:
            record = None
            self.uncompilable += 1
        self.functions(cached)[entry] = record
        self.dirty = True
        return record

    def build_superblock(self, head: int, cached: bool) -> bool:
        """Attempt to promote ``head``'s compiled segment into a trace
        superblock (greedy hot-path selection over :attr:`edges`).  One
        attempt per head; returns whether a superblock was installed.
        The trace replaces the plain record outright, and promoting a
        *preloaded* segment never perturbs the
        ``preloaded``/``compiled`` split."""
        flag = 1 if cached else 0
        decided = self._sb_decided[flag]
        if head in decided:
            return False
        decided.add(head)
        current = self._tables[flag].get(head)
        if current is None or current[2]:
            # refused head, or already a superblock
            return False
        entries = self._select_trace(head)
        if entries is None:
            return False
        try:
            fn, max_exec = self.translator.translate(entries, cached)
        except Uncompilable:
            return False
        self._tables[flag][head] = (fn, max_exec, True)
        self.superblocks += 1
        self.dirty = True
        return True

    def _select_trace(self, head: int):
        """Greedy hot-path selection from ``head``: at each node follow
        the unconditional tail — a goto only while it is the node's
        hottest profiled taken edge and at least
        :data:`SUPERBLOCK_MIN_EDGE`, a call into its callee, a return
        to the pc an earlier in-trace call pinned.  Stops at the head
        itself (the codegen turns head-targeting exits into
        back-edges), a node already on the trace unless a call enters
        it (one callee called from several sites), a cold edge, the
        node cap, or before an inner loop (a node whose tail jumps back
        to its own entry): its own chained function runs every
        iteration, while in the trace its back-edge would side-exit
        after the first, so the trace would only carry a copy of its
        body.  The entry list, or ``None``."""
        entries = [head]
        returns: list[int] = []
        while len(entries) < SUPERBLOCK_MAX_NODES:
            succ, via = self._next_node(entries[-1], returns)
            if succ is None or succ == head or (
                succ in entries and via != "call"
            ) or (
                self.translator.trace_successor(succ, []) == (succ, "goto")
            ):
                break
            entries.append(succ)
        return entries if len(entries) >= 2 else None

    def _next_node(self, current: int, returns: list):
        """``(successor, via)`` of ``current`` through its unconditional
        tail, as :meth:`SegmentTranslator.trace_successor` gives it; the
        successor is ``None`` past a goto that is not the node's hot
        edge (see :meth:`_select_trace`)."""
        succ, via = self.translator.trace_successor(current, returns)
        if via != "goto":
            return succ, via
        best, best_count = None, 0
        for (frm, to), count in self.edges.items():
            if frm == current and count > best_count:
                best, best_count = to, count
        if succ != best or best_count < SUPERBLOCK_MIN_EDGE:
            return None, via
        return succ, via

    # -- artifact-cache serialization ------------------------------------

    def _materialize(self, record):
        """Rebuild a table record from its exported form — the inverse
        of what :meth:`export` captures."""
        if record is None:
            return None
        shape, blob, max_exec, sites = record
        return _function(marshal.loads(blob), sites), max_exec, shape == "sb"

    def export(self) -> dict:
        """A picklable snapshot of every decided entry: ``(cached,
        entry) -> None`` (refused), or ``(shape, code_blob,
        max_executed, sites)`` with ``shape`` ``"seg"`` for a plain
        segment and ``"sb"`` for a superblock, and ``code_blob`` the
        function's marshalled code object (readable only by the
        interpreter that wrote it, which is why the simulator's ``jit``
        key carries the bytecode magic).  Pending preloads the process
        never dispatched are passed through so a partial warm run does
        not shrink the artifact."""
        out: dict = {}
        for flag in (0, 1):
            for entry, record in self._tables[flag].items():
                if record is None:
                    out[(flag, entry)] = None
                    continue
                fn, max_exec, is_sb = record
                out[(flag, entry)] = (
                    "sb" if is_sb else "seg", marshal.dumps(fn.__code__),
                    max_exec, fn._jit_sites,
                )
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
