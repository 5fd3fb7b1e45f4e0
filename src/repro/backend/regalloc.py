"""Chaitin/Briggs graph-coloring global register allocation (section 2.2).

The allocator loops: liveness -> interference graph -> optimistic coloring
-> spill-code insertion, until every pseudo-register is colored.  Register
pairs work through the unit model: a double register's two units must all
be free of the neighbors' units.

Strategies parameterise the allocator with spill-cost overrides: RASE feeds
in schedule-estimate-weighted costs, Postpass/IPS use the classic
``uses x 10^depth`` Chaitin costs collected during graph construction.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from repro.backend.insts import MachineInstr, Reg
from repro.backend.interference import InterferenceGraph, build_interference
from repro.backend.liveness import compute_liveness
from repro.backend.memaccess import TargetMemoryAccess
from repro.backend.mfunc import MFunction
from repro.backend.values import SlotOffset
from repro.errors import AllocationError
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg
from repro.machine.target import TargetMachine

_MAX_ITERATIONS = 16


@dataclass
class AllocationResult:
    """What the allocator hands back to the strategy."""

    assignment: dict[int, PhysReg] = field(default_factory=dict)
    used_callee_save: list[PhysReg] = field(default_factory=list)
    spilled_pseudos: int = 0
    iterations: int = 0


class GraphColoringAllocator:
    """Chaitin/Briggs coloring over the unit-aliasing register model."""

    def __init__(
        self,
        target: TargetMachine,
        cost_overrides: dict[int, float] | None = None,
    ):
        self.target = target
        self.cost_overrides = cost_overrides or {}
        self.memory = TargetMemoryAccess(target)

    # -- public ---------------------------------------------------------------

    def allocate(self, fn: MFunction) -> AllocationResult:
        """Color every pseudo-register, spilling and retrying as needed;
        rewrites the function to physical registers and finishes the frame
        (prologue/epilogue, ``*func`` move expansion)."""
        result = AllocationResult()
        self._spill_temp_ids: set[int] = set()
        already_spilled: set[int] = set()
        for iteration in range(1, _MAX_ITERATIONS + 1):
            result.iterations = iteration
            liveness = compute_liveness(fn, self.target.registers)
            graph = build_interference(fn, liveness, self.target.registers)
            assignment, spilled = self._color(graph, liveness, already_spilled)
            if not spilled:
                result.assignment = assignment
                self._rewrite(fn, assignment)
                result.used_callee_save = self._callee_saves(assignment)
                return result
            result.spilled_pseudos += len(spilled)
            already_spilled.update(p.id for p in spilled)
            self._insert_spill_code(fn, spilled)
        raise AllocationError(
            f"register allocation did not converge after {_MAX_ITERATIONS} "
            f"iterations in {fn.name}"
        )

    # -- coloring ---------------------------------------------------------------

    def _candidates(self, pseudo: PseudoReg, live_across_call: bool) -> list[PhysReg]:
        set_name = pseudo.set_name or self.target.cwvm.general.get(pseudo.type)
        if set_name is None:
            raise AllocationError(
                f"no general register set for type {pseudo.type!r}"
            )
        callee = set(self.target.cwvm.callee_save)
        candidates = [
            r for r in self.target.cwvm.allocable if r.set_name == set_name
        ]
        # cheaper registers first: caller-save for short ranges, callee-save
        # for ranges living across calls
        if live_across_call:
            candidates.sort(key=lambda r: (r not in callee, r.index))
        else:
            candidates.sort(key=lambda r: (r in callee, r.index))
        return candidates

    def _color(
        self,
        graph: InterferenceGraph,
        liveness,
        already_spilled: set[int],
    ):
        registers = self.target.registers
        cwvm = self.target.cwvm
        # each pseudo's register set, and its K: the set's allocable count
        wanted = {
            pid: pseudo.set_name or cwvm.general.get(pseudo.type)
            for pid, pseudo in graph.pseudos.items()
        }
        set_sizes = Counter(r.set_name for r in cwvm.allocable)
        k = {pid: max(1, set_sizes[wanted[pid]]) for pid in graph.adjacency}
        stack = self._simplify(graph, k)

        # move partners in ``move_pairs`` order, so the first legal one wins
        partners: dict[int, list[int]] = {}
        for a, b in graph.move_pairs:
            partners.setdefault(a, []).append(b)
            if b != a:
                partners.setdefault(b, []).append(a)
        allocable = set(cwvm.allocable)
        ordered: dict[tuple, list[PhysReg]] = {}  # (set, across call) -> regs
        assignment: dict[int, PhysReg] = {}
        spilled: list[PseudoReg] = []
        while stack:
            pid = stack.pop()
            pseudo = graph.pseudos[pid]
            forbidden = set(graph.unit_conflicts[pid])
            for neighbor in graph.adjacency[pid]:
                reg = assignment.get(neighbor)
                if reg is not None:
                    forbidden.update(registers.unit_keys(reg))
            live_across = pid in liveness.live_across_call
            chosen = None
            # prefer the move partner's register when it is legal
            for partner in partners.get(pid, ()):
                reg = assignment.get(partner)
                if reg is None or reg.set_name != wanted[pid]:
                    continue
                if reg not in allocable:
                    continue
                if forbidden.isdisjoint(registers.unit_keys(reg)):
                    chosen = reg
                    break
            if chosen is None:
                key = (wanted[pid], live_across)
                if key not in ordered:
                    ordered[key] = self._candidates(pseudo, live_across)
                for reg in ordered[key]:
                    if forbidden.isdisjoint(registers.unit_keys(reg)):
                        chosen = reg
                        break
            if chosen is None:
                if pid in self._spill_temp_ids:
                    # a spill temporary must get a register; evict the
                    # cheapest already-colored non-temporary neighbor and
                    # spill that one instead
                    evicted = self._evict_neighbor(graph, pid, assignment)
                    if evicted is None:
                        raise AllocationError(
                            f"spill temporary {pseudo} is itself uncolorable"
                        )
                    spilled.append(graph.pseudos[evicted])
                    stack.append(pid)  # retry the temp with the freed units
                    continue
                spilled.append(pseudo)
            else:
                assignment[pid] = chosen
        return assignment, spilled

    def _simplify(self, graph: InterferenceGraph, k: dict[int, int]) -> list[int]:
        """The simplify stack, bottom first: each step removes the pseudo
        with the least (degree, id) among those whose degree is below
        their K, or, when there is none, the optimistic spill candidate
        with the least (cost / degree, id).

        The candidates sit in a heap with one entry per degree a pseudo
        has had below its K.  Degrees only fall, so a pseudo's newest
        entry is its smallest and pops first: the first popped entry of a
        pseudo still present is its current degree, and the least pair a
        rescan would find.  Older entries pop after the pseudo is gone
        and are skipped.
        """
        work = graph.adjacency  # id -> neighbor set
        degrees = {pid: len(neigh) for pid, neigh in work.items()}
        stack: list[int] = []
        remaining = set(work)

        def cost_of(pid: int) -> float:
            # spill temporaries must not be re-spilled: infinite cost
            if pid in self._spill_temp_ids:
                return float("inf")
            return self.cost_overrides.get(pid, graph.spill_cost[pid])

        simplifiable = [
            (degree, pid) for pid, degree in degrees.items() if degree < k[pid]
        ]
        heapq.heapify(simplifiable)
        while remaining:
            pid = None
            while simplifiable:
                candidate = heapq.heappop(simplifiable)[1]
                if candidate in remaining:
                    pid = candidate
                    break
            if pid is None:
                # optimistic push of the cheapest spill candidate
                pid = min(
                    remaining,
                    key=lambda p: (cost_of(p) / max(1, degrees[p]), p),
                )
            stack.append(pid)
            remaining.discard(pid)
            for neighbor in work[pid]:
                if neighbor in remaining:
                    degree = degrees[neighbor] - 1
                    degrees[neighbor] = degree
                    if degree < k[neighbor]:
                        heapq.heappush(simplifiable, (degree, neighbor))
        return stack

    def _evict_neighbor(
        self, graph: InterferenceGraph, pid: int, assignment: dict[int, PhysReg]
    ) -> int | None:
        candidates = [
            n
            for n in graph.adjacency[pid]
            if n in assignment and n not in self._spill_temp_ids
        ]
        if not candidates:
            return None
        # ties go to the lower id, not to the set's hash-seeded order
        victim = min(candidates, key=lambda n: (graph.spill_cost[n], n))
        del assignment[victim]
        return victim

    # -- rewriting ---------------------------------------------------------------

    def _rewrite(self, fn: MFunction, assignment: dict[int, PhysReg]) -> None:
        for block in fn.blocks:
            for instr in block.instrs:
                for position, operand in enumerate(instr.operands):
                    if isinstance(operand, Reg) and isinstance(
                        operand.reg, PseudoReg
                    ):
                        reg = assignment.get(operand.reg.id)
                        if reg is None:
                            raise AllocationError(
                                f"pseudo {operand.reg} has no register in "
                                f"{fn.name}"
                            )
                        instr.rewrite_reg(position, reg)

    def _callee_saves(self, assignment: dict[int, PhysReg]) -> list[PhysReg]:
        callee = []
        callee_units: set = set()
        registers = self.target.registers
        callee_set = set(self.target.cwvm.callee_save)
        callee_set_units = {
            unit for reg in callee_set for unit in registers.units_of(reg)
        }
        for reg in assignment.values():
            units = set(registers.units_of(reg))
            if units & callee_set_units and reg not in callee:
                callee.append(reg)
                callee_units |= units
        return callee

    # -- spill code ----------------------------------------------------------------

    def _insert_spill_code(self, fn: MFunction, spilled: list[PseudoReg]) -> None:
        fp = self.target.cwvm.fp
        slots = {}
        for pseudo in spilled:
            size = 8 if pseudo.type == "double" else 4
            slots[pseudo.id] = fn.new_slot(size, size, name=f"spill.{pseudo}")
        spilled_ids = set(slots)
        for block in fn.blocks:
            rewritten: list[MachineInstr] = []
            for instr in block.instrs:
                loads: list[MachineInstr] = []
                stores: list[MachineInstr] = []
                replacement: dict[int, PseudoReg] = {}
                loaded: set[int] = set()
                stored: set[int] = set()
                for position, operand in enumerate(instr.operands):
                    if not (
                        isinstance(operand, Reg)
                        and isinstance(operand.reg, PseudoReg)
                        and operand.reg.id in spilled_ids
                    ):
                        continue
                    pseudo = operand.reg
                    temp = replacement.get(pseudo.id)
                    if temp is None:
                        temp = PseudoReg(
                            pseudo.type, name=f"sp{pseudo.id}",
                            id=fn.pseudo_ids(),
                        )
                        replacement[pseudo.id] = temp
                        self._spill_temp_ids.add(temp.id)
                    offset = SlotOffset(slots[pseudo.id])
                    if position in instr.desc.use_operands and pseudo.id not in loaded:
                        loaded.add(pseudo.id)
                        loads.append(
                            self.memory.load(pseudo.type, temp, fp, offset)
                        )
                    if position in instr.desc.def_operands and pseudo.id not in stored:
                        stored.add(pseudo.id)
                        stores.append(
                            self.memory.store(pseudo.type, temp, fp, offset)
                        )
                    instr.rewrite_reg(position, temp)
                rewritten.extend(loads)
                rewritten.append(instr)
                rewritten.extend(stores)
            block.instrs = rewritten
