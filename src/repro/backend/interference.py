"""Interference graph construction (paper section 2.2).

Nodes are pseudo-registers; edges record that two pseudos (or a pseudo and
a physical-register *unit*) are simultaneously live and may not share
units.  Following Chaitin, the graph is built from the instruction order
presented to the allocator: a definition interferes with everything live
after the defining instruction (minus the source of a move, so moves can
share a register).  Each block is walked once, backwards from its live-out
set, keeping one set of what is live after each instruction in turn."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.insts import Reg
from repro.backend.liveness import LivenessInfo, entity_keys
from repro.backend.mfunc import MFunction
from repro.il.node import PseudoReg
from repro.machine.registers import RegisterModel


@dataclass
class InterferenceGraph:
    """Adjacency over pseudo ids, plus per-pseudo unit conflicts."""

    pseudos: dict[int, PseudoReg] = field(default_factory=dict)
    adjacency: dict[int, set[int]] = field(default_factory=dict)
    unit_conflicts: dict[int, set] = field(default_factory=dict)  # id -> unit keys
    #: spill cost per pseudo id (uses weighted by loop depth)
    spill_cost: dict[int, float] = field(default_factory=dict)
    #: move pairs (a, b) — same color is profitable; filled in
    #: instruction order, which decides the set's iteration order
    move_pairs: set[tuple[int, int]] = field(default_factory=set)

    def ensure(self, pseudo: PseudoReg) -> None:
        if pseudo.id not in self.pseudos:
            self.pseudos[pseudo.id] = pseudo
            self.adjacency[pseudo.id] = set()
            self.unit_conflicts[pseudo.id] = set()
            self.spill_cost[pseudo.id] = 0.0

    def add_edge(self, a: PseudoReg, b: PseudoReg) -> None:
        if a.id == b.id:
            return
        self.ensure(a)
        self.ensure(b)
        self.adjacency[a.id].add(b.id)
        self.adjacency[b.id].add(a.id)

    def add_unit_conflict(self, pseudo: PseudoReg, unit_key) -> None:
        self.ensure(pseudo)
        self.unit_conflicts[pseudo.id].add(unit_key)

    def degree(self, pseudo_id: int) -> int:
        return len(self.adjacency[pseudo_id])

    def neighbors(self, pseudo_id: int) -> set[int]:
        return self.adjacency[pseudo_id]


def build_interference(
    fn: MFunction, liveness: LivenessInfo, registers: RegisterModel
) -> InterferenceGraph:
    """Build the interference graph from the instruction order presented
    (Chaitin): each definition interferes with everything live after it,
    except a move's source; spill costs accumulate 10^loop-depth per
    occurrence."""
    graph = InterferenceGraph()

    # make sure every pseudo is present even if it never interferes
    for pseudo in fn.pseudo_registers():
        graph.ensure(pseudo)

    for block in fn.blocks:
        weight = 10.0 ** min(block.loop_depth, 5)
        live_after = set(liveness.live_out[block.label])
        moves: list[tuple[int, int]] = []  # the block's move pairs, last first
        for instr in reversed(block.instrs):
            # spill cost accounting
            uses = instr.uses()
            for reg in uses:
                if isinstance(reg, PseudoReg):
                    graph.ensure(reg)
                    graph.spill_cost[reg.id] += weight
            move_source_key = None
            if instr.desc.is_move and len(instr.desc.use_operands) == 1:
                source = instr.operands[instr.desc.use_operands[0]]
                if isinstance(source, Reg):
                    keys = entity_keys(source.reg, registers)
                    move_source_key = set(keys)

            killed: set = set()
            for reg in instr.defs():
                if isinstance(reg, PseudoReg):
                    graph.ensure(reg)
                    graph.spill_cost[reg.id] += weight
                    def_keys = {("p", reg.id)}
                else:
                    def_keys = set(entity_keys(reg, registers))
                killed |= def_keys
                excluded = move_source_key or set()
                for key in live_after:
                    if key in def_keys or key in excluded:
                        continue
                    _record_conflict(graph, def_keys, key, reg, registers)

            if instr.desc.is_move and move_source_key is not None:
                defs = instr.defs()
                if len(defs) == 1 and isinstance(defs[0], PseudoReg):
                    for key in move_source_key:
                        if key[0] == "p":
                            moves.append(tuple(sorted((defs[0].id, key[1]))))
            # step back over the instruction: the live set before it
            live_after -= killed
            for reg in uses:
                live_after.update(entity_keys(reg, registers))
        graph.move_pairs.update(reversed(moves))
    return graph


def _record_conflict(graph, def_keys, live_key, def_reg, registers) -> None:
    if isinstance(def_reg, PseudoReg):
        if live_key[0] == "p":
            other = graph.pseudos.get(live_key[1])
            if other is not None:
                graph.add_edge(def_reg, other)
        else:
            graph.add_unit_conflict(def_reg, live_key)
    elif live_key[0] == "p":
        # a physical definition makes its units hostile to live pseudos
        other = graph.pseudos.get(live_key[1])
        if other is not None:
            for unit in def_keys:
                graph.add_unit_conflict(other, unit)
