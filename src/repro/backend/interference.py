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

    def neighbors(self, pseudo_id: int) -> set[int]:
        return self.adjacency[pseudo_id]


def build_interference(
    fn: MFunction, liveness: LivenessInfo, registers: RegisterModel
) -> InterferenceGraph:
    """Build the interference graph from the instruction order presented
    (Chaitin): each definition interferes with everything live after it,
    except a move's source; spill costs accumulate 10^loop-depth per
    occurrence.  Each instruction's registers and keys are the ones
    ``liveness`` computed for the same, unchanged, instructions."""
    graph = InterferenceGraph()

    # every pseudo an instruction names, so each live pseudo key has a node
    for pseudo in fn.pseudo_registers():
        graph.ensure(pseudo)
    adjacency = graph.adjacency
    unit_conflicts = graph.unit_conflicts
    spill_cost = graph.spill_cost

    for block in fn.blocks:
        weight = 10.0 ** min(block.loop_depth, 5)
        live_after = set(liveness.live_out[block.label])
        moves: list[tuple[int, int]] = []  # the block's move pairs, last first
        for instr, (uses, defs, use_keys, def_keys) in zip(
            reversed(block.instrs), reversed(liveness.effects[block.label])
        ):
            # spill cost accounting
            for reg in uses:
                if isinstance(reg, PseudoReg):
                    spill_cost[reg.id] += weight
            move_source_key = ()
            if instr.desc.is_move and len(instr.desc.use_operands) == 1:
                source = instr.operands[instr.desc.use_operands[0]]
                if isinstance(source, Reg):
                    move_source_key = entity_keys(source.reg, registers)

            for reg in defs:
                if isinstance(reg, PseudoReg):
                    spill_cost[reg.id] += weight
                    own = ("p", reg.id)
                    neighbors = adjacency[reg.id]
                    conflicts = unit_conflicts[reg.id]
                    for key in live_after:
                        if key == own or key in move_source_key:
                            continue
                        if key[0] != "p":
                            conflicts.add(key)
                        elif key[1] in adjacency:
                            neighbors.add(key[1])
                            adjacency[key[1]].add(reg.id)
                else:
                    # a physical definition makes its units hostile to
                    # live pseudos
                    units = registers.unit_keys(reg)
                    for key in live_after:
                        if (
                            key[0] == "p"
                            and key[1] in unit_conflicts
                            and key not in move_source_key
                        ):
                            unit_conflicts[key[1]].update(units)

            if (
                move_source_key
                and len(defs) == 1
                and isinstance(defs[0], PseudoReg)
            ):
                for key in move_source_key:
                    if key[0] == "p":
                        moves.append(tuple(sorted((defs[0].id, key[1]))))
            # step back over the instruction: the live set before it
            live_after.difference_update(def_keys)
            live_after.update(use_keys)
        graph.move_pairs.update(reversed(moves))
    return graph
