"""Dataflow liveness over machine functions.

Entities are pseudo-registers (keyed by id) and physical register *units*
(keyed by (file, unit)), so aliasing register pairs are handled uniformly:
a double register is live exactly when either of its units is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.mfunc import MFunction
from repro.il.node import PseudoReg
from repro.machine.registers import RegisterModel


def entity_keys(reg, registers: RegisterModel) -> tuple:
    """Liveness keys for a register operand: a pseudo's id, or the units
    a physical register occupies."""
    if isinstance(reg, PseudoReg):
        return (("p", reg.id),)
    return registers.unit_keys(reg)


@dataclass
class LivenessInfo:
    """Per-block live-in/out sets plus per-function call-crossing info."""

    live_in: dict[str, set] = field(default_factory=dict)  # block label -> keys
    live_out: dict[str, set] = field(default_factory=dict)
    #: pseudo ids live across at least one call site
    live_across_call: set[int] = field(default_factory=set)


def compute_liveness(fn: MFunction, registers: RegisterModel) -> LivenessInfo:
    """Backward dataflow fixpoint over the CFG."""
    use_sets: dict[str, set] = {}
    def_sets: dict[str, set] = {}
    for block in fn.blocks:
        uses: set = set()
        defs: set = set()
        for instr in block.instrs:
            for reg in instr.uses():
                for key in entity_keys(reg, registers):
                    if key not in defs:
                        uses.add(key)
            for reg in instr.defs():
                for key in entity_keys(reg, registers):
                    defs.add(key)
        use_sets[block.label] = uses
        def_sets[block.label] = defs

    info = LivenessInfo()
    for block in fn.blocks:
        info.live_in[block.label] = set()
        info.live_out[block.label] = set()

    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            out: set = set()
            for successor in block.successors:
                out |= info.live_in.get(successor, set())
            new_in = use_sets[block.label] | (out - def_sets[block.label])
            if out != info.live_out[block.label]:
                info.live_out[block.label] = out
                changed = True
            if new_in != info.live_in[block.label]:
                info.live_in[block.label] = new_in
                changed = True

    # record pseudos live across calls (they must get callee-save registers
    # or spill; the interference edges with clobbered units enforce it, this
    # set is for spill-cost shaping and diagnostics)
    for block in fn.blocks:
        live = set(info.live_out[block.label])
        for instr in reversed(block.instrs):
            def_keys = {
                key
                for reg in instr.defs()
                for key in entity_keys(reg, registers)
            }
            use_keys = {
                key
                for reg in instr.uses()
                for key in entity_keys(reg, registers)
            }
            if instr.is_call:
                after = live - def_keys  # live through the call
                for key in after:
                    if key[0] == "p":
                        info.live_across_call.add(key[1])
            live = (live - def_keys) | use_keys
    return info
