"""Machine-level functions and blocks (post-selection representation)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.insts import MachineInstr
from repro.errors import MarionError
from repro.il.node import PROCESS_PSEUDO_IDS, FrameSlot, PseudoIds, PseudoReg


@dataclass(eq=False)
class MBlock:
    """A basic block of machine instructions."""

    label: str
    instrs: list[MachineInstr] = field(default_factory=list)
    successors: list[str] = field(default_factory=list)
    loop_depth: int = 0
    # per-block scheduler cost estimate (cycles), filled by strategies
    schedule_cost: int = 0
    # final-pass schedule observability, filled by strategies: the issue
    # cycle of every emitted instruction (instr.id -> cycle) and the
    # committed stalls as (cycle, reason) events — what
    # ``repro compile --explain-schedule`` annotates the assembly with
    issue_cycles: dict[int, int] = field(default_factory=dict)
    stall_events: list[tuple[int, str]] = field(default_factory=list)

    def append(self, instr: MachineInstr) -> None:
        self.instrs.append(instr)

    def __repr__(self) -> str:
        return f"MBlock({self.label!r}, {len(self.instrs)} instrs)"


@dataclass(eq=False)
class MFunction:
    """A function lowered to machine instructions."""

    name: str
    return_type: str | None
    blocks: list[MBlock] = field(default_factory=list)
    frame_slots: list[FrameSlot] = field(default_factory=list)
    params: list[PseudoReg] = field(default_factory=list)
    has_calls: bool = False
    frame_size: int = 0  # bytes; set by frame layout
    saved_registers: list = field(default_factory=list)  # set by epilogue pass
    # the IL function's pseudo numbering, which spill temporaries continue
    pseudo_ids: PseudoIds = field(
        default=PROCESS_PSEUDO_IDS, repr=False, compare=False
    )

    @property
    def entry(self) -> MBlock:
        if not self.blocks:
            raise MarionError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> MBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise MarionError(f"function {self.name} has no block {label!r}")

    def new_slot(self, size: int, align: int = 4, name: str | None = None) -> FrameSlot:
        slot = FrameSlot(size=size, align=align, name=name)
        self.frame_slots.append(slot)
        return slot

    def all_instrs(self):
        """Iterate every instruction across all blocks."""
        for blk in self.blocks:
            yield from blk.instrs

    def instruction_count(self) -> int:
        return sum(len(blk.instrs) for blk in self.blocks)

    def pseudo_registers(self) -> list[PseudoReg]:
        """Every pseudo-register mentioned anywhere, in first-use order."""
        seen: dict[int, PseudoReg] = {}
        for instr in self.all_instrs():
            for pseudo in instr.pseudo_operands():
                seen.setdefault(pseudo.id, pseudo)
        return list(seen.values())
