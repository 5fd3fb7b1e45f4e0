"""IL functions, programs and global data."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MarionError
from repro.il.block import BasicBlock
from repro.il.node import PROCESS_PSEUDO_IDS, FrameSlot, PseudoIds, PseudoReg


@dataclass
class GlobalVar:
    """A global scalar or array in the data segment."""

    name: str
    type: str  # element type
    count: int = 1  # number of elements (1 for scalars)
    initial: list | None = None  # initial values, if any

    @property
    def size(self) -> int:
        element = 8 if self.type == "double" else 4
        return element * self.count


@dataclass
class ILFunction:
    """One function in IL form."""

    name: str
    return_type: str | None
    params: list[PseudoReg] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)
    frame_slots: list[FrameSlot] = field(default_factory=list)
    # every pseudo-register the function mentions, for allocator bookkeeping
    pseudos: list[PseudoReg] = field(default_factory=list)
    # where new pseudo ids come from: the program's own counter under
    # compile_to_il, shared by its functions
    pseudo_ids: PseudoIds = field(
        default=PROCESS_PSEUDO_IDS, repr=False, compare=False
    )

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise MarionError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise MarionError(f"function {self.name} has no block {label!r}")

    def new_slot(self, size: int, align: int = 4, name: str | None = None) -> FrameSlot:
        slot = FrameSlot(size=size, align=align, name=name)
        self.frame_slots.append(slot)
        return slot

    def new_pseudo(
        self, type: str, name: str | None = None, is_global: bool = False
    ) -> PseudoReg:
        pseudo = PseudoReg(
            type=type, name=name, is_global=is_global, id=self.pseudo_ids()
        )
        self.pseudos.append(pseudo)
        return pseudo


@dataclass
class ILProgram:
    """A whole compilation unit: functions plus global data."""

    functions: list[ILFunction] = field(default_factory=list)
    globals: dict[str, GlobalVar] = field(default_factory=dict)

    def function(self, name: str) -> ILFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise MarionError(f"program has no function {name!r}")
