"""IL nodes, pseudo-registers and frame slots."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.il.ops import ILOp, PURE_OPS

_slot_counter = itertools.count(1)


class PseudoIds:
    """Pseudo-register numbering: ids 1, 2, ... in creation order.

    :func:`~repro.frontend.ilgen.compile_to_il` gives each program its
    own counter, so a compilation's ids, and with them the allocator's
    id-hashed set orders, do not depend on what the process compiled
    before.  A plain class rather than ``itertools.count``: machine
    functions carry it, and executables are pickled.
    """

    __slots__ = ("last",)

    def __init__(self) -> None:
        self.last = 0

    def __call__(self) -> int:
        self.last += 1
        return self.last


#: numbering for pseudo-registers built outside a compilation (IL and
#: machine code built by hand)
PROCESS_PSEUDO_IDS = PseudoIds()


@dataclass(eq=False)
class PseudoReg:
    """A pseudo-register (paper section 2.1).

    ``is_global`` distinguishes registers live across basic blocks (user
    variables, call results) from block-local expression temporaries; the
    register allocator and the IPS/RASE strategies treat the two classes
    differently.
    """

    type: str  # 'int' | 'float' | 'double'
    name: str | None = None  # user variable name, for diagnostics
    is_global: bool = False
    #: non-general register set this pseudo must live in (e.g. a condition
    #: register set); None means the CWVM general set for its type
    set_name: str | None = None
    id: int = field(default_factory=PROCESS_PSEUDO_IDS)

    def __str__(self) -> str:
        tag = self.name or f"t{self.id}"
        return f"%{tag}"

    def __repr__(self) -> str:
        return f"PseudoReg({self}:{self.type})"

    def __hash__(self) -> int:
        return self.id


@dataclass(eq=False)
class FrameSlot:
    """A stack-frame allocation (spills, arrays, address-taken scalars)."""

    size: int  # bytes
    align: int = 4
    name: str | None = None
    offset: int | None = None  # fp-relative; assigned by frame layout
    id: int = field(default_factory=lambda: next(_slot_counter))

    def __str__(self) -> str:
        tag = self.name or f"slot{self.id}"
        where = f"@{self.offset}" if self.offset is not None else ""
        return f"[{tag}{where}]"

    def __hash__(self) -> int:
        return self.id


@dataclass(eq=False)
class Node:
    """A typed IL node.  Sharing a node between two parents marks a local
    common subexpression; the selector forces shared nodes into registers."""

    op: ILOp
    type: str | None = None  # None for statements with no value
    kids: tuple["Node", ...] = ()
    value: object = None  # constant / symbol / PseudoReg / FrameSlot / label

    def __str__(self) -> str:
        from repro.il.printer import format_node

        return format_node(self)

    def __repr__(self) -> str:
        return f"Node({self.op.value}:{self.type})"

    @property
    def is_pure(self) -> bool:
        return self.op in PURE_OPS

    def walk(self):
        """Yield this node and all descendants, preorder (may revisit shared
        nodes once per path; use :func:`unique_nodes` to deduplicate)."""
        yield self
        for kid in self.kids:
            yield from kid.walk()


def unique_nodes(roots) -> list[Node]:
    """All distinct nodes reachable from ``roots``, in preorder."""
    seen: set[int] = set()
    out: list[Node] = []

    def visit(node: Node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        out.append(node)
        for kid in node.kids:
            visit(kid)

    for root in roots:
        visit(root)
    return out


def count_parents(roots) -> dict[int, int]:
    """Map ``id(node)`` to its number of parents within ``roots``.

    Roots themselves start at 0; a node reachable through two different
    parents (or twice from one parent) gets a count >= 2 and is a local
    common subexpression."""
    counts: dict[int, int] = {}
    seen: set[int] = set()

    def visit(node: Node) -> None:
        for kid in node.kids:
            counts[id(kid)] = counts.get(id(kid), 0) + 1
            if id(kid) not in seen:
                seen.add(id(kid))
                visit(kid)

    for root in roots:
        counts.setdefault(id(root), 0)
        if id(root) not in seen:
            seen.add(id(root))
            visit(root)
    return counts
