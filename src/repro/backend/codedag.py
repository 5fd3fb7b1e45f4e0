"""The code DAG (paper section 4.1).

Nodes are machine instructions; directed labelled edges are dependences.
An edge (x, y) with label i means y cannot issue fewer than i cycles after
x.  Edge types follow the paper:

* type 1 — true dependences, labelled with x's operation latency (or an
  ``%aux`` override); true dependences through temporal registers are
  marked with their clock;
* type 2 — memory ordering;
* type 3 — anti- and output-dependences on the same register, which some
  strategies need (after allocation, physical register reuse).

The DAG is threaded by the *code thread* — the input instruction order,
which is a topological sort of the dependence edges.  The builder also
adds the *protection edges* of section 4.6 that keep temporal sequences
deadlock-free (figure 6); one can point against the thread, so the
thread is not a topological sort of the whole DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.insts import MachineInstr, Reg
from repro.backend.liveness import entity_keys
from repro.machine.target import TargetMachine


@dataclass(eq=False)
class DagEdge:
    """A dependence: dst may not issue fewer than ``latency`` cycles after
    src; ``kind`` is the paper's edge type (1 true / 2 memory / 3 anti /
    4 protection), and temporal true edges carry their clock."""

    src: "DagNode"
    dst: "DagNode"
    latency: int
    kind: int  # 1 = true, 2 = memory, 3 = anti/output, 4 = protection
    clock: str | None = None  # set on temporal (true) edges

    @property
    def is_temporal(self) -> bool:
        return self.clock is not None


@dataclass(eq=False)
class DagNode:
    """One instruction in the code DAG, threaded by ``index``."""

    instr: MachineInstr
    index: int  # position in the code thread
    preds: list[DagEdge] = field(default_factory=list)
    succs: list[DagEdge] = field(default_factory=list)
    priority: int = 0  # maximum distance to a leaf (section 4.2)

    def __repr__(self) -> str:
        return f"DagNode({self.index}: {self.instr})"


@dataclass
class CodeDag:
    """The per-block dependence DAG the scheduler consumes."""

    nodes: list[DagNode]
    target: TargetMachine

    def roots(self) -> list[DagNode]:
        return [n for n in self.nodes if not n.preds]

    def edges(self) -> list[DagEdge]:
        return [e for n in self.nodes for e in n.succs]

    def sequence_head(self, node: DagNode, clock: str) -> DagNode:
        """Walk temporal edges of ``clock`` backwards to the sequence head."""
        current = node
        while True:
            sources = [
                e.src for e in current.preds if e.is_temporal and e.clock == clock
            ]
            if not sources:
                return current
            current = sources[0]

    def sequence_of(self, node: DagNode, clock: str) -> set[DagNode]:
        """All nodes of the temporal sequence containing ``node``."""
        head = self.sequence_head(node, clock)
        members = {head}
        frontier = [head]
        while frontier:
            current = frontier.pop()
            for edge in current.succs:
                if edge.is_temporal and edge.clock == clock and edge.dst not in members:
                    members.add(edge.dst)
                    frontier.append(edge.dst)
        return members


def build_code_dag(
    instrs: list[MachineInstr],
    target: TargetMachine,
    include_anti: bool = True,
) -> CodeDag:
    """Build the code DAG for one basic block's instructions."""
    nodes = [DagNode(instr, i) for i, instr in enumerate(instrs)]
    dag = CodeDag(nodes, target)
    registers = target.registers

    last_def: dict = {}  # reg key -> DagNode
    uses_since_def: dict = {}  # reg key -> list[DagNode]
    last_store: DagNode | None = None
    loads_since_store: list[DagNode] = []
    temporal_writer: dict[str, DagNode] = {}  # temporal reg -> DagNode
    temporal_readers: dict[str, list[DagNode]] = {}
    edges: dict[tuple[int, int], DagEdge] = {}  # (src, dst index) -> edge

    def add_edge(src, dst, latency, kind, clock=None):
        if src is dst:
            return
        edge = edges.get((src.index, dst.index))
        if edge is not None:
            # keep one edge with the strongest constraint
            if latency > edge.latency:
                edge.latency = latency
            if clock is not None and edge.clock is None:
                edge.clock = clock
                edge.kind = kind
            return
        edge = edges[src.index, dst.index] = DagEdge(
            src, dst, latency, kind, clock
        )
        src.succs.append(edge)
        dst.preds.append(edge)

    for node in nodes:
        instr = node.instr
        desc = instr.desc

        # --- type 1: true dependences on registers ---
        for reg in instr.uses():
            for key in entity_keys(reg, registers):
                producer = last_def.get(key)
                if producer is not None:
                    add_edge(producer, node, _true_latency(producer, node, target), 1)
                uses_since_def.setdefault(key, []).append(node)

        # --- type 1 temporal: true dependences through temporal registers ---
        for name in desc.temporal_reads:
            producer = temporal_writer.get(name)
            if producer is not None:
                clock = target.temporal_clock(name)
                add_edge(
                    producer,
                    node,
                    _true_latency(producer, node, target),
                    1,
                    clock=clock,
                )
            temporal_readers.setdefault(name, []).append(node)

        # --- type 2: memory ordering ---
        reads_mem = desc.reads_memory or instr.is_call
        writes_mem = desc.writes_memory or instr.is_call
        if reads_mem:
            if last_store is not None:
                add_edge(last_store, node, max(1, last_store.instr.desc.latency), 2)
            loads_since_store.append(node)
        if writes_mem:
            if last_store is not None:
                add_edge(last_store, node, 1, 2)
            for load in loads_since_store:
                add_edge(load, node, 0, 2)
            last_store = node
            loads_since_store = []

        # --- type 3: anti- and output-dependences ---
        for reg in instr.defs():
            for key in entity_keys(reg, registers):
                if include_anti:
                    for user in uses_since_def.get(key, ()):
                        add_edge(user, node, 0, 3)
                    producer = last_def.get(key)
                    if producer is not None:
                        add_edge(producer, node, 1, 3)
                last_def[key] = node
                uses_since_def[key] = []
        # temporal registers: order writers (output dependence per register)
        for name in desc.temporal_writes:
            producer = temporal_writer.get(name)
            clock = target.temporal_clock(name)
            if producer is not None:
                add_edge(producer, node, 1, 3)
            for reader in temporal_readers.get(name, ()):
                add_edge(reader, node, 0, 3)
            temporal_writer[name] = node
            temporal_readers[name] = []

    _add_protection_edges(dag, add_edge)
    _compute_priorities(dag)
    return dag


def _true_latency(producer: DagNode, consumer: DagNode, target: TargetMachine) -> int:
    """The label of a true-dependence edge: the producer's latency, unless
    an ``%aux`` directive overrides it for this instruction pair."""
    rule = target.aux_latency(producer.instr.desc.mnemonic, consumer.instr.desc.mnemonic)
    if rule is not None:
        first = _operand_reg(producer.instr, rule.first_operand - 1)
        second = _operand_reg(consumer.instr, rule.second_operand - 1)
        if first is not None and first == second:
            return rule.latency
    return producer.instr.desc.latency


def _operand_reg(instr: MachineInstr, position: int):
    if position < len(instr.operands) and isinstance(instr.operands[position], Reg):
        return instr.operands[position].reg
    return None


def _add_protection_edges(dag: CodeDag, add_edge) -> None:
    """Section 4.6: protect temporal sequences against alternate entries.

    For every alternate entry (y, x) into a temporal sequence T based on
    clock k (x in T but not its head), search backward from y; every
    ancestor that affects k and is outside T gets an edge to T's head, so
    all ancestors of sequence members are scheduled before the head and the
    non-backtracking scheduler cannot deadlock (figure 6).  An ancestor
    the head already reaches gets no edge, which would close a cycle.

    The head's descendants are collected once per node x: every edge added
    for x ends at the head and starts outside them, so they stay the same.
    An edge added for another head can change them, so they are collected
    again for the next node.
    """
    if not dag.target.clocks:
        return  # no explicitly advanced pipelines, so no temporal edges
    temporal_clocks = {
        e.clock for n in dag.nodes for e in n.succs if e.is_temporal
    }
    for clock in sorted(temporal_clocks):
        members_cache: dict[int, set[DagNode]] = {}
        for node in dag.nodes:
            incoming_temporal = [
                e for e in node.preds if e.is_temporal and e.clock == clock
            ]
            if not incoming_temporal:
                continue  # node is a head or not in a sequence for this clock
            sequence = None
            head = None
            alternates = [
                e for e in node.preds if not (e.is_temporal and e.clock == clock)
            ]
            if not alternates:
                continue
            head = dag.sequence_head(node, clock)
            key = id(head)
            if key not in members_cache:
                members_cache[key] = dag.sequence_of(head, clock)
            sequence = members_cache[key]
            below = None  # the head's descendants, collected on first need
            for entry in alternates:
                for ancestor in _ancestors_inclusive(entry.src):
                    if ancestor in sequence:
                        continue
                    if ancestor.instr.desc.affects_clock != clock:
                        continue
                    if below is None:
                        below = _descendants_inclusive(head)
                    if ancestor not in below:
                        add_edge(ancestor, head, 0, 4)


def _descendants_inclusive(node: DagNode) -> set[DagNode]:
    seen = {node}
    stack = [node]
    while stack:
        for edge in stack.pop().succs:
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return seen


def _ancestors_inclusive(node: DagNode):
    seen = {id(node)}
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for edge in current.preds:
            if id(edge.src) not in seen:
                seen.add(id(edge.src))
                stack.append(edge.src)


def _compute_priorities(dag: CodeDag) -> None:
    """Maximum distance along any path to a leaf (section 4.2).

    Nodes are visited leaves first, each once all its successors are
    done: a protection edge can point against the code thread, so the
    reversed thread is not a topological order.
    """
    unresolved = {node: len(node.succs) for node in dag.nodes}
    ready = [node for node in dag.nodes if not node.succs]
    while ready:
        node = ready.pop()
        best = node.instr.desc.latency
        for edge in node.succs:
            best = max(best, edge.latency + edge.dst.priority)
        node.priority = best
        for edge in node.preds:
            src = edge.src
            unresolved[src] -= 1
            if not unresolved[src]:
                ready.append(src)
