"""Unit tests for code DAG construction (edge types, aux latencies,
protection edges)."""

import pytest

from repro.backend.codedag import _ancestors_inclusive, build_code_dag
from repro.backend.insts import Imm, Reg, make_instr
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg


from tests.helpers import build as _build


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def edge_between(dag, i, j):
    for edge in dag.nodes[i].succs:
        if edge.dst is dag.nodes[j]:
            return edge
    return None


@pytest.fixture()
def regs():
    return {
        "a": PseudoReg("int", "a"),
        "b": PseudoReg("int", "b"),
        "c": PseudoReg("int", "c"),
        "p": PseudoReg("int", "p"),
    }


def test_true_dependence_labelled_with_latency(toyp, regs):
    a, b, c, p = regs["a"], regs["b"], regs["c"], regs["p"]
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),  # ld latency 3
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge is not None
    assert edge.kind == 1
    assert edge.latency == 3


def test_independent_instructions_have_no_edge(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1) is None


def test_memory_ordering_edges(toyp, regs):
    a, p = regs["a"], regs["p"]
    instrs = [
        instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        instr(toyp, "ld", Reg(regs["b"]), Reg(p), Imm(8)),
        instr(toyp, "st", Reg(a), Reg(p), Imm(16)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1).kind == 2  # load after store
    assert edge_between(dag, 1, 2).kind == 2  # store after load
    assert edge_between(dag, 0, 2).kind == 2  # store after store


def test_anti_dependence_edges(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),  # uses a
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),  # redefines a
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge.kind == 3
    assert edge.latency == 0


def test_output_dependence_edges(toyp, regs):
    a = regs["a"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge.kind == 3
    assert edge.latency == 1


def test_anti_edges_can_be_excluded(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp, include_anti=False)
    assert edge_between(dag, 0, 1) is None


def test_physical_register_aliasing_dependence(toyp):
    """d[1] overlays r[2]/r[3]: writing d[1] then reading r[2] is a true
    dependence through the shared unit."""
    d1 = PhysReg("d", 1)
    r2 = PhysReg("r", 2)
    dst = PseudoReg("int", "t")
    instrs = [
        instr(toyp, "fmov.d", Reg(d1), Reg(PhysReg("d", 2))),
        instr(toyp, "addi", Reg(dst), Reg(r2), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge is not None
    assert edge.kind == 1


def test_aux_latency_override(toyp):
    d1, d2, d3 = PhysReg("d", 1), PhysReg("d", 2), PhysReg("d", 3)
    base = PseudoReg("int", "base")
    instrs = [
        instr(toyp, "fadd.d", Reg(d1), Reg(d2), Reg(d3)),
        instr(toyp, "st.d", Reg(d1), Reg(base), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1).latency == 7  # %aux overrides 6


def test_aux_requires_matching_operands(toyp):
    d1, d2, d3 = PhysReg("d", 1), PhysReg("d", 2), PhysReg("d", 3)
    base = PseudoReg("int", "base")
    instrs = [
        instr(toyp, "fadd.d", Reg(d1), Reg(d2), Reg(d3)),
        instr(toyp, "st.d", Reg(d2), Reg(base), Imm(0)),  # stores d2, not d1
    ]
    dag = build_code_dag(instrs, toyp)
    # no register dependence d1->store; only a type-2/3 relationship may
    # exist, so check the true-dep latency is NOT applied anywhere
    edge = edge_between(dag, 0, 1)
    assert edge is None or edge.latency != 7


def test_priorities_reflect_longest_path(toyp, regs):
    a, b, c, p = regs["a"], regs["b"], regs["c"], regs["p"]
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),  # latency 3
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),  # latency 1
        instr(toyp, "addi", Reg(c), Reg(b), Imm(1)),  # leaf
    ]
    dag = build_code_dag(instrs, toyp)
    assert dag.nodes[2].priority == 1
    assert dag.nodes[1].priority == 2
    assert dag.nodes[0].priority == 5


def test_code_thread_is_topological(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
        instr(toyp, "st", Reg(b), Reg(regs["p"]), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    for node in dag.nodes:
        for edge in node.succs:
            assert edge.src.index < edge.dst.index


def test_temporal_edges_marked_with_clock(i860):
    d4, d5, d6 = PhysReg("d", 4), PhysReg("d", 5), PhysReg("d", 6)
    instrs = [
        instr(i860, "M1", Reg(d4), Reg(d5)),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d6)),
    ]
    dag = build_code_dag(instrs, i860)
    edge = edge_between(dag, 0, 1)
    assert edge.is_temporal
    assert edge.clock == "clk_m"
    assert dag.sequence_head(dag.nodes[3], "clk_m") is dag.nodes[0]
    assert dag.sequence_of(dag.nodes[0], "clk_m") == set(dag.nodes)


def kind4_edges(dag):
    return [
        (e.src.index, e.dst.index, e.latency)
        for e in dag.edges()
        if e.kind == 4
    ]


def mul_sequence(i860, dst, a, b):
    return [
        instr(i860, "M1", Reg(a), Reg(b)),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(dst)),
    ]


def test_alternate_entry_from_another_clock_needs_no_protection_edge(i860):
    """An alternate entry into the clk_a sequence whose ancestors affect
    only clk_m: no ancestor affects clk_a, so no protection edge."""
    d4, d5, d6, d7, d8 = (PhysReg("d", i) for i in range(4, 9))
    instrs = [
        instr(i860, "M1", Reg(d4), Reg(d5)),  # head of the clk_m sequence
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d6)),
        instr(i860, "A1", Reg(d6), Reg(d7)),  # alternate entry into clk_a
        instr(i860, "A2"),
        instr(i860, "A3"),
        instr(i860, "FWBA", Reg(d8)),
    ]
    dag = build_code_dag(instrs, i860)
    assert kind4_edges(dag) == []
    for node in dag.nodes:
        for edge in node.succs:
            assert edge.src is not edge.dst


def test_protection_edge_added_for_alternate_entry(i860):
    """Figure 6: the second multiply's launch (node 4) consumes the first
    one's result.  FWBM (3) is an alternate entry into the second clk_m
    sequence, and its ancestor M3 (2) advances clk_m, so M3 must issue
    before the second sequence's head: one protection edge 2 -> 4."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    first = mul_sequence(i860, d[2], d[0], d[1])
    second = mul_sequence(i860, d[5], d[2], d[3])
    dag = build_code_dag(first + second, i860)
    assert kind4_edges(dag) == [(2, 4, 0)]


def test_protection_edge_skips_ancestors_the_head_reaches(i860):
    """The load (4) is an alternate entry into the first sequence at its
    FWBM (5).  Of its ancestors, the second launch (2) advances clk_m but
    is reached from the head (0) through m1, so an edge 2 -> 0 would
    close a cycle and is not added.  The second sequence's own alternate
    entry (3 -> 6) gives the one protection edge, 3 -> 2."""
    d4, d5, d6, d7, d8 = (PhysReg("d", i) for i in range(4, 9))
    base = PseudoReg("int", "base")
    instrs = [
        instr(i860, "M1", Reg(d4), Reg(d5)),  # head of the first sequence
        instr(i860, "M2"),
        instr(i860, "M1", Reg(d6), Reg(d7)),  # head of the second
        instr(i860, "M3"),
        instr(i860, "fld.d", Reg(d6), Reg(base), Imm(0)),
        instr(i860, "FWBM", Reg(d6)),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d8)),
    ]
    dag = build_code_dag(instrs, i860)
    assert kind4_edges(dag) == [(3, 2, 0)]
    # the edge points against the code thread; priorities still see it
    for node in dag.nodes:
        assert node.priority == max(
            [node.instr.desc.latency]
            + [edge.latency + edge.dst.priority for edge in node.succs]
        ), node


def _reference_protection_edges(dag, add_edge):
    """The per-ancestor search: one depth-first search from the head for
    every ancestor that affects the clock."""
    temporal_clocks = {
        e.clock for n in dag.nodes for e in n.succs if e.is_temporal
    }
    for clock in temporal_clocks:
        for node in dag.nodes:
            if not any(e.is_temporal and e.clock == clock for e in node.preds):
                continue
            alternates = [
                e for e in node.preds if not (e.is_temporal and e.clock == clock)
            ]
            if not alternates:
                continue
            head = dag.sequence_head(node, clock)
            sequence = dag.sequence_of(head, clock)
            for entry in alternates:
                for ancestor in _ancestors_inclusive(entry.src):
                    if ancestor in sequence:
                        continue
                    if ancestor.instr.desc.affects_clock == clock and not _reachable(
                        head, ancestor
                    ):
                        add_edge(ancestor, head, 0, 4)


def _reachable(src, dst):
    seen = {id(src)}
    stack = [src]
    while stack:
        current = stack.pop()
        if current is dst:
            return True
        for edge in current.succs:
            if id(edge.dst) not in seen:
                seen.add(id(edge.dst))
                stack.append(edge.dst)
    return False


def edge_list(dag):
    return [
        (e.src.index, e.dst.index, e.latency, e.kind, e.clock)
        for e in dag.edges()
    ]


def test_protection_edges_match_the_per_ancestor_search(i860, monkeypatch):
    """Every block the i860 back end schedules for a few suite programs
    and Livermore kernels, under all three strategies, gets the same
    edges as with the reference search."""
    import repro
    from repro.backend import codedag, scheduler
    from repro.workloads import PROGRAM_SUITE, kernel_by_id

    build = codedag.build_code_dag
    blocks = []

    def both(instrs, target, include_anti=True):
        with monkeypatch.context() as patch:
            patch.setattr(
                codedag, "_add_protection_edges", _reference_protection_edges
            )
            reference = build(instrs, target, include_anti)
        dag = build(instrs, target, include_anti)
        blocks.append((edge_list(dag), edge_list(reference)))
        return dag

    monkeypatch.setattr(scheduler, "build_code_dag", both)
    sources = [p.source for p in PROGRAM_SUITE if p.name == "stencil"]
    sources += [kernel_by_id(k).source for k in (1, 7, 9)]
    for source in sources:
        for strategy in ("postpass", "ips", "rase"):
            repro.compile_c(source, i860, repro.CompileOptions(strategy=strategy))
    protected = 0
    for edges, reference in blocks:
        assert edges == reference
        protected += sum(1 for edge in edges if edge[3] == 4)
    assert protected > 1000  # the comparison covers real protection edges
