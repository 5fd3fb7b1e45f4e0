"""Unit tests for the list scheduler: hazards, delay slots, heuristics,
register-pressure limits, and dual issue."""

import pytest

from repro.backend.insts import Imm, Lab, Reg, make_instr
from repro.backend.scheduler import ListScheduler
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg


from tests.helpers import build as _build, compile_paper_programs


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def schedule(target, instrs, **kwargs):
    return ListScheduler(target, **kwargs).schedule_block(instrs)


def test_empty_block(toyp):
    result = schedule(toyp, [])
    assert result.instrs == [] and result.cost == 0


def test_dependent_chain_respects_latency(toyp):
    a = PseudoReg("int", "a")
    b = PseudoReg("int", "b")
    p = PseudoReg("int", "p")
    load = instr(toyp, "ld", Reg(a), Reg(p), Imm(0))
    use = instr(toyp, "addi", Reg(b), Reg(a), Imm(1))
    result = schedule(toyp, [load, use])
    assert result.cycle_of(use) - result.cycle_of(load) >= 3


def test_independent_work_fills_load_shadow(toyp):
    a, b, c, p = (PseudoReg("int", n) for n in "abcp")
    load = instr(toyp, "ld", Reg(a), Reg(p), Imm(0))
    use = instr(toyp, "addi", Reg(b), Reg(a), Imm(1))
    filler = instr(toyp, "addi", Reg(c), Reg(p), Imm(2))
    result = schedule(toyp, [load, use, filler])
    # the filler moves into the load's shadow
    assert result.cycle_of(filler) < result.cycle_of(use)


def test_structural_hazard_single_issue(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    one = instr(toyp, "addi", Reg(a), Reg(p), Imm(1))
    two = instr(toyp, "addi", Reg(b), Reg(p), Imm(2))
    result = schedule(toyp, [one, two])
    # both need IF on their first cycle: strictly one per cycle
    assert result.cycle_of(one) != result.cycle_of(two)


def test_fp_pipe_structural_hazard(toyp):
    """Two fdiv.d cannot overlap in F1 (non-pipelined divide)."""
    d = [PhysReg("d", i) for i in range(4)]
    one = instr(toyp, "fdiv.d", Reg(d[0]), Reg(d[1]), Reg(d[2]))
    two = instr(toyp, "fdiv.d", Reg(d[3]), Reg(d[1]), Reg(d[2]))
    result = schedule(toyp, [one, two])
    assert abs(result.cycle_of(two) - result.cycle_of(one)) >= 8


def test_branch_scheduled_last_with_nop_slots(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    work = instr(toyp, "addi", Reg(a), Reg(p), Imm(1))
    branch = instr(toyp, "beq0", Reg(b), Lab("L"))
    result = schedule(toyp, [branch, work])  # branch first in thread order!
    assert result.instrs[-2].desc.mnemonic == "beq0"
    assert result.instrs[-1].is_nop
    assert result.cost >= result.cycle_of(branch) + 2


def test_branch_plus_jump_keep_order(toyp):
    a, p = PseudoReg("int", "a"), PseudoReg("int", "p")
    work = instr(toyp, "addi", Reg(a), Reg(p), Imm(1))
    branch = instr(toyp, "beq0", Reg(a), Lab("L"))
    jump = instr(toyp, "jmp", Lab("M"))
    result = schedule(toyp, [work, branch, jump])
    names = [i.desc.mnemonic for i in result.instrs]
    assert names == ["addi", "beq0", "nop", "jmp", "nop"]


def test_cost_counts_delay_slots(toyp):
    jump = instr(toyp, "jmp", Lab("L"))
    result = schedule(toyp, [jump])
    assert result.cost == 2  # issue cycle 0 + 1 + one slot


def test_maxdist_beats_fifo_on_critical_path(toyp):
    """The max-distance heuristic starts the long-latency chain first."""
    d = [PhysReg("d", i) for i in range(3)]
    a, b, c, p = (PseudoReg("int", n) for n in "abcp")
    # a long FP chain plus independent cheap work, FP chain last in thread
    cheap = [
        instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(p), Imm(2)),
        instr(toyp, "addi", Reg(c), Reg(p), Imm(3)),
    ]
    fp1 = instr(toyp, "fadd.d", Reg(d[0]), Reg(d[1]), Reg(d[2]))
    fp2 = instr(toyp, "fadd.d", Reg(d[1]), Reg(d[0]), Reg(d[2]))
    thread = cheap + [fp1, fp2]
    maxdist = schedule(toyp, list(thread), heuristic="maxdist")
    fifo = schedule(toyp, list(thread), heuristic="fifo")
    assert maxdist.cost <= fifo.cost
    assert maxdist.cycle_of(fp1) < fifo.cycle_of(fp1)


def test_schedule_preserves_all_instructions(toyp):
    a, b, c, p = (PseudoReg("int", n) for n in "abcp")
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
        instr(toyp, "st", Reg(b), Reg(p), Imm(4)),
        instr(toyp, "addi", Reg(c), Reg(p), Imm(8)),
    ]
    result = schedule(toyp, list(instrs))
    assert {i.id for i in result.instrs} >= {i.id for i in instrs}


def test_schedule_respects_every_dag_edge(toyp):
    from repro.backend.codedag import build_code_dag

    a, b, c, p = (PseudoReg("int", n) for n in "abcp")
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),
        instr(toyp, "mul", Reg(b), Reg(a), Reg(a)),
        instr(toyp, "st", Reg(b), Reg(p), Imm(4)),
        instr(toyp, "addi", Reg(a), Reg(p), Imm(8)),
        instr(toyp, "st", Reg(a), Reg(p), Imm(12)),
    ]
    dag = build_code_dag(instrs, toyp)
    result = schedule(toyp, list(instrs))
    for node in dag.nodes:
        for edge in node.succs:
            src_cycle = result.cycle_of(edge.src.instr)
            dst_cycle = result.cycle_of(edge.dst.instr)
            assert dst_cycle >= src_cycle + edge.latency
            if edge.latency == 0:
                assert dst_cycle >= src_cycle


def test_register_limit_prefers_pressure_reducers(toyp):
    """With a tight limit, the scheduler consumes values before defining
    more (IPS behaviour)."""
    p = PseudoReg("int", "p", is_global=True)
    locals_ = [PseudoReg("int", f"t{i}") for i in range(6)]
    sink = PseudoReg("int", "sink", is_global=True)
    defs = [
        instr(toyp, "addi", Reg(t), Reg(p), Imm(i))
        for i, t in enumerate(locals_)
    ]
    uses = []
    accumulator = locals_[0]
    for t in locals_[1:]:
        out = PseudoReg("int", f"s{t.name}", is_global=True)
        uses.append(instr(toyp, "add", Reg(out), Reg(accumulator), Reg(t)))
        accumulator = out
    thread = defs + uses
    limited = schedule(toyp, list(thread), register_limit=2)
    # correctness: all dependences hold (checked via relative order)
    order = {i.id: n for n, i in enumerate(limited.instrs)}
    for use in uses:
        for reg in use.uses():
            producers = [d for d in defs if reg in d.defs()]
            for producer in producers:
                assert order[producer.id] < order[use.id]


def test_i860_dual_issue_core_and_fp(i860):
    r = [PseudoReg("int", f"r{i}") for i in range(3)]
    d = [PhysReg("d", i) for i in range(4, 8)]
    core = instr(i860, "addsi", Reg(r[0]), Reg(r[1]), Imm(1))
    fp = instr(i860, "A1", Reg(d[0]), Reg(d[1]))
    result = schedule(i860, [core, fp])
    assert result.cycle_of(core) == result.cycle_of(fp) == 0


def test_two_core_ops_cannot_dual_issue(i860):
    r = [PseudoReg("int", f"r{i}") for i in range(4)]
    one = instr(i860, "addsi", Reg(r[0]), Reg(r[1]), Imm(1))
    two = instr(i860, "addsi", Reg(r[2]), Reg(r[3]), Imm(2))
    result = schedule(i860, [one, two])
    assert result.cycle_of(one) != result.cycle_of(two)


def test_issuing_a_node_off_the_ready_list_raises(toyp):
    # the ready list is sorted; removing an absent entry must fail rather
    # than take the neighbour it sorts next to
    from repro.backend.codedag import build_code_dag
    from repro.backend.scheduler import _BlockScheduler
    from repro.errors import SchedulingError

    a, b, c, p = (PseudoReg("int", n) for n in "abcp")
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(a), Imm(2)),  # waits for a
        instr(toyp, "addi", Reg(c), Reg(p), Imm(3)),
    ]
    block = _BlockScheduler(
        ListScheduler(toyp, heuristic="fifo"), build_code_dag(instrs, toyp)
    )
    ready = [entry[-1].index for entry in block.ready]
    assert ready == [0, 2]
    with pytest.raises(SchedulingError, match="not on the ready list"):
        block._issue(block.nodes[1], 0)
    assert [entry[-1].index for entry in block.ready] == ready


def test_a_latency_wait_gets_one_event_per_idle_cycle(r2000):
    """A div (latency 35) feeds the block's only other instruction: the
    34 cycles between them are idle, each with one ``latency(div)``
    event, in cycle order, with no gap and no repeat."""
    from repro.obs import stalls

    a, b, q, s = (PseudoReg("int", n) for n in "abqs")
    div = instr(r2000, "div", Reg(q), Reg(a), Reg(b))
    add = instr(r2000, "addu", Reg(s), Reg(q), Reg(a))
    result = schedule(r2000, [div, add])
    assert (result.cycle_of(div), result.cycle_of(add)) == (0, 35)
    assert result.stall_events == [
        (cycle, stalls.latency("div")) for cycle in range(1, 35)
    ]
    assert result.nop_slots == len(result.stall_events) == 34


# -- stepped waits against the cycle-by-cycle loop ------------------------------


def _cycle_by_cycle_run(self):
    """The reference main loop: one iteration per cycle, idle or not."""
    from repro.errors import SchedulingError

    classify = self.config.classify_stalls
    cycle = 0
    guard = 0
    limit = 64 + sum(
        n.instr.desc.latency + len(n.instr.desc.resource_vector)
        for n in self.nodes
    ) + 4 * len(self.nodes)
    while self.unscheduled > 0:
        self.cycle_classes = None
        before = self.unscheduled
        self._issue_all_possible(cycle)
        if self.unscheduled == before and classify:
            self.stall_events.append((cycle, self._classify_stall(cycle)))
        cycle += 1
        guard += 1
        if guard > limit:
            raise SchedulingError("scheduler made no progress")
    return self._finish()


def _outcome(result, block_ids):
    """A ScheduleResult's fields, with each delay-slot nop (a new
    instruction on every run) named by its mnemonic."""

    def name(instr):
        return instr.id if instr.id in block_ids else instr.desc.mnemonic

    return (
        [(name(i), result.issue_cycle[i.id]) for i in result.instrs],
        len(result.issue_cycle),
        result.stall_events,
        result.nop_slots,
        result.cost,
    )


def test_stepped_waits_match_the_cycle_by_cycle_loop(all_targets, monkeypatch):
    """Every block the paper programs schedule on the four targets,
    under all three strategies, gets the same instructions, issue
    cycles, stall events, nop slots and cost as with one loop iteration
    per cycle."""
    from repro.backend import scheduler
    from repro.obs import stalls

    schedule_block = ListScheduler.schedule_block
    blocks = []

    def both(self, instrs):
        result = schedule_block(self, instrs)
        if instrs:
            dag = scheduler.build_code_dag(instrs, self.target)
            reference = _cycle_by_cycle_run(scheduler._BlockScheduler(self, dag))
            ids = {i.id for i in instrs}
            blocks.append((_outcome(result, ids), _outcome(reference, ids)))
        return result

    monkeypatch.setattr(ListScheduler, "schedule_block", both)
    compile_paper_programs(all_targets.values())
    waits = 0
    for result, reference in blocks:
        assert result == reference
        waits += sum(
            1 for _, reason in result[2] if reason.startswith(stalls.LATENCY)
        )
    assert len(blocks) > 10000
    assert waits > 10000  # the comparison covers stepped-over waits
