"""Temporal scheduling tests (paper section 4.6): Rule 1, temporal groups,
packing classes, deadlock freedom, and functional correctness of packed
explicitly-advanced pipelines."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.backend.codedag import build_code_dag
from repro.backend.insts import Imm, Lab, Reg, make_instr
from repro.backend.lower import lower_function
from repro.backend.scheduler import ListScheduler
from repro.backend.selector import Selector
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg


from tests.helpers import build as _build


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def schedule(target, instrs, **kwargs):
    return ListScheduler(target, **kwargs).schedule_block(instrs)


def mul_sequence(i860, dst, a, b):
    return [
        instr(i860, "M1", Reg(a), Reg(b)),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(dst)),
    ]


def add_sequence(i860, dst, a, b):
    return [
        instr(i860, "A1", Reg(a), Reg(b)),
        instr(i860, "A2"),
        instr(i860, "A3"),
        instr(i860, "FWBA", Reg(dst)),
    ]


def test_single_sequence_schedules_in_order(i860):
    d = [PhysReg("d", i) for i in range(4, 8)]
    seq = mul_sequence(i860, d[2], d[0], d[1])
    result = schedule(i860, list(seq))
    cycles = [result.cycle_of(i) for i in seq]
    assert cycles == sorted(cycles)
    assert cycles[0] < cycles[1] < cycles[2] < cycles[3]


def test_rule1_blocks_second_multiply_before_advance(i860):
    """After M1a issues, M1b (affects clk_m) may not issue before M2a, but
    may pack with it (paper's exact example)."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    a_seq = mul_sequence(i860, d[2], d[0], d[1])
    b_seq = mul_sequence(i860, d[5], d[3], d[4])
    result = schedule(i860, a_seq + b_seq)
    m1a, m2a = a_seq[0], a_seq[1]
    m1b = b_seq[0]
    if result.cycle_of(m1b) > result.cycle_of(m1a):
        assert result.cycle_of(m1b) >= result.cycle_of(m2a)


def test_interleaved_multiplies_share_pipeline(i860):
    """Two multiplies overlap in the pipe: total length < 2x sequential."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    a_seq = mul_sequence(i860, d[2], d[0], d[1])
    b_seq = mul_sequence(i860, d[5], d[3], d[4])
    result = schedule(i860, a_seq + b_seq)
    solo = schedule(i860, mul_sequence(i860, d[2], d[0], d[1]))
    assert result.cost < 2 * solo.cost


def test_multiply_and_add_pack_into_dual_operations(i860):
    d = [PhysReg("d", i) for i in range(4, 12)]
    m_seq = mul_sequence(i860, d[2], d[0], d[1])
    a_seq = add_sequence(i860, d[5], d[3], d[4])
    result = schedule(i860, m_seq + a_seq)
    by_cycle = {}
    for i in result.instrs:
        by_cycle.setdefault(result.cycle_of(i), []).append(i)
    packed = [ops for ops in by_cycle.values() if len(ops) > 1]
    assert packed, "multiply and add sub-operations should share cycles"


def test_packed_subops_share_a_class_element(i860):
    d = [PhysReg("d", i) for i in range(4, 12)]
    m_seq = mul_sequence(i860, d[2], d[0], d[1])
    a_seq = add_sequence(i860, d[5], d[3], d[4])
    result = schedule(i860, m_seq + a_seq)
    by_cycle = {}
    for i in result.instrs:
        by_cycle.setdefault(result.cycle_of(i), []).append(i)
    for ops in by_cycle.values():
        classed = [i.desc.classes for i in ops if i.desc.classes]
        if len(classed) > 1:
            common = classed[0]
            for classes in classed[1:]:
                common = common & classes
            assert common, f"no common long instruction for {ops}"


def test_incompatible_classes_never_pack(i860):
    """A1S (pfsub/m12asm) and A1 (pfadd/m12apm...) both need field FA1 so
    they cannot share a cycle anyway; M1 and A1S share only m12asm."""
    m1 = instr(i860, "M1", Reg(PhysReg("d", 4)), Reg(PhysReg("d", 5)))
    a1 = instr(i860, "A1", Reg(PhysReg("d", 6)), Reg(PhysReg("d", 7)))
    assert m1.desc.classes & a1.desc.classes  # m12apm


def test_chained_suboperation_waits_for_multiplier(i860):
    """A1M reads m3: it may not issue before M3 has produced it, and no
    other multiply may advance clk_m past it."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    seq = [
        instr(i860, "M1", Reg(d[0]), Reg(d[1])),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "A1M", Reg(d[2])),  # a1 = m3 + d[2]
        instr(i860, "A2"),
        instr(i860, "A3"),
        instr(i860, "FWBA", Reg(d[5])),
    ]
    result = schedule(i860, list(seq))
    assert result.cycle_of(seq[3]) > result.cycle_of(seq[2])


def test_figure6_shape_does_not_deadlock(i860):
    """The protection-edge case: an alternate entry into a temporal
    sequence whose producer affects the same clock."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    # multiply 1 produces d6; multiply 2 consumes d6 in its launch
    first = mul_sequence(i860, d[2], d[0], d[1])
    second = mul_sequence(i860, d[5], d[2], d[3])
    result = schedule(i860, first + second)
    # all eight sub-operations scheduled (no deadlock), in a legal order
    assert len([i for i in result.instrs if not i.is_nop]) == 8
    assert result.cycle_of(second[0]) >= result.cycle_of(first[3])


def test_two_pipes_with_cross_feed_no_deadlock(i860):
    d = [PhysReg("d", i) for i in range(4, 14)]
    mul = mul_sequence(i860, d[2], d[0], d[1])
    add = add_sequence(i860, d[5], d[2], d[4])  # consumes multiply result
    result = schedule(i860, mul + add)
    assert result.cycle_of(add[0]) >= result.cycle_of(mul[3])


def test_emission_order_reads_latches_before_advance(i860):
    """Within a packed cycle, a stage reading a latch is emitted before the
    co-issued earlier stage that advances it (sequential-execution
    faithfulness)."""
    d = [PhysReg("d", i) for i in range(4, 12)]
    a_seq = mul_sequence(i860, d[2], d[0], d[1])
    b_seq = mul_sequence(i860, d[5], d[3], d[4])
    result = schedule(i860, a_seq + b_seq)
    position = {i.id: n for n, i in enumerate(result.instrs)}
    for later, earlier in ((a_seq[1], b_seq[0]), (a_seq[2], b_seq[1])):
        if result.cycle_of(later) == result.cycle_of(earlier):
            assert position[later.id] < position[earlier.id]


def test_functional_correctness_of_packed_pipeline(i860):
    """End-to-end: two interleaved multiplies compute the right values."""
    import repro

    src = """
    double f(double a, double b, double c, double d) {
        return a * b + c * d;
    }
    """
    exe = repro.compile_c(src, "i860", repro.CompileOptions(strategy="postpass"))
    result = repro.simulate(exe, "f", args=(3.0, 5.0, 7.0, 11.0))
    assert result.return_value["double"] == 3.0 * 5.0 + 7.0 * 11.0


def test_temporal_state_is_ephemeral_between_ops(i860):
    """A value parked in the pipeline is consumed exactly once; re-running
    the same function gives identical results (no stale latch leakage)."""
    import repro

    src = """
    double f(double a, double b) { return a * b; }
    double g(double a, double b) { return (a * b) * (a + b); }
    """
    exe = repro.compile_c(src, "i860", repro.CompileOptions(strategy="ips"))
    one = repro.simulate(exe, "g", args=(2.0, 4.0))
    two = repro.simulate(exe, "g", args=(2.0, 4.0))
    assert one.return_value["double"] == two.return_value["double"] == 48.0


def test_selector_emits_chained_multiply_add(i860):
    """Fused a*b + c selects the A1M (T-register) chain, skipping FWBM."""
    import repro

    src = "double f(double a, double b, double c) { return a * b + c; }"
    exe = repro.compile_c(src, "i860", repro.CompileOptions(strategy="postpass"))
    names = [i.desc.mnemonic for i in exe.instrs]
    assert "A1M" in names
    assert "FWBM" not in names
    result = repro.simulate(exe, "f", args=(3.0, 5.0, 7.0))
    assert result.return_value["double"] == 22.0


def test_chained_and_unchained_agree(i860):
    import repro

    src = """
    double w[32];
    double f(int n) {
        int i; double s = 0.0;
        for (i = 0; i < n; i++) { w[i] = i * 0.25; }
        for (i = 0; i < n; i++) { s = s + w[i] * w[i] + (w[i] + 1.0); }
        return s;
    }
    """
    exe = repro.compile_c(src, "i860", repro.CompileOptions(strategy="ips"))
    result = repro.simulate(exe, "f", args=(24,))
    expected = 0.0
    w = [i * 0.25 for i in range(24)]
    for i in range(24):
        expected = expected + w[i] * w[i] + (w[i] + 1.0)
    assert result.return_value["double"] == expected


def test_chain_blocks_other_multiplies_until_consumed(i860):
    """While A1M is pending on clk_m's value, another multiply launch may
    not advance the multiplier pipe past it."""
    from repro.backend.scheduler import ListScheduler

    d = [PhysReg("d", i) for i in range(4, 12)]
    chain = [
        instr(i860, "M1", Reg(d[0]), Reg(d[1])),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "A1M", Reg(d[2])),
        instr(i860, "A2"),
        instr(i860, "A3"),
        instr(i860, "FWBA", Reg(d[3])),
    ]
    other = [
        instr(i860, "M1", Reg(d[4]), Reg(d[5])),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d[6])),
    ]
    result = ListScheduler(i860).schedule_block(chain + other)
    # every sub-operation scheduled, results ordered safely: the second
    # multiply's M3 (which overwrites m3) may not issue before A1M reads it
    m3_other = other[2]
    a1m = chain[3]
    assert result.cycle_of(m3_other) >= result.cycle_of(a1m)


# -- random FP loops: no deadlock under the pressure-bounded passes --------

#: the loops' scalars and their starting values
FP_SCALARS = {"s0": 0.5, "s1": 0.75, "s2": -0.25}


def fp_loop(choose, count):
    """A random i860 FP loop, as ``(C source, n, Python reference value)``.

    1-6 statements of ``+ - *`` over 2-5 double arrays and the three
    scalars, expressions of depth 1-3; ``choose(options)`` picks one
    option and ``count(low, high)`` an int in ``[low, high]``, so the
    same generator serves hypothesis and a seeded ``random.Random``.
    """
    arrays = [f"a{k}" for k in range(count(2, 5))]
    names = arrays + sorted(FP_SCALARS)

    def expr(depth):
        if depth == 3 or (depth and choose((False, False, True))):
            return choose(names)
        return (choose("+-*"), expr(depth + 1), expr(depth + 1))

    body = [(choose(names), expr(0)) for _ in range(count(1, 6))]
    n = count(2, 6)

    def c_text(tree):
        if isinstance(tree, str):
            return f"{tree}[i]" if tree in arrays else tree
        op, left, right = tree
        return f"({c_text(left)} {op} {c_text(right)})"

    source = "\n".join(
        [f"double {name}[8];" for name in arrays]
        + [f"double {name};" for name in sorted(FP_SCALARS)]
        + ["double f(int n) {", "    int i;", "    double t;"]
        + [
            f"    for (i = 0; i < n; i = i + 1) {{ {name}[i] = "
            f"i * 0.0625 + {0.125 * (k + 1)}; }}"
            for k, name in enumerate(arrays)
        ]
        + [f"    {name} = {value};" for name, value in FP_SCALARS.items()]
        + ["    for (i = 0; i < n; i = i + 1) {"]
        + [
            f"        {c_text(dst)} = {c_text(tree)};"
            for dst, tree in body
        ]
        + ["    }", "    t = s0 + s1 + s2;", "    for (i = 0; i < n; i = i + 1) {"]
        + [f"        t = t + {name}[i];" for name in arrays]
        + ["    }", "    return t;", "}"]
    )

    def evaluate(tree, env, i):
        if isinstance(tree, str):
            return env[tree][i] if tree in arrays else env[tree]
        op, left, right = tree
        a, b = evaluate(left, env, i), evaluate(right, env, i)
        return a + b if op == "+" else a - b if op == "-" else a * b

    env = {
        name: [i * 0.0625 + 0.125 * (k + 1) for i in range(n)]
        for k, name in enumerate(arrays)
    }
    env.update(FP_SCALARS)
    for i in range(n):
        for dst, tree in body:
            value = evaluate(tree, env, i)
            if dst in arrays:
                env[dst][i] = value
            else:
                env[dst] = value
    t = env["s0"] + env["s1"] + env["s2"]
    for i in range(n):
        for name in arrays:
            t = t + env[name][i]
    return source, n, t


@st.composite
def fp_loops(draw):
    return fp_loop(
        lambda options: draw(st.sampled_from(list(options))),
        lambda low, high: draw(st.integers(low, high)),
    )


@given(fp_loops(), st.sampled_from(["ips", "rase"]))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_random_fp_loops_never_deadlock(program, strategy):
    """RASE's estimate pass runs with four registers, so its pressure
    filter binds on most of these loops; it must never leave only
    candidates that Rule 1 blocks."""
    source, n, expected = program
    exe = repro.compile_c(source, "i860", repro.CompileOptions(strategy=strategy))
    value = repro.simulate(exe, "f", args=(n,)).return_value["double"]
    # a loop that overflows computes NaN on both sides
    assert value == expected or (math.isnan(value) and math.isnan(expected))


def test_random_fp_loop_blocks_schedule_at_every_register_limit(i860):
    """The selected blocks of random FP loops, straight through the
    scheduler at register limits 2-8 under both heuristics: none
    deadlocks, every edge's latency holds, and classifying idle cycles
    does not move an issue cycle."""
    rng = random.Random(17)
    blocks = []
    for _ in range(4):
        source, _n, _expected = fp_loop(rng.choice, rng.randint)
        il = repro.compile_to_il(source)
        selector = Selector(i860)
        for fn in il.functions:
            lower_function(fn, i860, il.globals)
            blocks += [b.instrs for b in selector.select_function(fn).blocks]
    assert max(len(instrs) for instrs in blocks) > 40
    for instrs in blocks:
        edges = [e for n in build_code_dag(instrs, i860).nodes for e in n.succs]
        for heuristic in ("maxdist", "fifo"):
            for limit in range(2, 9):
                runs = [
                    schedule(
                        i860, list(instrs), heuristic=heuristic,
                        register_limit=limit, classify_stalls=classify,
                    )
                    for classify in (True, False)
                ]
                cycles = [[run.cycle_of(i) for i in instrs] for run in runs]
                assert cycles[0] == cycles[1]
                for edge in edges:
                    assert (
                        runs[0].cycle_of(edge.dst.instr)
                        >= runs[0].cycle_of(edge.src.instr) + edge.latency
                    )
