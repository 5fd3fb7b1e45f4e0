"""Property-based tests (hypothesis) over core invariants."""

import math

from hypothesis import given, settings, strategies as st

import repro
from repro.backend.codedag import build_code_dag
from repro.backend.insts import Imm, Reg
from repro.backend.scheduler import ListScheduler
from repro.backend.values import immediate_fits
from repro.il.node import PseudoReg
from repro.machine.instruction import OperandDesc, OperandMode
from repro.sim.executor import _int_div, _int_mod, _wrap32
from repro.targets import load_target

from tests.helpers import build as build_instr

_TOYP = load_target("toyp")
_INT32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


# -- arithmetic helpers -------------------------------------------------------


@given(st.integers())
def test_wrap32_idempotent_and_in_range(value):
    wrapped = _wrap32(value)
    assert -(2**31) <= wrapped < 2**31
    assert _wrap32(wrapped) == wrapped
    assert (wrapped - value) % (2**32) == 0


@given(_INT32, _INT32.filter(lambda v: v != 0))
def test_c_division_identity(a, b):
    quotient = _int_div(a, b)
    remainder = _int_mod(a, b)
    assert quotient * b + remainder == a
    assert abs(remainder) < abs(b)
    # C semantics: remainder has the dividend's sign (or is zero)
    assert remainder == 0 or (remainder > 0) == (a > 0)


@given(_INT32)
def test_immediate_fits_respects_range(value):
    spec = OperandDesc(OperandMode.IMM, def_name="c16", lo=-32768, hi=32767)
    assert immediate_fits(value, spec) == (-32768 <= value <= 32767)


# -- random straight-line program: schedule validity ---------------------------


@st.composite
def straight_line_block(draw):
    """A random dependency-rich straight-line TOYP block over pseudos."""
    count = draw(st.integers(min_value=1, max_value=12))
    base = PseudoReg("int", "base")
    available = [base]
    instrs = []
    for i in range(count):
        choice = draw(st.integers(min_value=0, max_value=3))
        dest = PseudoReg("int", f"v{i}")
        if choice == 0:
            src = draw(st.sampled_from(available))
            instrs.append(
                build_instr(_TOYP, "addi", Reg(dest), Reg(src), Imm(i))
            )
        elif choice == 1:
            lhs = draw(st.sampled_from(available))
            rhs = draw(st.sampled_from(available))
            instrs.append(
                build_instr(_TOYP, "add", Reg(dest), Reg(lhs), Reg(rhs))
            )
        elif choice == 2:
            addr = draw(st.sampled_from(available))
            instrs.append(build_instr(_TOYP, "ld", Reg(dest), Reg(addr), Imm(0)))
        else:
            value = draw(st.sampled_from(available))
            addr = draw(st.sampled_from(available))
            instrs.append(build_instr(_TOYP, "st", Reg(value), Reg(addr), Imm(4)))
            continue  # stores define nothing
        available.append(dest)
    return instrs


@given(straight_line_block(), st.one_of(st.none(), st.integers(2, 8)))
@settings(max_examples=60, deadline=None)
def test_schedule_respects_all_dependences(instrs, register_limit):
    dag = build_code_dag(list(instrs), _TOYP)
    result = ListScheduler(
        _TOYP, register_limit=register_limit
    ).schedule_block(list(instrs))
    # every instruction appears exactly once (plus possible nops)
    scheduled = [i for i in result.instrs if not i.is_nop]
    assert sorted(i.id for i in scheduled) == sorted(i.id for i in instrs)
    position = {i.id: n for n, i in enumerate(result.instrs)}
    for node in dag.nodes:
        for edge in node.succs:
            src, dst = edge.src.instr, edge.dst.instr
            assert result.cycle_of(dst) >= result.cycle_of(src) + edge.latency
            assert position[src.id] < position[dst.id]


@given(straight_line_block())
@settings(max_examples=30, deadline=None)
def test_fifo_and_maxdist_schedules_both_valid(instrs):
    for heuristic in ("maxdist", "fifo"):
        dag = build_code_dag(list(instrs), _TOYP)
        result = ListScheduler(_TOYP, heuristic=heuristic).schedule_block(
            list(instrs)
        )
        for node in dag.nodes:
            for edge in node.succs:
                assert (
                    result.cycle_of(edge.dst.instr)
                    >= result.cycle_of(edge.src.instr) + edge.latency
                )


# -- whole-compiler properties -----------------------------------------------


@given(
    st.lists(_INT32, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=25, deadline=None)
def test_compiled_sum_matches_python(values, rotate):
    """Compile a function summing a global int array and compare."""
    values = values[: max(1, len(values))]
    n = len(values)
    initial = ", ".join(str(v) for v in values)
    src = f"""
    int data[{n}] = {{{initial}}};
    int f(void) {{
        int i, s;
        s = 0;
        for (i = 0; i < {n}; i++) {{ s = s + data[i]; }}
        return s;
    }}
    """
    exe = repro.compile_c(src, "r2000")
    got = repro.simulate(exe, "f", options=repro.SimOptions(model_timing=False)).return_value["int"]
    expected = 0
    for v in values:
        expected = _wrap32(expected + v)
    assert got == expected


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_double_roundtrip_through_memory_and_calls(x):
    src = """
    double keep;
    double stash(double v) { keep = v; return keep; }
    double f(double v) { return stash(v) + keep; }
    """
    exe = repro.compile_c(src, "r2000")
    got = repro.simulate(exe, "f", args=(x,)).return_value["double"]
    assert got == x + x


@given(_INT32, _INT32)
@settings(max_examples=25, deadline=None)
def test_wrapping_arithmetic_matches_c(a, b):
    src = "int f(int a, int b) { return a + b * 3 - (a ^ b); }"
    exe = repro.compile_c(src, "toyp")
    got = repro.simulate(exe, "f", args=(a, b), options=repro.SimOptions(model_timing=False))
    expected = _wrap32(a + _wrap32(b * 3) - (a ^ b))
    assert got.return_value["int"] == expected
