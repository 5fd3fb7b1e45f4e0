"""End-to-end correctness: C programs through every target and strategy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

TARGETS = ["toyp", "r2000", "m88000", "i860"]
STRATEGIES = ["postpass", "ips", "rase"]


def run(source, fn, args, target="r2000", strategy="postpass", kind="int"):
    exe = repro.compile_c(source, target, repro.CompileOptions(strategy=strategy))
    return repro.simulate(exe, fn, args=args).return_value[kind]


# -- arithmetic across targets ---------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_integer_arithmetic(target):
    src = """
    int f(int a, int b) {
        return (a + b) * (a - b) / 3 + a % b - (a & b) + (a | b) - (a ^ b)
               + (a << 2) - (b >> 1) + ~a + (-b);
    }
    """
    a, b = 37, 11
    expected = (
        (a + b) * (a - b) // 3 + a % b - (a & b) + (a | b) - (a ^ b)
        + (a << 2) - (b >> 1) + ~a + (-b)
    )
    assert run(src, "f", (a, b), target=target) == expected


@pytest.mark.parametrize("target", TARGETS)
def test_double_arithmetic(target):
    # one double parameter: TOYP can pass at most one in registers
    src = """
    double f(double a) {
        double b = 2.25;
        return (a + b) * (a - b) / (a * 0.5) - b;
    }
    """
    a, b = 9.5, 2.25
    expected = (a + b) * (a - b) / (a * 0.5) - b
    assert run(src, "f", (a,), target=target, kind="double") == pytest.approx(
        expected, rel=1e-15
    )


@pytest.mark.parametrize("target", ["r2000", "m88000", "i860"])
def test_float_arithmetic(target):
    src = """
    float f(float a, float b) { return a * b + a - b; }
    """
    exe = repro.compile_c(src, target)
    result = repro.simulate(exe, "f", args=(2.5, 4.0), arg_types=("float", "float"))
    assert result.return_value["float"] == pytest.approx(2.5 * 4.0 + 2.5 - 4.0)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_control_flow_matrix(target, strategy):
    src = """
    int collatz(int n) {
        int steps = 0;
        while (n != 1) {
            if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
            steps++;
        }
        return steps;
    }
    """
    def reference(n):
        steps = 0
        while n != 1:
            n = n // 2 if n % 2 == 0 else 3 * n + 1
            steps += 1
        return steps

    assert run(src, "collatz", (27,), target=target, strategy=strategy) == reference(27)


@pytest.mark.parametrize("target", TARGETS)
def test_recursion_and_stack_discipline(target):
    src = """
    int sumto(int n) {
        if (n <= 0) { return 0; }
        return n + sumto(n - 1);
    }
    """
    assert run(src, "sumto", (50,), target=target) == 50 * 51 // 2


# TOYP passes at most one double argument in registers (paper figure 2),
# so multi-double signatures run only on the three real targets.
@pytest.mark.parametrize("target", ["r2000", "m88000", "i860"])
def test_double_arguments_and_results_through_calls(target):
    src = """
    double scale(double x, double factor) { return x * factor; }
    double f(double x) { return scale(x, 3.0) + scale(x, 0.5); }
    """
    assert run(src, "f", (8.0,), target=target, kind="double") == 8.0 * 3.5


# on TOYP d[1] overlays the integer argument registers r[2]/r[3]: mixed
# int+double signatures cannot be passed (the paper's "either two integer
# parameters or one double float parameter")
@pytest.mark.parametrize("target", ["r2000", "m88000", "i860"])
def test_mixed_int_double_arguments(target):
    src = """
    double mix(int n, double x) { return (double)n * x; }
    double f(int n) { return mix(n, 2.5); }
    """
    assert run(src, "f", (7,), target=target, kind="double") == 17.5


@pytest.mark.parametrize("target", TARGETS)
def test_arrays_and_loops(target):
    src = """
    int a[32];
    int f(int n) {
        int i, s;
        for (i = 0; i < n; i++) { a[i] = i * i; }
        s = 0;
        for (i = 0; i < n; i++) { s = s + a[i]; }
        return s;
    }
    """
    n = 20
    assert run(src, "f", (n,), target=target) == sum(i * i for i in range(n))


@pytest.mark.parametrize("target", TARGETS)
def test_local_arrays_on_stack(target):
    src = """
    int f(int n) {
        int a[8];
        int i, s;
        for (i = 0; i < 8; i++) { a[i] = n + i; }
        s = 0;
        for (i = 0; i < 8; i++) { s = s + a[i] * (i + 1); }
        return s;
    }
    """
    n = 5
    expected = sum((n + i) * (i + 1) for i in range(8))
    assert run(src, "f", (n,), target=target) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_register_pressure_spill_correctness(strategy):
    """Many simultaneously-live values on the 8-register TOYP."""
    src = """
    int f(int a, int b) {
        int t1, t2, t3, t4, t5, t6, t7, t8;
        t1 = a + b;
        t2 = a - b;
        t3 = a * 2;
        t4 = b * 3;
        t5 = a + 7;
        t6 = b + 11;
        t7 = a * b;
        t8 = a - 4;
        return t1 + t2 * t3 + t4 * t5 + t6 * t7 + t8 * t1
               + (t1 - t2) * (t3 - t4) + (t5 - t6) * (t7 - t8);
    }
    """
    a, b = 13, 4
    t1, t2, t3, t4 = a + b, a - b, a * 2, b * 3
    t5, t6, t7, t8 = a + 7, b + 11, a * b, a - 4
    expected = (
        t1 + t2 * t3 + t4 * t5 + t6 * t7 + t8 * t1
        + (t1 - t2) * (t3 - t4) + (t5 - t6) * (t7 - t8)
    )
    assert run(src, "f", (a, b), target="toyp", strategy=strategy) == expected


@pytest.mark.parametrize("target", ["r2000", "m88000", "i860"])
def test_double_spills_use_pair_slots(target):
    src = """
    double f(double a, double b) {
        double t1, t2, t3, t4, t5, t6, t7, t8;
        t1 = a + b;  t2 = a - b;  t3 = a * 2.0; t4 = b * 3.0;
        t5 = a + 7.0; t6 = b + 11.0; t7 = a * b; t8 = a - 4.0;
        return t1 * t2 + t3 * t4 + t5 * t6 + t7 * t8
             + (t1 + t3) * (t5 + t7) + (t2 + t4) * (t6 + t8);
    }
    """
    a, b = 3.5, 1.25
    t = [a + b, a - b, a * 2.0, b * 3.0, a + 7.0, b + 11.0, a * b, a - 4.0]
    expected = (
        t[0] * t[1] + t[2] * t[3] + t[4] * t[5] + t[6] * t[7]
        + (t[0] + t[2]) * (t[4] + t[6]) + (t[1] + t[3]) * (t[5] + t[7])
    )
    assert run(src, "f", (a, b), target=target, kind="double") == pytest.approx(
        expected, rel=1e-15
    )


def test_global_scalars_shared_between_functions():
    src = """
    int counter;
    void bump(void) { counter = counter + 1; }
    int f(int n) {
        int i;
        counter = 0;
        for (i = 0; i < n; i++) { bump(); }
        return counter;
    }
    """
    assert run(src, "f", (9,)) == 9


def test_logical_operators_short_circuit():
    src = """
    int g;
    int bump(int v) { g = g + 1; return v; }
    int f(int a) {
        g = 0;
        if (a > 0 && bump(1)) { }
        if (a > 1000 && bump(1)) { }
        if (a > 0 || bump(1)) { }
        if (a > 1000 || bump(1)) { }
        return g;
    }
    """
    # bump runs: 1st (both operands evaluated), not 2nd, not 3rd, 4th
    assert run(src, "f", (5,)) == 2


@pytest.mark.parametrize("target", TARGETS)
def test_three_dimensional_arrays(target):
    src = """
    double cube[3][4][5];
    double f(void) {
        int i, j, k;
        double s = 0.0;
        for (i = 0; i < 3; i++) {
            for (j = 0; j < 4; j++) {
                for (k = 0; k < 5; k++) {
                    cube[i][j][k] = (double)(i * 100 + j * 10 + k);
                }
            }
        }
        for (i = 0; i < 3; i++) {
            for (j = 0; j < 4; j++) {
                for (k = 0; k < 5; k++) { s = s + cube[i][j][k]; }
            }
        }
        return s;
    }
    """
    expected = float(
        sum(
            i * 100 + j * 10 + k
            for i in range(3)
            for j in range(4)
            for k in range(5)
        )
    )
    assert run(src, "f", (), target=target, kind="double") == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_m88000_writeback_contention_correct(strategy):
    """FP and integer results arbitrating for the 88000's WB bus."""
    src = """
    double v[32];
    double f(int n) {
        int i;
        int isum = 0;
        double s = 0.0;
        for (i = 0; i < n; i++) {
            isum = isum + i * 3;
            s = s + v[i] * 2.0 + (double)isum;
        }
        return s;
    }
    """
    exe = repro.compile_c(src, "m88000", repro.CompileOptions(strategy=strategy))
    result = repro.simulate(exe, "f", args=(16,))
    isum, s = 0, 0.0
    for i in range(16):
        isum += i * 3
        s = s + 0.0 * 2.0 + float(isum)
    assert result.return_value["double"] == s


def test_chained_assignment():
    src = "int f(void) { int a; int b; a = b = 21; return a + b; }"
    assert run(src, "f", ()) == 42


def test_nested_calls_in_arguments():
    src = """
    int add(int a, int b) { return a + b; }
    int f(int x) { return add(add(x, 1), add(x, 2)); }
    """
    assert run(src, "f", (10,)) == 11 + 12


def test_assignment_value_used_in_expression():
    src = "int f(int x) { int y; return (y = x + 5) * 2 + y; }"
    assert run(src, "f", (3,)) == 8 * 2 + 8


def test_comparison_as_value():
    src = "int f(int a, int b) { int lt = a < b; int ge = a >= b; return lt * 10 + ge; }"
    assert run(src, "f", (3, 7)) == 10
    assert run(src, "f", (9, 7)) == 1


def test_deeply_nested_control_flow():
    src = """
    int f(int n) {
        int i, j, k, s;
        s = 0;
        for (i = 0; i < n; i++) {
            for (j = 0; j < i; j++) {
                for (k = 0; k < j; k++) {
                    if ((i + j + k) % 2 == 0) { s = s + 1; } else { s = s - 1; }
                }
            }
        }
        return s;
    }
    """
    def reference(n):
        s = 0
        for i in range(n):
            for j in range(i):
                for k in range(j):
                    s = s + 1 if (i + j + k) % 2 == 0 else s - 1
        return s

    assert run(src, "f", (8,), target="m88000", strategy="rase") == reference(8)


def test_negative_modulo_in_condition():
    src = """
    int f(int n) {
        int i, s;
        s = 0;
        for (i = -n; i < n; i++) {
            if (i % 3 == 0) { s = s + 1; }
        }
        return s;
    }
    """
    def reference(n):
        s = 0
        for i in range(-n, n):
            truncated = i - (abs(i) // 3) * 3 * (1 if i >= 0 else -1)
            # C semantics: i % 3 has the sign of i
            import math
            remainder = i - math.trunc(i / 3) * 3
            if remainder == 0:
                s += 1
        return s

    assert run(src, "f", (10,)) == reference(10)


# -- regressions ---------------------------------------------------------------


# a repeated expression is one shared IL node, first selected into a
# variable; once that variable is reassigned, the next use must
# recompute the value instead of reading the variable
STALE_HOME_PROGRAMS = {
    "shift": (
        """
        int f(int a, int b) {
            int t; int u;
            t = a >> 6;
            t = (b - t) + -59;
            u = a >> 6;
            return u;
        }
        """,
        (1000, 77), "int", 15,
    ),
    "constant": (
        """
        double f(double y) {
            double d0; double x;
            d0 = 0.5;
            d0 = y * 3.0;
            x = y * 0.5;
            return x;
        }
        """,
        (4.0,), "double", 2.0,
    ),
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("program", sorted(STALE_HOME_PROGRAMS))
def test_shared_node_after_its_home_is_overwritten(program, strategy, target):
    src, args, kind, expected = STALE_HOME_PROGRAMS[program]
    assert run(src, "f", args, target, strategy, kind) == expected


def test_i860_rase_livermore_k8():
    # RASE's pressure-bounded pass once kept only candidates that did
    # not raise pressure; on K8's loop body the one it kept was blocked
    # by Rule 1, so nothing could issue on any cycle
    from repro.workloads import kernel_by_id

    spec = kernel_by_id(8)
    loop, n = spec.args
    value = run(spec.source, "bench", (loop, n), "i860", "rase", "double")
    assert value == spec.reference(loop, n)


def test_code_does_not_depend_on_earlier_compiles():
    # pseudo-register ids break the allocator's ties, so they are numbered
    # per compilation, not per process.  Ids do not order an int set, but
    # a tie once went to such a set's order, which moves with the ids;
    # ties now go to the lower id
    from repro.backend.asmprinter import format_program
    from repro.il.node import PseudoReg
    from repro.workloads import kernel_by_id

    source = kernel_by_id(9).source
    options = repro.CompileOptions(strategy="ips")

    def code():
        exe = repro.compile_c(source, "toyp", options)
        return format_program(exe.machine_program)

    first = code()
    for shift in (1, 2, 3, 5, 8):
        for _ in range(shift):
            PseudoReg("int")
        repro.compile_c(kernel_by_id(1).source, "toyp", options)
        assert code() == first, f"code changed after {shift} more pseudos"


_HASH_SEED_LISTINGS = """
import repro
from repro.backend.asmprinter import format_program
from repro.workloads import kernel_by_id

for target, strategy, kernel in (
    ("toyp", "ips", 9), ("toyp", "rase", 13), ("i860", "rase", 8),
):
    exe = repro.compile_c(
        kernel_by_id(kernel).source, target,
        repro.CompileOptions(strategy=strategy),
    )
    print(format_program(exe.machine_program, explain=True))
"""


def test_code_does_not_depend_on_the_hash_seed():
    # toyp/IPS/K9 and toyp/RASE/K13 each had two codes, chosen by the
    # seed, while a spill temporary's eviction broke spill-cost ties by
    # the order of a set filled from string-keyed liveness sets;
    # i860/RASE/K8 uses both clocks, which protection edges visit in
    # sorted order
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REPRO_CACHE="0")
    listings = []
    for seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_LISTINGS],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        listings.append(proc.stdout)
    assert listings[1] == listings[0]
    assert listings[2] == listings[0]
