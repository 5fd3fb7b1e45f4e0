"""Cross-validation and unit tests for the segment JIT.

The JIT path (:mod:`repro.sim.jit`) must be *bit-identical* to the
closure interpreter — cycles, checksums, memory/cache statistics and
dynamic block counts, not approximately equal — so the core of this
file simulates the same compiled kernels with a compiling JIT and with
one whose warmup is never reached, and compares every observable field.
"""

import dis

import pytest

import repro
from repro.errors import MarionError, SimulationError
from repro.sim.cache import DirectMappedCache
from repro.maril import ast
from repro.sim.jit import SegmentJIT, Uncompilable, _TraceCodegen
from repro.workloads import kernel_by_id

from tests.helpers import simulate_oracle

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every observable a JIT run must reproduce bit-for-bit.  The
#: block-timing stats are included deliberately: identical hit counts
#: mean the JIT produced the same segment close keys and the same
#: positional event stream as the interpreter.
COMPARED_FIELDS = (
    "cycles",
    "instructions",
    "loads",
    "stores",
    "cache_hits",
    "cache_misses",
    "block_counts",
    "return_value",
    "block_cache_hits",
    "block_cache_misses",
)

#: low warmup so the scaled-down test kernels still compile their loops
WARMUP = 2

#: a warmup no test run reaches: the engine stays on the interpreter
NEVER = 10**9


def _compile(spec, target, strategy):
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        pytest.skip(f"{target}/{strategy} does not compile K{spec.id}: {error}")


def _simulate(
    executable, spec, *, scale=0.03, cache=True, oracle=False, **extra
):
    loop, n = spec.args
    n = max(4, int(n * scale))
    options = repro.SimOptions(
        cache=DirectMappedCache() if cache else None, **extra
    )
    run = simulate_oracle if oracle else repro.simulate
    return run(executable, "bench", (loop, n), options=options)


def _differential(spec, target, strategy, *, cache=True, scale=0.03):
    """Interpreted then JIT run of one kernel; both results and the
    executable.

    The block-timing memo and the JIT state live on the executable, so
    the memo is dropped between the runs (otherwise the second run sees
    more memo hits) and the JIT is seeded fresh with a low warmup."""
    executable = _compile(spec, target, strategy)
    executable._segment_jit = SegmentJIT(executable, warmup=NEVER)
    reference = _simulate(executable, spec, cache=cache, scale=scale)
    if hasattr(executable, "_block_timing"):
        del executable._block_timing
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    jitted = _simulate(executable, spec, cache=cache, scale=scale)
    return reference, jitted, executable


# -- cross-validation ---------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_jit_bit_identical_k1(target, strategy):
    spec = kernel_by_id(1)
    reference, jitted, _ = _differential(spec, target, strategy)
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(reference, field), field
    # the JIT run actually executed compiled segments; the reference
    # run never touched the JIT
    assert jitted.jit_hits > 0
    assert jitted.jit_segments > 0
    assert reference.jit_segments == reference.jit_hits == 0


@pytest.mark.parametrize("target", ("r2000", "i860"))
def test_jit_bit_identical_k7(target):
    # K7 (equation of state) has a wider loop body than K1: more views
    # per segment, and on i860 temporal (EAP) sub-operations whose
    # latch reads and writes compile alongside the register views
    spec = kernel_by_id(7)
    reference, jitted, executable = _differential(spec, target, "postpass")
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(reference, field), field
    assert jitted.jit_hits > 0
    assert jitted.jit_segments > 0
    # ...and the compiled run matches the reference interleaved model
    oracle = _simulate(executable, spec, oracle=True)
    for field in COMPARED_FIELDS:
        if not field.startswith("block_cache"):
            assert getattr(jitted, field) == getattr(oracle, field), field


@pytest.mark.parametrize("target", ("toyp", "i860"))
def test_jit_bit_identical_without_cache(target):
    # the no-cache table elides the access()/miss-mask bookkeeping, so
    # it is a distinct generated function that needs its own validation
    spec = kernel_by_id(1)
    reference, jitted, _ = _differential(
        spec, target, "postpass", cache=False
    )
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(reference, field), field
    assert jitted.jit_hits > 0


@pytest.mark.parametrize("target", ("r2000", "m88000"))
def test_jit_bit_identical_with_timing_off(target):
    # model_timing=False runs share the engine (and the JIT) with the
    # block close stubbed out; cycles must equal the instruction count
    # exactly as on the reference model
    spec = kernel_by_id(1)
    reference, jitted, _ = _differential(
        spec, target, "postpass", cache=True, scale=0.03
    )
    executable = _compile(spec, target, "postpass")
    executable._segment_jit = SegmentJIT(executable, warmup=NEVER)
    off = _simulate(executable, spec, model_timing=False)
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    on = _simulate(executable, spec, model_timing=False)
    assert on.jit_hits > 0
    for field in COMPARED_FIELDS:
        assert getattr(on, field) == getattr(off, field), field
    assert on.cycles == on.instructions == reference.instructions


def test_i860_temporal_segments_compile():
    # the EAP latches (m1..m3, a1..a3) compile as reads and writes of
    # the machine's temporal map: no K7 entry is refused, some compiled
    # functions touch a latch, and the run equals the interpreter's
    spec = kernel_by_id(7)
    reference, jitted, executable = _differential(spec, "i860", "postpass")
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(reference, field), field
    jit = executable._segment_jit
    assert jit.uncompilable == 0
    records = list(jit.functions(True).values())
    assert records and None not in records
    # a function that touches a latch binds ``tp = state.temporal``
    assert any("tp" in record[0].__code__.co_varnames for record in records)
    assert jitted.interpreted < reference.interpreted == reference.instructions


def test_generated_functions_share_one_environment():
    # every generated function, plain segment or trace, is built from
    # its code object over one shared globals dict, and keeps nothing
    # beside ``__code__`` but its probe sites
    spec = kernel_by_id(7)
    executable = _compile(spec, "r2000", "postpass")
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    for cache in (True, False):
        _simulate(executable, spec, cache=cache)
    jit = executable._segment_jit
    functions = [
        record[0]
        for cached in (False, True)
        for record in jit.functions(cached).values()
        if record is not None
    ]
    assert jit.superblocks > 0 and len(functions) > jit.superblocks
    assert len({id(fn.__globals__) for fn in functions}) == 1
    for fn in functions:
        assert isinstance(fn._jit_sites, tuple)
        for name in ("_jit_source", "_jit_name", "_jit_code"):
            assert not hasattr(fn, name), name


#: Livermore kernels whose steady state must run in generated code on
#: every target: K7 and K11 were mostly interpreted on the i860 while
#: its latches were refused, and K9 leaves the largest interpreted tail
SHARE_KERNELS = (7, 9, 11)


def test_warm_runs_interpret_under_two_percent():
    # with the default JIT_WARMUP, by the third run every hot entry is
    # compiled: what is left to the interpreter is cold code (prologues,
    # loop exits), not a refused loop body
    shares = {}
    for kernel_id in SHARE_KERNELS:
        spec = kernel_by_id(kernel_id)
        for target in TARGETS:
            for strategy in STRATEGIES:
                executable = _compile(spec, target, strategy)
                for _ in range(3):
                    result = _simulate(executable, spec, scale=0.02)
                shares[f"{target}/{strategy}/K{kernel_id}"] = (
                    result.interpreted / result.instructions
                )
    worst = max(shares, key=shares.get)
    assert shares[worst] < 0.02, (worst, shares[worst])


#: i860 kernels for the engine-vs-oracle sweep: the FP loops whose
#: steady state runs through the multiplier and adder latches
ORACLE_KERNELS = (3, 7, 8, 9, 11)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_i860_engine_matches_the_oracle(strategy):
    # the reference interleaved model (a watch= run) shares no code with
    # generated code: a warm engine run, plain and with stall
    # accounting, must reproduce its cycles, results and per-hazard
    # breakdown on kernels that advance the latches every iteration
    fields = [
        field for field in COMPARED_FIELDS
        if not field.startswith("block_cache")
    ]
    for kernel_id in ORACLE_KERNELS:
        spec = kernel_by_id(kernel_id)
        executable = _compile(spec, "i860", strategy)
        plain = _simulate(executable, spec, scale=0.01)
        traced = _simulate(executable, spec, scale=0.01, trace=True)
        oracle = _simulate(
            executable, spec, scale=0.01, oracle=True, trace=True
        )
        assert traced.interpreted < 0.02 * traced.instructions, kernel_id
        assert traced.cycle_breakdown == oracle.cycle_breakdown, kernel_id
        for field in fields:
            expected = getattr(oracle, field)
            assert getattr(plain, field) == expected, (kernel_id, field)
            assert getattr(traced, field) == expected, (kernel_id, field)


# -- division guards ----------------------------------------------------------

DIV_TRAP = """
int divloop(int n, int m) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + 100 / (m - i);
  }
  return s;
}
"""

#: the division lives in a hot *callee*: a non-looping plain segment
#: (entry to ret), where the guard is the first thing that can fail.
#: The self-loop in DIV_TRAP is chained in-function instead (see
#: test_chained_loop_raises_inline).  ``OP`` is ``/`` or ``%``.
DIV_TRAP_CALL = """
int divide(int a, int b) { return a OP b; }
int divcall(int n, int m) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + divide(100, m - i); }
  return s;
}
"""

#: the message every integer division guard raises: a constant of the
#: generated function's code object
INT_DIV_GUARD = "integer division by zero"


def _compile_source(source, target="r2000", warmup=WARMUP):
    """Compile ``source`` and attach a fresh JIT (``warmup=NEVER``
    keeps every run of the executable interpreted)."""
    executable = repro.compile_c(source, target, repro.CompileOptions())
    executable._segment_jit = SegmentJIT(executable, warmup=warmup)
    return executable


def _run_divloop(executable, n, m):
    return repro.simulate(executable, "divloop", args=(n, m))


def _run_divcall(executable, n, m):
    return repro.simulate(executable, "divcall", args=(n, m))


def _callee_record(executable):
    """The JIT table record of ``divide`` (runs without a data cache)."""
    jit = executable._segment_jit
    return jit.functions(False).get(executable.entry("divide"))


@pytest.mark.parametrize("op", ("/", "%"), ids=("div", "mod"))
@pytest.mark.parametrize("target", TARGETS)
def test_div_by_zero_raises_inline_with_identical_error(target, op):
    # the divisor hits zero long after warmup: the compiled callee's
    # guard raises inline, and the error the caller sees is exactly the
    # interpreter's
    source = DIV_TRAP_CALL.replace("OP", op)
    errors = []
    for warmup in (NEVER, WARMUP):
        executable = _compile_source(source, target, warmup=warmup)
        with pytest.raises(SimulationError) as raised:
            _run_divcall(executable, 50, 30)
        errors.append(raised.value)
    record = _callee_record(executable)
    assert record is not None
    assert INT_DIV_GUARD in record[0].__code__.co_consts
    interpreted, jitted = errors
    assert str(jitted) == str(interpreted)
    assert "integer division by zero" in str(jitted)


def test_division_errors_leave_the_entry_compiled(monkeypatch):
    # a division error fails the run and nothing else: the callee keeps
    # its compiled function however often it raises.  Traces stay off,
    # so the callee stays a plain segment with a record of its own
    monkeypatch.setattr("repro.sim.simulator.SUPERBLOCK_WARMUP", NEVER)
    source = DIV_TRAP_CALL.replace("OP", "/")
    runs = []
    for warmup in (NEVER, 1):
        executable = _compile_source(source, warmup=warmup)
        # repeated failures must not send the callee to the interpreter
        for _ in range(9):
            with pytest.raises(
                SimulationError, match="integer division by zero"
            ):
                _run_divcall(executable, 30, 10)
        runs.append(_run_divcall(executable, 30, 100))
    record = _callee_record(executable)
    assert record is not None and callable(record[0])
    interpreted, jitted = runs
    assert jitted.jit_hits > 0
    assert interpreted.jit_hits == 0
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(interpreted, field), field


def test_chained_loop_raises_inline():
    # a self-loop segment is chained in-function, so its division guard
    # raises the interpreter's exact error inline
    executable = _compile_source(DIV_TRAP)
    with pytest.raises(SimulationError, match="integer division by zero"):
        _run_divloop(executable, 50, 30)
    assert any(
        INT_DIV_GUARD in record[0].__code__.co_consts
        for record in executable._segment_jit.functions(False).values()
        if record is not None
    )
    reference = _compile_source(DIV_TRAP, warmup=NEVER)
    with pytest.raises(SimulationError, match="integer division by zero"):
        _run_divloop(reference, 50, 30)


#: a hot i860 callee that advances the multiplier latches (M1..M3)
#: and then divides by the product's integer part: a plain segment
#: whose division guard comes after a latch write
LATCH_DIV = """
int divide(int a, double x, double y) {
  int q;
  q = x * y;
  return a / q;
}
int divcall(int n, int m) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + divide(100, m - i, 1.0); }
  return s;
}
"""


def test_latch_write_then_division_raises_inline(monkeypatch):
    # the division guard of a plain segment that has already written a
    # latch (machine state, not a generated-code local) raises the
    # interpreter's error inline.  Traces stay off, so the callee stays
    # a plain segment
    monkeypatch.setattr("repro.sim.simulator.SUPERBLOCK_WARMUP", NEVER)
    messages = []
    for warmup in (NEVER, WARMUP):
        executable = _compile_source(LATCH_DIV, "i860", warmup=warmup)
        with pytest.raises(SimulationError) as raised:
            repro.simulate(executable, "divcall", args=(50, 30))
        messages.append(str(raised.value))
    jit = executable._segment_jit
    callee = jit.functions(False)[executable.entry("divide")]
    # ``tp['m1'] = value``: the latch's name loaded right before the store
    ops = list(dis.get_instructions(callee[0]))
    assert any(
        op.opname == "LOAD_CONST" and op.argval == "m1"
        and after.opname == "STORE_SUBSCR"
        for op, after in zip(ops, ops[1:])
    )
    assert messages[1] == messages[0]
    assert "integer division by zero" in messages[0]


def test_mistyped_latch_write_is_refused():
    # the interpreter stores a latch write's value as it is, so a value
    # whose static type differs from the latch's stays interpreted (no
    # machine description has one; the i860's latches are all double)
    executable = _compile_source(LATCH_DIV, "i860")
    entry = executable.entry("divide")
    codegen = _TraceCodegen(
        executable._segment_jit.translator,
        [(entry, [entry], None)], cached=False,
    )
    instr = executable.instrs[entry]
    latch = ast.NameRef("m1")
    codegen._scan_stmt(ast.AssignStmt(latch, ast.FloatLit(2.0)), instr)
    assert codegen.uses_temporal
    with pytest.raises(Uncompilable, match="mistyped"):
        codegen._scan_stmt(ast.AssignStmt(latch, ast.IntLit(2)), instr)


def test_quiet_division_guard_matches_the_interpreter():
    # a divisor that never hits zero: the guard stays quiet and the JIT
    # agrees with the interpreter on dynamic block counts and the result
    executable = _compile_source(DIV_TRAP, warmup=NEVER)
    reference = _run_divloop(executable, 40, 100)
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    jitted = _run_divloop(executable, 40, 100)
    assert jitted.jit_hits > 0
    assert jitted.block_counts == reference.block_counts
    assert jitted.return_value == reference.return_value


#: every sign pair of dividend and divisor, ``INT_MIN / -1``,
#: ``INT_MIN % -1`` and constant divisors (``% 1``, ``/ 10``, ``% -3``):
#: generated code divides inline where neither operand is negative and
#: through the interpreter's truncating helpers otherwise
DIV_SIGNS = """
int num[8], den[8];
int divsigns(int loop) {
  int l; int i; int j; int s;
  num[0] = 7; num[1] = -7; num[2] = 0; num[3] = -2147483647 - 1;
  num[4] = 2147483647; num[5] = 5; num[6] = -9; num[7] = 1;
  den[0] = 2; den[1] = -2; den[2] = 1; den[3] = -1;
  den[4] = 3; den[5] = -3; den[6] = 2147483647; den[7] = -2147483647 - 1;
  s = 0;
  for (l = 0; l < loop; l = l + 1) {
    for (i = 0; i < 8; i = i + 1) {
      for (j = 0; j < 8; j = j + 1) {
        s = s * 31 + num[i] / den[j] + num[i] % den[j];
      }
      s = s + num[i] % 1 + num[i] / 10 + num[i] % -3;
    }
  }
  return s;
}
"""


def _matches_the_interpreter(source, function, target, cache):
    """Run ``function(4)`` of ``source`` interpreted and through
    generated code; every compared field must agree."""
    runs = []
    for warmup in (NEVER, WARMUP):
        executable = _compile_source(source, target, warmup=warmup)
        runs.append(repro.simulate(
            executable, function, args=(4,), options=repro.SimOptions(
                cache=DirectMappedCache() if cache else None
            ),
        ))
    interpreted, jitted = runs
    assert jitted.jit_hits > 0
    for field in COMPARED_FIELDS:
        assert getattr(jitted, field) == getattr(interpreted, field), field


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_integer_division_matches_the_interpreter(target, cache):
    _matches_the_interpreter(DIV_SIGNS, "divsigns", target, cache)


#: results just outside signed 32 bits, where generated code's range
#: check must send the value through the mask: INT_MAX + 1,
#: INT_MIN - 1, INT_MIN * -1, -INT_MIN, ``<< 31``, and ``int()`` of a
#: double beyond 2^31 (both signs, and past 2^32); ``~`` stays in range.
#: Each result is read through ``/ 3``: a sum or product of an
#: unwrapped value wraps to the same bits later, and two results off by
#: 2^31 each cancel in a sum, but their quotients do not
WRAP_EDGES = """
int a[8];
double d[4];
int wraps(int loop) {
  int l; int i; int s; int x;
  a[0] = 2147483647; a[1] = -2147483647 - 1; a[2] = -1; a[3] = 1;
  a[4] = 31; a[5] = 3; a[6] = -5; a[7] = 0;
  d[0] = 3000000000.5; d[1] = -3000000000.5;
  d[2] = 6442450945.0; d[3] = -2147483649.0;
  s = 0;
  for (l = 0; l < loop; l = l + 1) {
    for (i = 0; i < 4; i = i + 1) {
      x = a[0] + a[3]; s = s * 31 + x / 3;
      x = a[1] - a[3]; s = s * 31 + x / 3;
      x = a[1] * a[2]; s = s * 31 + x / 3;
      x = -a[1]; s = s * 31 + x / 3;
      x = ~a[i]; s = s * 31 + x / 3;
      x = a[i + 3] << a[4]; s = s * 31 + x / 3;
      x = d[i]; s = s * 31 + x / 3;
    }
  }
  return s;
}
"""


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_wraps_at_the_edges_match_the_interpreter(target, cache):
    _matches_the_interpreter(WRAP_EDGES, "wraps", target, cache)


# -- warmup threshold ---------------------------------------------------------

HOT_LOOP = """
int hot(int n) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
"""


def _run_hot(executable, n, **extra):
    return repro.simulate(
        executable, "hot", args=(n,), options=repro.SimOptions(**extra)
    )


def test_cold_entries_are_not_compiled():
    executable = _compile_source(HOT_LOOP, warmup=1000)
    result = _run_hot(executable, 100)
    assert result.jit_segments == 0
    assert result.jit_hits == 0


def test_entries_compile_at_the_threshold():
    executable = _compile_source(HOT_LOOP, warmup=5)
    result = _run_hot(executable, 100)
    assert result.jit_segments > 0
    assert result.jit_hits > 0


def test_warmup_accumulates_across_runs():
    # the SegmentJIT lives on the executable: dispatch counts from one
    # run carry into the next, so repeated short runs still warm up
    executable = _compile_source(HOT_LOOP, warmup=25)
    first = _run_hot(executable, 15)
    assert first.jit_segments == 0
    second = _run_hot(executable, 15)
    assert second.jit_segments > 0
    # and compiled code persists: a third run dispatches straight into it
    third = _run_hot(executable, 15)
    assert third.jit_segments == 0
    assert third.jit_hits > 0


# -- interaction with other simulator modes -----------------------------------


def test_jit_inactive_on_the_reference_timing_path():
    # only a watch= run takes the reference interleaved model, and it
    # never dispatches the JIT; budgeted and traced runs stay on the
    # engine, JIT and block-timing memo included, cache on and off
    executable = _compile_source(HOT_LOOP, warmup=1)
    watched = simulate_oracle(executable, "hot", (100,))
    assert watched.jit_segments == watched.jit_hits == 0
    assert watched.interpreted == watched.instructions
    assert watched.block_cache_hits == watched.block_cache_misses == 0
    for cache in (False, True):
        plain = _run_hot(executable, 100, cache=cache)
        for extra in (
            {"max_cycles": plain.cycles},
            {"trace": True},
            {"max_cycles": plain.cycles, "trace": True},
        ):
            result = _run_hot(executable, 100, cache=cache, **extra)
            assert result.cycles == plain.cycles
            assert result.jit_hits > 0
            assert result.block_cache_hits + result.block_cache_misses > 0


def test_jit_active_under_trace():
    # trace=True does not force the reference model: memo records carry
    # per-hazard stall deltas, so traced runs keep the JIT and agree
    # with an untraced run on the cycle count
    executable = _compile_source(HOT_LOOP, warmup=1)
    traced = _run_hot(executable, 100, trace=True)
    assert traced.jit_hits > 0
    assert traced.cycle_breakdown is not None
    assert sum(traced.cycle_breakdown.values()) == traced.cycles - 1
    plain = _run_hot(executable, 100)
    assert plain.cycles == traced.cycles


def test_jit_off_reports_zero_counters():
    executable = _compile_source(HOT_LOOP, warmup=NEVER)
    result = _run_hot(executable, 100)
    assert result.jit_segments == result.jit_hits == 0
    assert result.jit_active_segments == 0
    assert result.interpreted == result.instructions
