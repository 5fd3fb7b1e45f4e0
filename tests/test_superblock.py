"""Differential and unit tests for trace superblocks.

A trace superblock stitches several compiled segments into one
generated function with the block-timing probe inlined, so it must be
*bit-identical* to the plain segment JIT (which in turn matches the
closure interpreter): every probe closes exactly the same per-segment
timing unit, in the same order, as the dispatch loop would.  The core
of this file simulates branchy loop kernels with the engine in three
set-ups — interpreter only (a JIT whose warmup is never reached),
plain segments (an edge warmup that is never reached), and segments
plus superblocks — and compares every observable field.
"""

import pytest

import repro
from repro.cache import configure
from repro.errors import SimulationError
from repro.sim.cache import DirectMappedCache
from repro.sim.jit import _BASE_ENV, SUPERBLOCK_WARMUP, SegmentJIT
from repro.sim.simulator import Simulator
from repro.targets import clear_target_cache
from repro.workloads import kernel_by_id

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every observable a superblock run must reproduce bit-for-bit; the
#: block-timing stats are included deliberately — identical hit+miss
#: totals mean the inlined probes closed the same memo keys as the
#: dispatch loop
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

#: low segment warmup so traces can form within small test loops (the
#: edge profile still needs SUPERBLOCK_WARMUP hot executions)
WARMUP = 2

#: iterations comfortably past segment warmup + edge warmup
HOT = SUPERBLOCK_WARMUP * 3

#: a warmup no test run reaches
NEVER = 10**9

#: an if-diamond inside a loop: the loop body spans several segments,
#: the trace follows one arm and the other arm side-exits — the shape
#: plain segments cannot chain
DIAMOND = """
double bench(int loop, int n) {
  int l; int i; double q;
  q = 0.0;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) {
      if (i & 1) q = q + 1.5;
      else q = q - 0.5;
    }
  }
  return q;
}
"""

#: memory traffic through the diamond: loads, stores and data-cache
#: misses must survive the trace's load/flush scheduling
DIAMOND_MEM = """
int a[128];
int bench(int loop, int n) {
  int l; int i; int s;
  s = 0;
  for (i = 0; i < 128; i++) a[i] = i * 3;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) {
      if (a[i & 127] > 190) s = s + a[i & 127];
      else a[i & 127] = s & 255;
    }
  }
  return s;
}
"""

#: a division inside the hot arm: the trap fires long after the trace
#: is promoted, and the trace must raise the interpreter's exact error
#: inline
DIV_DIAMOND = """
int bench(int n, int m) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) {
    if (i & 1) s = s + 100 / (m - i);
    else s = s - 1;
  }
  return s;
}
"""

#: a loop nest whose inner loop is one segment that jumps back to its own
#: entry: that segment runs as its own looping function, and a trace
#: through the outer loop that took it in would run one inner iteration
#: and side-exit at its back-edge on every outer iteration
NEST = """
int bench(int loop, int n) {
  int l; int i; int s;
  s = 0;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) s = s + i * l;
  }
  return s;
}
"""

#: the Livermore kernels' random-number generator: ``if (v < 0)`` is a
#: forward branch to a later pc of the same segment, taken on about
#: half of all calls
RND = """
int seed;
double x[256], y[256], z[256];

double rnd(void) {
  int v;
  seed = seed * 1103515245 + 12345;
  v = seed;
  if (v < 0) { v = -v; }
  return (double)(v % 10000) / 10000.0 + 0.01;
}
"""

#: a loop nest that stores ``rnd()``; n stays within the arrays
RND_LOOP = RND + """
double bench(int loop, int n) {
  int l; int i;
  seed = 5;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) { x[i] = rnd(); }
  }
  return x[0] + x[n - 1];
}
"""

#: a loop that calls ``rnd()`` from three sites, as the Livermore init
#: loops do: its trace enters the one callee three times
RND_THREE = RND + """
double bench(int loop, int n) {
  int l; int i;
  seed = 5;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) { x[i] = rnd(); y[i] = rnd(); z[i] = rnd(); }
  }
  return x[0] + y[n - 1] + z[n / 2];
}
"""

#: doubles kept in the integer register pairs of TOYP and the 88000,
#: carrying -0.0, a NaN from inf - inf, a subnormal and 1e300 through a
#: joined forward branch (``if (i & 4)`` in ``pick``), an in-trace call
#: and an if/else that keeps the NaN out of the sum and whose cold arm
#: side-exits; every value is also stored, so the final memory holds its
#: exact bits
SPECIALS = """
double v[4], w[8];

double pick(int i) {
  double d;
  d = v[i & 3];
  if (i & 4) d = -d;
  return d;
}

double bench(int loop, int n) {
  int l; int i; int k; double s;
  v[0] = 0.0 * -1.0;
  v[1] = 1e300;
  s = v[1] * 1e300;
  v[2] = s - s;
  v[3] = 1e-300 * 1e-10;
  s = 0.0; k = 0;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) {
      w[i & 7] = pick(i);
      if ((i & 3) == 2) k = k + i;
      else s = s + w[i & 7] * 1e-290;
    }
  }
  return s + k;
}
"""

#: a loop whose trace enters ``leaf``, which moves the stack pointer to
#: allocate its frame: its locals lie at the offsets from the moved
#: stack pointer where the caller's lie from the old one, so an address
#: computed before the call must not be reused inside it
FRAMES = """
int leaf(int a) {
  int x[4];
  x[0] = a; x[1] = a * 3; x[2] = x[0] + x[1]; x[3] = x[2] - a;
  return x[3] + x[1];
}

int bench(int loop, int n) {
  int y[4]; int l; int i; int s;
  s = 0;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) {
      y[0] = i; y[1] = s & 255;
      s = s + leaf(i) + y[0] + y[1];
    }
  }
  return s;
}
"""


def _compile(source, target="r2000", strategy="postpass"):
    return repro.compile_c(
        source, target, repro.CompileOptions(strategy=strategy)
    )


def _run(executable, args, *, cache=True):
    return repro.simulate(
        executable,
        "bench",
        args=args,
        options=repro.SimOptions(
            cache=DirectMappedCache() if cache else None
        ),
    )


def _run_state(executable, args, patch, **options):
    """A run and its final register units (zero words dropped: a unit
    never written reads as zero) and memory."""
    states = []
    init = Simulator._init_state

    def capture(self, *init_args):
        states.append(init(self, *init_args))
        return states[-1]

    patch.setattr(Simulator, "_init_state", capture)
    result = repro.simulate(
        executable, "bench", args=args, options=repro.SimOptions(**options)
    )
    units = {unit: word for unit, word in states[-1].units.items() if word}
    return result, (units, bytes(states[-1].memory))


def _interpreted(executable, args, *, cache=True):
    """A run that never leaves the closure interpreter."""
    _fresh(executable, warmup=NEVER)
    return _run(executable, args, cache=cache)


def _fresh(executable, warmup=WARMUP):
    """Reset the executable's JIT and timing memo between engines."""
    _cold_memo(executable)
    executable._segment_jit = SegmentJIT(executable, warmup=warmup)


def _cold_memo(executable):
    """Drop the block-timing memo so hit/miss stats start from zero —
    required when comparing runs that share an executable (the memo
    persists across runs by design)."""
    if hasattr(executable, "_block_timing"):
        del executable._block_timing


# -- cross-validation ---------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_superblock_bit_identical_diamond(target, strategy, monkeypatch):
    executable = _compile(DIAMOND, target, strategy)
    reference = _interpreted(executable, (3, HOT))
    with monkeypatch.context() as patch:
        # plain segments only: no taken edge ever gets hot enough to
        # trigger trace selection
        patch.setattr("repro.sim.simulator.SUPERBLOCK_WARMUP", NEVER)
        _fresh(executable)
        segments = _run(executable, (3, HOT))
    _fresh(executable)
    traced = _run(executable, (3, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(segments, field) == getattr(reference, field), field
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced.jit_superblocks > 0
    assert traced.jit_side_exits > 0
    assert segments.jit_superblocks == 0
    assert segments.jit_side_exits == 0


@pytest.mark.parametrize("target", ("r2000", "m88000"))
def test_superblock_bit_identical_memory_traffic(target):
    executable = _compile(DIAMOND_MEM, target)
    reference = _interpreted(executable, (3, HOT))
    _fresh(executable)
    traced = _run(executable, (3, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced.jit_superblocks > 0
    assert reference.loads > 0 and reference.stores > 0


def test_side_exits_reenter_the_dispatch_loop():
    # the alternating arm means roughly every other iteration leaves
    # the trace through a side exit; both arms' work must be identical
    # to the interpreter's, and the final pass exits through the loop
    # condition — also a side exit
    executable = _compile(DIAMOND)
    _fresh(executable)
    traced = _run(executable, (2, HOT))
    assert traced.jit_superblocks > 0
    assert traced.jit_side_exits > 0
    reference = _interpreted(_compile(DIAMOND), (2, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field


@pytest.mark.parametrize("target", TARGETS)
def test_traces_stop_before_an_inner_loop(target):
    executable = _compile(NEST, target)
    _fresh(executable)
    traced = _run(executable, (HOT, 4))
    jit = executable._segment_jit
    translator = jit.translator
    inner = {
        entry
        for entry in range(len(translator.instrs))
        if translator.trace_successor(entry, []) == (entry, "goto")
    }
    assert inner
    for head, _ in jit.edges:
        assert not set((jit._select_trace(head) or [])[1:]) & inner
    # the outer loop's trace had nothing but the inner loop to close
    # its back-edge through, so none forms and nothing side-exits
    assert traced.jit_side_exits == 0
    reference = _interpreted(_compile(NEST, target), (HOT, 4))
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_forward_branch_joins_inside_the_trace(target, cache):
    # rnd()'s taken forward branch stays in generated code: the trace
    # only leaves when the inner loop ends, once per outer iteration
    executable = _compile(RND_LOOP, target)
    _fresh(executable)
    traced = _run(executable, (3, HOT), cache=cache)
    reference = _interpreted(
        _compile(RND_LOOP, target), (3, HOT), cache=cache
    )
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced.jit_superblocks > 0
    assert traced.jit_side_exits <= 3


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_forward_branch_target_is_never_dispatched(target, cache, monkeypatch):
    # with plain segments only, rnd()'s join target runs inside rnd()'s
    # own function on both arms, so the dispatch loop never warms it
    monkeypatch.setattr("repro.sim.simulator.SUPERBLOCK_WARMUP", NEVER)
    executable = _compile(RND_LOOP, target)
    _fresh(executable)
    segments = _run(executable, (3, HOT), cache=cache)
    reference = _interpreted(
        _compile(RND_LOOP, target), (3, HOT), cache=cache
    )
    for field in COMPARED_FIELDS:
        assert getattr(segments, field) == getattr(reference, field), field
    table = executable._segment_jit.functions(cache)
    assert table.get(executable.labels["rnd"]) is not None
    assert executable.labels["rnd.L2"] not in table


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_trace_calls_one_function_from_several_sites(target, cache):
    executable = _compile(RND_THREE, target)
    _fresh(executable)
    traced = _run(executable, (3, HOT), cache=cache)
    reference = _interpreted(
        _compile(RND_THREE, target), (3, HOT), cache=cache
    )
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced.jit_superblocks > 0
    # the loop's trace enters rnd() once per call site
    jit = executable._segment_jit
    traces = [jit._select_trace(head) or [] for head, _ in jit.edges]
    rnd = executable.labels["rnd"]
    assert max(entries.count(rnd) for entries in traces) == 3


@pytest.mark.parametrize("budget", (None, 10**8))
@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", ("toyp", "m88000"))
def test_double_values_keep_their_bits(target, cache, budget, monkeypatch):
    # register views keep the values they were computed as; their words
    # are produced at flushes, back-edges, joins and word reads, and the
    # result, every register unit and memory match the interpreter's to
    # the bit.  A cycle budget arms the watchdog, whose fuse stops the
    # looping trace at its head every few hundred instructions
    executable = _compile(SPECIALS, target)
    runs = []
    for warmup in (NEVER, WARMUP):
        _fresh(executable, warmup=warmup)
        runs.append(_run_state(
            executable, (3, HOT), monkeypatch, max_cycles=budget,
            cache=DirectMappedCache() if cache else None,
        ))
    (reference, final), (traced, traced_final) = runs
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced_final == final
    assert traced.jit_superblocks > 0 and traced.jit_side_exits > 0
    jit = executable._segment_jit
    pick = executable.labels["pick"]
    traces = [jit._select_trace(head) or [] for head, _ in jit.edges]
    assert any(pick in entries for entries in traces)


@pytest.mark.parametrize("cache", (True, False))
@pytest.mark.parametrize("target", TARGETS)
def test_callee_frame_addresses_are_not_reused(target, cache, monkeypatch):
    executable = _compile(FRAMES, target)
    runs = []
    for warmup in (NEVER, WARMUP):
        _fresh(executable, warmup=warmup)
        runs.append(_run_state(
            executable, (3, HOT), monkeypatch,
            cache=DirectMappedCache() if cache else None,
        ))
    (reference, final), (traced, traced_final) = runs
    for field in COMPARED_FIELDS:
        assert getattr(traced, field) == getattr(reference, field), field
    assert traced_final == final
    jit = executable._segment_jit
    leaf = executable.labels["leaf"]
    traces = [jit._select_trace(head) or [] for head, _ in jit.edges]
    assert any(leaf in entries for entries in traces)


def test_warm_run_keeps_double_registers_as_values(monkeypatch):
    # toyp/rase/K8 at the benchmark's scale keeps its doubles in integer
    # register pairs.  Generated code that converted at every double
    # access made 59,644 pack calls in a warm run; values kept in the
    # form they were computed in need at most a third of them
    spec = kernel_by_id(8)
    loop, n = spec.args
    args = (loop, max(4, int(n * 0.1)))
    executable = _compile(spec.source, "toyp", "rase")
    repro.simulate(executable, "bench", args=args)
    calls = []
    for name in ("_pk_p", "_pk_d"):
        codec = _BASE_ENV[name]
        monkeypatch.setitem(
            _BASE_ENV, name, lambda *a, _c=codec: calls.append(1) or _c(*a)
        )
    warm = repro.simulate(executable, "bench", args=args)
    assert warm.jit_hits > 0 and warm.interpreted < warm.instructions // 50
    assert len(calls) <= 59_644 // 3


def test_trap_in_promoted_trace_raises_the_interpreter_error():
    # m - i hits zero at i = m (odd), long after segment warmup and
    # trace promotion: the generated trace must raise the exact error
    # the interpreter raises, at the same instruction
    n, m = HOT * 2, HOT + 1 if (HOT + 1) % 2 else HOT + 3
    reference = _compile(DIV_DIAMOND)
    with pytest.raises(SimulationError) as interp_error:
        _interpreted(reference, (n, m))
    executable = _compile(DIV_DIAMOND)
    _fresh(executable)
    with pytest.raises(SimulationError) as traced_error:
        _run(executable, (n, m))
    assert str(traced_error.value) == str(interp_error.value)
    assert executable._segment_jit.superblocks > 0


# -- promotion mechanics ------------------------------------------------------


def _promote(executable, args=(3, HOT)):
    """Run until at least one trace is installed; returns (jit, head)."""
    _fresh(executable)
    result = _run(executable, args)
    assert result.jit_superblocks > 0
    jit = executable._segment_jit
    for entry, record in jit.functions(True).items():
        if record is not None and record[2]:
            return jit, entry
    raise AssertionError("no promoted trace head found")


def test_traces_carry_inline_division_guards():
    # traces form on every loop shape here, and a division inside one
    # compiles to a guard that raises the interpreter's error inline
    guarded = []
    for source, args in (
        (DIAMOND, (3, HOT)),
        (DIAMOND_MEM, (3, HOT)),
        # m - i never reaches zero: the guard is emitted, never fired
        (DIV_DIAMOND, (HOT * 2, HOT * 4 + 1)),
    ):
        executable = _compile(source)
        _fresh(executable)
        assert _run(executable, args).jit_superblocks > 0
        traces = [
            record[0]
            for record in executable._segment_jit.functions(True).values()
            if record is not None and record[2]
        ]
        assert traces
        guarded.extend(
            "integer division by zero" in fn.__code__.co_consts
            for fn in traces
        )
    # the division guard sits inside a trace
    assert any(guarded)


def test_refused_trace_head_goes_to_the_interpreter():
    # a trace replaces its head's plain record outright, so a head whose
    # record is ``None`` (what a refused entry gets) has nothing compiled
    # to fall back to: the interpreter runs it from then on
    executable = _compile(DIAMOND)
    jit, head = _promote(executable)
    jit.functions(True)[head] = None
    # and the run still produces correct results, with the head left
    # to the interpreter
    _cold_memo(executable)
    after = _run(executable, (3, HOT))
    assert jit.functions(True)[head] is None
    reference = _interpreted(_compile(DIAMOND), (3, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(after, field) == getattr(reference, field), field


def test_promotion_is_attempted_once_per_head():
    executable = _compile(DIAMOND)
    jit, head = _promote(executable)
    built = jit.superblocks
    # the head is decided: further hot edges cannot rebuild it
    assert not jit.build_superblock(head, True)
    assert jit.superblocks == built


def test_trace_functions_survive_export_and_preload():
    # export() round-trips installed traces through the artifact-cache
    # payload form
    executable = _compile(DIAMOND)
    jit, _ = _promote(executable)
    _cold_memo(executable)
    reference = _run(executable, (3, HOT))
    payload = jit.export()
    clone = _compile(DIAMOND)
    clone._segment_jit = SegmentJIT(clone, warmup=WARMUP)
    clone._segment_jit.preload(payload)
    warm = _run(clone, (3, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(warm, field) == getattr(reference, field), field
    assert warm.jit_superblocks == 0  # nothing rebuilt
    assert clone._segment_jit.sb_preloaded > 0
    assert clone._segment_jit.compiled == 0


# -- artifact-cache round trip ------------------------------------------------


@pytest.fixture
def store(tmp_path):
    active = configure(root=tmp_path, enabled=True)
    clear_target_cache()
    yield active
    clear_target_cache()
    configure()


def test_superblock_disk_preload_round_trip(store):
    first = _compile(DIAMOND)
    first._segment_jit = SegmentJIT(first, warmup=WARMUP)
    reference = _run(first, (3, HOT))
    assert first._segment_jit.superblocks > 0

    # "new process": a fresh executable straight off the disk preloads
    # both the plain segments and the promoted traces
    trace = repro.Trace("warm")
    with repro.tracing(trace):
        second = _compile(DIAMOND)
        assert not hasattr(second, "_segment_jit")
        warm = _run(second, (3, HOT))
    # the timing memo is preloaded too, so the hit/miss split shifts
    # (all hits) while the architectural observables stay identical
    for field in COMPARED_FIELDS:
        if field.startswith("block_cache"):
            continue
        assert getattr(warm, field) == getattr(reference, field), field
    assert warm.block_cache_misses == 0
    assert warm.jit_superblocks == 0
    assert second._segment_jit.sb_preloaded > 0
    assert second._segment_jit.compiled == 0
    # executable, JIT code and timing memo all came off the disk
    for layer in ("exe", "jit", "timing"):
        assert trace.counters[f"cache.{layer}.hit"] == 1, layer


# -- configuration ------------------------------------------------------------


def test_superblock_off_reports_zero_counters(monkeypatch):
    monkeypatch.setattr("repro.sim.simulator.SUPERBLOCK_WARMUP", NEVER)
    executable = _compile(DIAMOND)
    _fresh(executable)
    result = _run(executable, (3, HOT))
    assert result.jit_superblocks == 0
    assert result.jit_side_exits == 0
    assert result.jit_hits > 0  # the plain segment JIT still ran
