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
from repro.sim.jit import (
    MAX_DEOPTS,
    SUPERBLOCK_WARMUP,
    JitDeopt,
    SegmentJIT,
)
from repro.targets import clear_target_cache

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
#: is promoted, and the trace must surface the interpreter's exact
#: error (looping traces commit effects up front, so guards raise the
#: real error inline rather than deopting)
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


def _interpreted(executable, args):
    """A run that never leaves the closure interpreter."""
    _fresh(executable, warmup=NEVER)
    return _run(executable, args)


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
    assert traced.jit_deopts == 0
    if target != "i860":  # temporal sub-operations refuse translation
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
    for (flag, entry), fallback in jit._sb_fallback.items():
        if flag == 1:
            return jit, entry
    raise AssertionError("no promoted trace head found")


def test_promotion_stashes_the_plain_segment():
    executable = _compile(DIAMOND)
    jit, head = _promote(executable)
    record = jit.functions(True)[head]
    assert record is not None and record[2]  # installed trace
    fallback = jit.segment_fallback(head, True)
    assert fallback is not None and not fallback[2]  # plain segment


def test_blacklisted_trace_falls_back_to_the_segment():
    # MAX_DEOPTS strikes against a trace head restore the stashed plain
    # segment instead of interpreting the entry forever
    executable = _compile(DIAMOND)
    jit, head = _promote(executable)
    for _ in range(MAX_DEOPTS):
        jit.note_deopt(head, True, JitDeopt(()), {})
    record = jit.functions(True)[head]
    assert record is not None and not record[2]  # plain segment again
    assert (1, head) not in jit._sb_fallback
    # and the run still produces correct results on the fallback
    _cold_memo(executable)
    after = _run(executable, (3, HOT))
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
    # export() round-trips installed traces (and their stashed plain
    # fallbacks) through the artifact-cache payload form
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
    # blacklisting a dispatched preloaded trace restores its exported
    # fallback, materialized on demand
    warm_jit = clone._segment_jit
    head = next(entry for flag, entry in warm_jit._sb_fallback if flag)
    assert not callable(warm_jit._sb_fallback[(1, head)][0])
    for _ in range(MAX_DEOPTS):
        warm_jit.note_deopt(head, True, JitDeopt(()), {})
    assert not warm_jit.functions(True)[head][2]
    _cold_memo(clone)
    plain = _run(clone, (3, HOT))
    for field in COMPARED_FIELDS:
        assert getattr(plain, field) == getattr(reference, field), field


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
