"""Tests for the digest-free timing transition chain.

The chain hands generated code the block-timing memo's per-segment
transition tables so warm boundaries commit timing with one int-keyed
dict lookup.  It must be *bit-identical* to the
``close()`` call path — same memo, same records — which ``trace=True``
runs take for every boundary, and the engine as a whole must match the
reference interleaved model: the sweep here compares them on the
target × strategy grid, with and without a data cache, for plain,
traced, timing-off and ``max_cycles``-budgeted runs.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.backend.insts import Imm, Reg
from repro.errors import MarionError, SimulationTimeout
from repro.machine.registers import PhysReg
from repro.sim import jit, simulator
from repro.sim.blockcache import BlockTimingCache, transition_key
from repro.sim.cache import DirectMappedCache
from repro.sim.jit import SegmentJIT

from tests.helpers import build as instr, simulate_oracle

import repro
from repro.workloads import kernel_by_id

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every architectural observable the engine must reproduce bit-for-bit
COMPARED_FIELDS = (
    "cycles",
    "instructions",
    "loads",
    "stores",
    "cache_hits",
    "cache_misses",
    "block_counts",
    "return_value",
)

#: the memo's own counters: a boundary committed by a chained probe
#: inside generated code and one committed by ``close()`` are credited
#: identically
MEMO_FIELDS = ("block_cache_hits", "block_cache_misses")

#: the sweep program: an if-diamond over a global array (loads, stores,
#: cold data-cache misses) with a call and double arithmetic in its
#: arms — enough work for segments to compile, traces to promote and
#: side-exit, and every stall kind to show up on some target
SWEEP = """
double a[256];

double damp(double x, int k) { return x * 0.5 + k; }

double bench(int loop, int n) {
  int l; int i; int hits; double q;
  q = 0.0;
  hits = 0;
  for (i = 0; i < 256; i++) a[i] = i * 0.25;
  for (l = 0; l < loop; l++) {
    for (i = 0; i < n; i++) {
      if (a[(i * 7) & 255] > 20.0) {
        q = q + a[(i * 7) & 255];
        hits = hits + 1;
      } else a[(i * 7) & 255] = damp(q, i);
    }
  }
  return q + hits;
}
"""
SWEEP_ARGS = (2, 120)


def _compile(spec, target, strategy):
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        pytest.skip(f"{target}/{strategy} does not compile K{spec.id}: {error}")


def _simulate(spec, target, strategy, scale=0.03, oracle=False, **extra):
    # a fresh executable per run: the timing memo and JIT code cache
    # live on the executable, so sharing one would let configurations
    # warm each other up and mask divergence in the memo counters
    executable = _compile(spec, target, strategy)
    loop, n = spec.args
    n = max(4, int(n * scale))
    options = repro.SimOptions(cache=DirectMappedCache(), **extra)
    run = simulate_oracle if oracle else repro.simulate
    return run(executable, "bench", (loop, n), options=options)


def _outcome(executable, cache, oracle=False, **extra):
    """One sweep run's result, or the :class:`SimulationTimeout` it
    raised."""
    options = repro.SimOptions(
        cache=DirectMappedCache() if cache else None, **extra
    )
    run = simulate_oracle if oracle else repro.simulate
    try:
        return run(executable, "bench", SWEEP_ARGS, options=options)
    except SimulationTimeout as timeout:
        return timeout


# -- differential sweep -------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_chain_bit_identical_grid(target, strategy):
    """The engine (memo, segment JIT, trace superblocks, timing chain)
    and the reference interleaved model agree on every architectural
    observable, the stall breakdown and whether the watchdog fires, for
    plain, traced, timing-off and budgeted runs with the data cache on
    and off.  One executable serves every run, so later engine runs
    start from a warm memo and warm compiled code."""
    executable = repro.compile_c(
        SWEEP, target, repro.CompileOptions(strategy=strategy)
    )
    mismatches = []
    for cache in (True, False):
        first = _outcome(executable, cache)
        length, count = first.cycles, first.instructions
        variants = (
            ({}, False),
            ({"trace": True}, False),
            ({"model_timing": False}, False),
            ({"max_cycles": length - 1}, True),
            ({"max_cycles": length, "trace": True}, False),
            ({"max_cycles": length + 1}, False),
            ({"max_cycles": count - 1, "model_timing": False}, True),
        )
        for extra, raises in variants:
            where = (cache, tuple(sorted(extra.items())))
            engine = _outcome(executable, cache, **extra)
            oracle = _outcome(executable, cache, oracle=True, **extra)
            outcomes = (engine, oracle)
            if any(
                isinstance(outcome, SimulationTimeout) != raises
                for outcome in outcomes
            ):
                mismatches.append((where, "raise decision"))
            elif raises:
                budget = extra["max_cycles"]
                if any(outcome.cycle <= budget for outcome in outcomes):
                    mismatches.append((where, "raised within budget"))
            else:
                for field in COMPARED_FIELDS + ("cycle_breakdown",):
                    if getattr(engine, field) != getattr(oracle, field):
                        mismatches.append((where, field))
                lookups = engine.block_cache_hits + engine.block_cache_misses
                if extra.get("model_timing", True) and not lookups:
                    mismatches.append((where, "engine skipped the memo"))
                if not engine.jit_hits:
                    mismatches.append((where, "engine skipped the JIT"))
    assert mismatches == []


@pytest.mark.parametrize("target", TARGETS)
def test_segment_cap_matches_the_oracle(target, monkeypatch):
    """A segment cap below the kernels' block lengths: the dispatch loop
    closes interpreted segments at the cap (transfer -1), and the
    translator refuses every entry whose walk reaches the cap before a
    transfer, so those entries stay interpreted.  Every run still
    equals the reference interleaved model, which has no segments."""
    monkeypatch.setattr(simulator, "SEGMENT_CAP", 5)
    monkeypatch.setattr(jit, "SEGMENT_CAP", 5)
    variants = (
        {},
        {"cache": True},
        {"cache": True, "trace": True},
        {"model_timing": False},
    )
    mismatches = []
    for kernel in (1, 7, 13):
        spec = kernel_by_id(kernel)
        executable = _compile(spec, target, "rase")
        executable._segment_jit = SegmentJIT(executable, warmup=2)
        loop, n = spec.args
        args = (loop, max(4, int(n * 0.03)))
        for extra in variants:
            options = repro.SimOptions(**extra)
            oracle = simulate_oracle(executable, "bench", args, options)
            for run in range(3):
                engine = repro.simulate(
                    executable, "bench", args, options=options
                )
                where = (kernel, tuple(extra), run)
                for field in COMPARED_FIELDS + ("cycle_breakdown",):
                    if getattr(engine, field) != getattr(oracle, field):
                        mismatches.append((where, field))
                if not engine.interpreted:
                    mismatches.append((where, "capped entries compiled"))
    assert mismatches == []


def test_chain_on_off_share_memo_counters():
    """A ``trace=True`` run withholds the chain's transition tables, so
    every boundary goes through ``close()``; a plain run commits warm
    boundaries inside generated code.  Both produce identical memo
    hit/miss totals — a chained probe hit is credited exactly like a
    ``close()`` hit."""
    spec = kernel_by_id(1)
    on = _simulate(spec, "r2000", "postpass")
    off = _simulate(spec, "r2000", "postpass", trace=True)
    for field in COMPARED_FIELDS + MEMO_FIELDS:
        assert getattr(on, field) == getattr(off, field), field
    # both actually consulted the memo
    assert on.block_cache_hits + on.block_cache_misses > 0


def test_k7_wide_loop_bit_identical():
    # K7 (equation of state) carries more live producers across the back
    # edge — a harder digest/transition case than K1
    spec = kernel_by_id(7)
    reference = _simulate(spec, "r2000", "postpass", oracle=True)
    for extra in ({}, {"trace": True}):  # chain on, chain withheld
        run = _simulate(spec, "r2000", "postpass", **extra)
        for field in ("cycles", "instructions", "return_value",
                      "cache_hits", "cache_misses"):
            assert getattr(run, field) == getattr(reference, field), field


# -- steady state is digest-free ----------------------------------------------


def test_warm_run_computes_no_digests():
    """The tentpole's proof obligation: a second run over the same
    executable re-derives no pipeline digests at all."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    options = repro.SimOptions(cache=DirectMappedCache())
    first = repro.simulate(executable, "bench", args=(loop, n), options=options)
    second = repro.simulate(executable, "bench", args=(loop, n), options=options)
    assert first.timing_digests > 0
    assert second.timing_digests == 0
    assert second.cycles == first.cycles
    # ...and well under the 1% acceptance ceiling even on the cold run
    lookups = first.block_cache_hits + first.block_cache_misses
    assert first.timing_digests <= max(1, lookups * 0.01)


def test_digest_counter_counts_first_visits_only(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like], None)
    delta, exit_id, _ = cache.close(0, 0, -1, 0, cache.EMPTY_ID, 0)
    assert cache.digests_computed == 1
    # the same transition again: a pure table hit, no digest
    again = cache.close(0, 0, -1, 0, cache.EMPTY_ID, delta + 1)
    assert again[:2] == (delta, exit_id)
    assert cache.digests_computed == 1
    assert (cache.hits, cache.misses) == (1, 1)


# -- memoized stall attribution -----------------------------------------------


@pytest.mark.parametrize("target", ("r2000", "i860"))
def test_trace_breakdown_rides_fast_path_bit_identical(target):
    """``trace=True`` runs take the engine (records memoize their
    per-hazard stall deltas) and reproduce the reference accounting
    model's breakdown exactly."""
    spec = kernel_by_id(7)
    reference = _simulate(spec, target, "ips", oracle=True, trace=True)
    fast = _simulate(spec, target, "ips", trace=True)
    for field in ("cycles", "instructions", "return_value",
                  "cache_hits", "cache_misses", "block_counts"):
        assert getattr(fast, field) == getattr(reference, field), field
    assert fast.cycle_breakdown == reference.cycle_breakdown
    # the accounting identity survives memoization
    assert sum(fast.cycle_breakdown.values()) == fast.cycles - 1
    # ...and the run really consulted the memo
    assert fast.block_cache_hits + fast.block_cache_misses > 0


def test_warm_trace_run_computes_no_digests():
    """Stall attribution is digest-free at steady state too: a second
    trace run over the same executable replays nothing."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    options = repro.SimOptions(cache=DirectMappedCache(), trace=True)
    first = repro.simulate(executable, "bench", args=(loop, n), options=options)
    second = repro.simulate(executable, "bench", args=(loop, n), options=options)
    assert second.timing_digests == 0
    assert second.cycles == first.cycles
    assert second.cycle_breakdown == first.cycle_breakdown


def test_trace_and_plain_runs_share_one_memo():
    """Trace and non-trace runs hit the same transition records — a
    memo warmed by a plain run leaves a following trace run nothing to
    replay, and vice versa."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    plain = repro.simulate(
        executable, "bench", args=(loop, n),
        options=repro.SimOptions(cache=DirectMappedCache()),
    )
    traced = repro.simulate(
        executable, "bench", args=(loop, n),
        options=repro.SimOptions(cache=DirectMappedCache(), trace=True),
    )
    assert plain.timing_digests > 0
    assert traced.timing_digests == 0
    assert traced.cycles == plain.cycles


# -- transition tables --------------------------------------------------------


def test_transitions_accessor_is_live(toyp):
    """``transitions()`` hands out the same dict ``close()`` updates in
    place — the contract the dispatch loop relies on when it binds a
    generated function's table getters once per run."""
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like], None)
    table = cache.transitions(0, 0, -1)
    assert table == {}
    delta, exit_id, _ = cache.close(0, 0, -1, 0, cache.EMPTY_ID, 0)
    assert table[transition_key(cache.EMPTY_ID, 0)][:2] == (delta, exit_id)
    assert cache.transitions(0, 0, -1) is table


def test_warm_run_binds_each_probe_site_once(monkeypatch):
    """The dispatch loop binds a generated function's probe-site
    getters on the function's first dispatch in a run, not on every
    call: a warm K7 run asks the memo for a transition table at most
    once per probe site of each compiled function."""
    spec = kernel_by_id(7)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    args = (loop, max(4, int(n * 0.03)))
    options = repro.SimOptions(cache=DirectMappedCache())
    for _ in range(2):
        repro.simulate(executable, "bench", args, options=options)
    calls = Counter()
    transitions = BlockTimingCache.transitions

    def counting(self, entry, end, transfer):
        calls[(entry, end, transfer)] += 1
        return transitions(self, entry, end, transfer)

    monkeypatch.setattr(BlockTimingCache, "transitions", counting)
    warm = repro.simulate(executable, "bench", args, options=options)
    sites = Counter(
        site
        for record in executable._segment_jit.functions(True).values()
        if record is not None
        for site in record[0]._jit_sites
    )
    assert warm.jit_hits > 100 and calls
    assert all(count <= sites[site] for site, count in calls.items())


def test_transition_key_is_what_generated_probes_build():
    """One key definition: the expression ``_emit_probe`` builds inline
    equals :func:`transition_key` for every entry id and miss mask
    (the entry id alone where no load precedes the probe), and distinct
    pairs get distinct keys."""
    keys = {}
    for masked in (False, True):
        codegen = jit._TraceCodegen(None, [(0, [0], None)], cached=True)
        codegen.path.masked = masked
        codegen._emit_probe(0, 0, -1)
        probe = codegen.lines[0].split("= tg0(", 1)[1]
        keys[masked] = probe[:-1]
    ids = (0, 1, 7, 2**31, 2**32 - 1)
    masks = (0, 1, 0b1011, 2**40 + 3)
    for eid in ids:
        assert eval(keys[False], {"eid": eid}) == transition_key(eid, 0)
        for mm in masks:
            inline = eval(keys[True], {"eid": eid, "mm": mm})
            assert inline == transition_key(eid, mm)
    distinct = {transition_key(eid, mm) for eid in ids for mm in masks}
    assert len(distinct) == len(ids) * len(masks)


@pytest.mark.parametrize("cache", (True, False))
def test_warm_probes_find_every_transition(monkeypatch, cache):
    """Generated code and the memo agree on keys end to end: once a run
    has filled the memo, every inline probe of the next run hits, so no
    warm boundary falls back to ``close()``."""
    spec = kernel_by_id(7)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    args = (loop, max(4, int(n * 0.03)))
    options = repro.SimOptions(cache=DirectMappedCache() if cache else None)
    for _ in range(2):
        repro.simulate(executable, "bench", args, options=options)
    probes = Counter()
    transitions = BlockTimingCache.transitions

    def counting(self, entry, end, transfer):
        table = transitions(self, entry, end, transfer)

        def get(key):
            record = table.get(key)
            probes[record is not None] += 1
            return record

        return SimpleNamespace(get=get)

    monkeypatch.setattr(BlockTimingCache, "transitions", counting)
    warm = repro.simulate(executable, "bench", args, options=options)
    assert warm.timing_digests == 0
    assert probes[True] > 100 and probes[False] == 0


def test_chained_exit_id_is_next_entry_id(toyp):
    """The chain's soundness hinge: the exit id ``close()`` returns keys
    the next boundary's lookup directly."""
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like, nop_like], None)
    delta, mid_id, _ = cache.close(0, 0, -1, 0, cache.EMPTY_ID, 0)
    cache.close(1, 1, -1, 0, mid_id, delta)
    # the second segment's record is keyed by the first one's exit id
    assert transition_key(mid_id, 0) in cache.transitions(1, 1, -1)


def test_export_preload_round_trip(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like, nop_like], None)
    delta, mid_id, _ = cache.close(0, 0, -1, 0, cache.EMPTY_ID, 0)
    cache.close(1, 1, -1, 0, mid_id, delta)
    snapshot = cache.export()

    fresh = BlockTimingCache(toyp, [nop_like, nop_like], None)
    assert fresh.preload(snapshot)
    assert fresh.digests == cache.digests
    assert fresh.segments == cache.segments
    assert fresh.entries == cache.entries
    # a preloaded transition is a pure hit: no replay, no digest
    again = fresh.close(0, 0, -1, 0, fresh.EMPTY_ID, 0)
    assert again[:2] == (delta, mid_id)
    assert fresh.digests_computed == 0
    assert (fresh.hits, fresh.misses) == (1, 0)


def test_preload_rejects_malformed_payloads(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    good = BlockTimingCache(toyp, [nop_like], None)
    record = good.close(0, 0, -1, 0, good.EMPTY_ID, 0)
    snapshot = good.export()

    # a record pointing past the digest list must be rejected wholesale
    key = transition_key(good.EMPTY_ID, 0)
    bad = {
        "digests": list(snapshot["digests"]),
        "segments": {(0, 0, -1): {key: (record[0], 999, record[2])}},
    }
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload(bad)
    assert fresh.segments == {} and fresh.entries == 0

    # ...as must a record without its stall-delta tuple
    bad["segments"] = {(0, 0, -1): {key: record[:2]}}
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload(bad)
    assert fresh.segments == {} and fresh.entries == 0

    # ...and every key but a transition key of a known digest id: an
    # ``(entry id, miss mask)`` tuple, a negative key, a key whose low
    # 32 bits name no digest
    for key in (
        (good.EMPTY_ID, 0), -1, transition_key(len(snapshot["digests"]), 1)
    ):
        bad["segments"] = {(0, 0, -1): {key: record}}
        fresh = BlockTimingCache(toyp, [nop_like], None)
        assert not fresh.preload(bad)
        assert fresh.segments == {} and fresh.entries == 0

    # ...as must a payload missing its digest list entirely
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload({"segments": {}})

    # a warmed cache refuses any preload
    assert not good.preload(snapshot)
