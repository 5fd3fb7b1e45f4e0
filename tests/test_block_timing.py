"""Cross-validation and unit tests for the memoized block-timing path.

The engine's block-timing memo (:mod:`repro.sim.blockcache`) must be
*bit-identical* to the reference interleaved execute+time loop — not
approximately equal — so the core of this file simulates the same
compiled kernels on the engine and on the reference model and compares
every observable field.
"""

import pytest

from repro.backend.insts import Imm, Reg
from repro.errors import MarionError, SimulationTimeout
from repro.machine.registers import PhysReg
from repro.sim.blockcache import (
    EMPTY_DIGEST,
    BlockTimingCache,
    load_state,
    state_digest,
    target_max_latency,
)
from repro.sim.cache import DirectMappedCache
from repro.sim.executor import memory_accesses
from repro.sim.pipeline import PipelineModel

from tests.helpers import build as instr, simulate_oracle

import repro
from repro.workloads import kernel_by_id

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every observable a fast run must reproduce bit-for-bit
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


def _simulate(
    executable, spec, *, oracle=False, scale=0.03, cache=True, **extra
):
    loop, n = spec.args
    n = max(4, int(n * scale))
    options = repro.SimOptions(
        cache=DirectMappedCache() if cache else None, **extra
    )
    run = simulate_oracle if oracle else repro.simulate
    return run(executable, "bench", (loop, n), options=options)


def _compile(spec, target, strategy):
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        pytest.skip(f"{target}/{strategy} does not compile K{spec.id}: {error}")


# -- cross-validation ---------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_fast_path_bit_identical_k1(target, strategy):
    spec = kernel_by_id(1)
    executable = _compile(spec, target, strategy)
    fast = _simulate(executable, spec)
    reference = _simulate(executable, spec, oracle=True)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(reference, field), field
    # the engine run consulted the memo, the reference run did not
    assert fast.block_cache_hits + fast.block_cache_misses > 0
    assert reference.block_cache_hits == reference.block_cache_misses == 0


@pytest.mark.parametrize("target", ("r2000", "i860"))
def test_fast_path_bit_identical_k7(target):
    # K7 (equation of state) has a wider loop body than K1 — more live
    # producers across the back edge, a harder digest case
    spec = kernel_by_id(7)
    executable = _compile(spec, target, "postpass")
    fast = _simulate(executable, spec)
    reference = _simulate(executable, spec, oracle=True)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(reference, field), field


@pytest.mark.parametrize("target", ("toyp", "i860"))
def test_fast_path_bit_identical_without_cache(target):
    spec = kernel_by_id(1)
    executable = _compile(spec, target, "postpass")
    fast = _simulate(executable, spec, cache=False)
    reference = _simulate(executable, spec, oracle=True, cache=False)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(reference, field), field


def test_steady_state_hit_rate():
    # the whole point: after warmup, loop iterations hit the memo
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    result = _simulate(executable, spec, scale=0.05)
    lookups = result.block_cache_hits + result.block_cache_misses
    assert lookups > 0
    assert result.block_cache_hits / lookups >= 0.90


def test_repeated_runs_share_the_memo():
    # the cache is per (executable, miss penalty): a second run over the
    # same executable starts warm
    spec = kernel_by_id(1)
    executable = _compile(spec, "toyp", "postpass")
    first = _simulate(executable, spec)
    second = _simulate(executable, spec)
    assert second.cycles == first.cycles
    assert second.block_cache_misses < first.block_cache_misses


# -- routing -----------------------------------------------------------------


def test_trace_true_stays_on_the_fast_path():
    # stall attribution does not force the interleaved model: the
    # memo's records carry per-hazard stall deltas, so a traced run
    # still consults the segment cache and the accounting identity holds
    spec = kernel_by_id(1)
    executable = _compile(spec, "toyp", "postpass")
    traced = _simulate(executable, spec, trace=True)
    fast = _simulate(executable, spec)
    assert traced.block_cache_hits + traced.block_cache_misses > 0
    assert traced.cycle_breakdown is not None
    assert sum(traced.cycle_breakdown.values()) == traced.cycles - 1
    # ...and both paths agree on the cycle count
    assert traced.cycles == fast.cycles


def test_max_cycles_watchdog_falls_back_and_still_fires():
    # an armed watchdog keeps the run on the engine: compiled loops
    # fall back to the dispatch loop's boundary check every
    # WATCHDOG_STRIDE instructions, and the budget still fires
    spec = kernel_by_id(1)
    executable = _compile(spec, "toyp", "postpass")
    for cache in (True, False):
        plain = _simulate(executable, spec, cache=cache)
        for trace in (False, True):
            guarded = _simulate(
                executable, spec, cache=cache, trace=trace,
                max_cycles=plain.cycles,
            )
            assert guarded.cycles == plain.cycles
            assert guarded.block_cache_hits + guarded.block_cache_misses > 0
            assert guarded.jit_hits > 0
    with pytest.raises(SimulationTimeout):
        _simulate(executable, spec, max_cycles=100)


def test_watch_callback_falls_back():
    spec = kernel_by_id(1)
    executable = _compile(spec, "toyp", "postpass")
    loop, n = spec.args
    seen = []
    simulator = repro.Simulator(executable)
    result = simulator.run(
        "bench",
        args=(loop, 4),
        watch=lambda pc, ins, cycle: seen.append(cycle),
    )
    # the callback received real per-instruction issue cycles, which the
    # memoized path cannot produce
    assert result.block_cache_hits == result.block_cache_misses == 0
    assert len(seen) > 0 and seen[-1] <= result.cycles


# -- digest unit tests --------------------------------------------------------


def test_digest_ages_out_stale_producers(toyp):
    """Two states that differ only in long-retired producers digest equal."""
    max_latency = target_max_latency(toyp)
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    write = instr(
        toyp, "addi", Reg(PhysReg("r", 3)), Reg(PhysReg("r", 6)), Imm(2)
    )
    a = PipelineModel(toyp)
    b = PipelineModel(toyp)
    # model a writes r3 early, model b never does; then both run enough
    # unrelated instructions for the write to retire
    a.issue(write, [])
    for _ in range(max_latency + 4):
        a.issue(nop_like, [])
        b.issue(nop_like, [])
    b.issue(nop_like, [])  # align issue counts loosely; digests are relative
    da = state_digest(a, max_latency)
    db = state_digest(b, max_latency)
    assert da == db


def test_digest_distinguishes_live_producers(toyp):
    """A producer still inside its latency window must change the digest."""
    max_latency = target_max_latency(toyp)
    load = instr(toyp, "ld", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(0))
    other = instr(
        toyp, "addi", Reg(PhysReg("r", 3)), Reg(PhysReg("r", 6)), Imm(1)
    )
    a = PipelineModel(toyp)
    b = PipelineModel(toyp)
    a.issue(load, [(4096, False, 4)])  # r2 pending in a
    b.issue(other, [])  # r3 pending in b
    assert state_digest(a, max_latency) != state_digest(b, max_latency)


def test_digest_roundtrip_is_lossless(toyp):
    """materialize(digest) must digest back to the same value at any base."""
    max_latency = target_max_latency(toyp)
    model = PipelineModel(toyp)
    load = instr(toyp, "ld", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(0))
    fadd = instr(
        toyp,
        "fadd.d",
        Reg(PhysReg("d", 1)),
        Reg(PhysReg("d", 2)),
        Reg(PhysReg("d", 3)),
    )
    model.issue(load, [(4096, False, 4)])
    model.issue(fadd, [])
    digest = state_digest(model, max_latency)
    for base in (2, 100, 5000):
        fresh = PipelineModel(toyp)
        load_state(fresh, digest, base)
        assert fresh.last_issue == base
        assert state_digest(fresh, max_latency) == digest


def test_empty_digest_matches_fresh_model(toyp):
    """A pristine model must be digest-equal to ``EMPTY_DIGEST`` — the
    fast path seeds every run with it."""
    model = PipelineModel(toyp)
    assert state_digest(model, target_max_latency(toyp)) == EMPTY_DIGEST


def test_equal_digests_predict_equal_futures(toyp):
    """The memo's soundness condition: equal digests → every future
    instruction sequence costs the same from either state."""
    max_latency = target_max_latency(toyp)
    load = instr(toyp, "ld", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(0))
    use = instr(toyp, "addi", Reg(PhysReg("r", 3)), Reg(PhysReg("r", 2)), Imm(1))
    model = PipelineModel(toyp)
    model.issue(load, [(4096, False, 4)])
    digest = state_digest(model, max_latency)
    clone = PipelineModel(toyp)
    load_state(clone, digest, model.last_issue)
    # the pending load interlock must carry over: the consumer stalls the
    # same number of cycles in the materialized copy
    c_model = model.issue(use, []) - model.last_issue
    c_clone = clone.issue(use, []) - clone.last_issue
    assert c_model == c_clone


def test_digest_keeps_a_miss_stretch_a_use_can_still_wait_on(r2000):
    """Equal futures include the attribution: an R2000 ``lw`` misses at
    cycle 0 (ready at 20), a ``div.d`` and an ``add.d`` on its result
    carry the issue point to cycle 20, and the load's use two cycles
    later is charged to the miss both by the continuous model and by a
    model materialized from the digest taken at cycle 20."""
    max_latency = target_max_latency(r2000)
    gpr = lambda n: Reg(PhysReg("r", n))  # noqa: E731
    fpr = lambda n: Reg(PhysReg("d", n))  # noqa: E731
    model = PipelineModel(r2000, DirectMappedCache(miss_penalty=20))
    head = (
        (instr(r2000, "lw", gpr(8), gpr(30), Imm(0)), [(8192, False, 4)]),
        (instr(r2000, "div.d", fpr(1), fpr(2), fpr(3)), []),
        (instr(r2000, "add.d", fpr(4), fpr(1), fpr(1)), []),
    )
    assert [model.issue(*step) for step in head] == [0, 1, 20]
    digest = state_digest(model, max_latency)
    use = instr(r2000, "addiu", gpr(9), gpr(8), Imm(1))
    before = dict(model.kind_cycles)
    assert model.issue(use, []) == 22
    continuous = {
        kind: cycles - before[kind]
        for kind, cycles in model.kind_cycles.items()
        if cycles != before[kind]
    }
    assert continuous == {"cache_miss": 2}
    clone = PipelineModel(r2000)
    load_state(clone, digest, 100)
    assert clone.issue(use, []) == 102
    assert {k: v for k, v in clone.cycle_breakdown.items() if v} == continuous


def test_table_backstop_caps_admissions(toyp):
    cache = BlockTimingCache(toyp, [], None)
    # pretend the memo is already at capacity (the backstop counts
    # records across every per-segment transition dict)
    cache.entries = 1 << 16
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache.instrs = [nop_like]
    cache.close(0, 0, -1, 0, cache.EMPTY_ID, cache.begin_run())
    # the miss replayed but admitted nothing new
    assert cache.misses == 1
    assert cache.segments[(0, 0, -1)] == {}
    assert cache.entries == 1 << 16


# -- the replay's access script -----------------------------------------------


def _paper_programs(scale=0.03):
    """``(source, entry, args)`` of the suite programs and Livermore
    kernels, the kernels at one outer pass of a scaled problem size."""
    from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE

    programs = [(p.source, p.entry, p.args) for p in PROGRAM_SUITE]
    for spec in LIVERMORE_KERNELS:
        _loop, n = spec.args
        programs.append((spec.source, "bench", (1, max(4, int(n * scale)))))
    return programs


@pytest.mark.parametrize("target", TARGETS)
def test_access_script_is_the_interpreter_log_order(target):
    """A replay rebuilds each instruction's memory accesses from its
    semantics (``memory_accesses``) instead of a per-access log, so for
    every instruction the paper programs execute the static script must
    be exactly the ``is_write`` sequence the interpreter logs."""
    machine = repro.load_target(target)
    mismatches = []
    checked = set()

    def checking(closure, instr):
        script = memory_accesses(instr.desc.semantics)

        def run(state, mem_log):
            effect = closure(state, mem_log)
            logged = tuple(is_write for _addr, is_write, _size in mem_log)
            if logged != script:
                mismatches.append((str(instr), logged, script))
            checked.add(logged)
            return effect

        return run

    for source, entry, args in _paper_programs():
        executable = repro.compile_c(
            source, machine, repro.CompileOptions(strategy="postpass")
        )
        simulator = repro.Simulator(
            executable, repro.SimOptions(model_timing=False)
        )
        simulator.closures = [
            checking(closure, instr)
            for closure, instr in zip(simulator.closures, executable.instrs)
        ]
        simulator.run(entry, args, watch=lambda pc, instr, cycle: None)
    assert mismatches == []
    assert {(False,), (True,)} <= checked


#: a machine with one instruction that loads twice and stores once: the
#: access script must follow the semantics, not assume one access per
#: memory instruction
LOADSTORE_MARIL = r"""
declare {
    %reg r[0:15] (int);
    %resource ALU;
    %resource MEM;
    %def c16 [-32768:32767];
    %def c32 [-2147483648:2147483647] +abs;
    %label rlab [-32768:32767] +relative;
    %label flab [-8388608:8388607] +abs;
    %memory m[0:1048575];
}
cwvm {
    %general (int) r;
    %allocable r[1:11];
    %calleesave r[8:11];
    %sp r[15] +down;
    %fp r[14] +down;
    %retaddr r[13];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %arg (int) r[3] 2;
    %result r[2] (int);
}
instr {
    %instr li r, r[0], #c16 (int) {$1 = $3;} [ALU] (1,1,0);
    %instr addi r, r, #c16 (int) {$1 = $2 + $3;} [ALU] (1,1,0);
    %instr add r, r, r (int) {$1 = $2 + $3;} [ALU] (1,1,0);
    %instr ld r, r, #c16 (int) {$1 = m[$2 + $3];} [MEM; MEM] (1,2,0);
    %instr st r, r, #c16 (int) {m[$2 + $3] = $1;} [MEM; MEM] (1,1,0);
    %instr ldadd r, r, r (int) {$1 = m[$2] + m[$3]; m[$2] = $1;}
        [MEM; MEM; MEM] (1,2,0);
    %instr bne0 r, #rlab {if ($1 != 0) goto $2;} [ALU] (1,2,1);
    %instr jmp #rlab {goto $1;} [ALU] (1,2,1);
    %instr call #flab {call $1;} [ALU] (1,2,0);
    %instr ret {ret;} [ALU] (1,2,1);
    %instr nop {;} [ALU] (1,1,0);
    %move [ls.movs] add r, r, r[0] {$1 = $2;} [ALU] (1,1,0);
}
"""


def _loadstore_executable():
    """``f(n)``: ``n`` iterations of ``ldadd`` over two arrays at
    different strides (so the two loads miss on different iterations),
    a use of its result right behind it, and a load that must wait for
    its store."""
    from repro.backend.insts import Lab
    from repro.cgg import build_target
    from repro.program import Executable

    target = build_target(LOADSTORE_MARIL, name="loadstore")

    def r(index):
        return Reg(PhysReg("r", index))

    code = [
        ("li", r(4), r(0), Imm(8192)),
        ("li", r(5), r(0), Imm(16384)),
        ("li", r(7), r(0), Imm(0)),
        ("ldadd", r(6), r(4), r(5)),  # loop:
        ("add", r(7), r(7), r(6)),
        ("ld", r(8), r(4), Imm(0)),
        ("add", r(7), r(7), r(8)),
        ("addi", r(4), r(4), Imm(4)),
        ("addi", r(5), r(5), Imm(8)),
        ("addi", r(2), r(2), Imm(-1)),
        ("bne0", r(2), Lab("loop")),
        ("nop",),
        ("add", r(2), r(7), r(0)),
        ("ret",),
        ("nop",),
    ]
    instrs = [instr(target, name, *operands) for name, *operands in code]
    return Executable(
        target, instrs, labels={"f": 0, "loop": 3}, functions={"f": 0}
    )


def test_load_store_instruction_replays_exactly():
    """An instruction that both loads and stores: engine runs with a
    data cache, plain and traced, cold and warm, equal the reference
    model on cycles, cache hits and misses and the stall breakdown."""
    executable = _loadstore_executable()
    assert memory_accesses(executable.instrs[3].desc.semantics) == (
        False, False, True,
    )
    reference = simulate_oracle(
        executable, "f", (300,), repro.SimOptions(cache=True, trace=True)
    )
    assert reference.cache_misses and reference.cycle_breakdown["cache_miss"]
    fields = ("cycles", "cache_hits", "cache_misses", "return_value")
    for trace in (False, True, False, True):
        run = repro.simulate(
            executable, "f", (300,),
            options=repro.SimOptions(cache=True, trace=trace),
        )
        for field in fields:
            assert getattr(run, field) == getattr(reference, field), field
        if trace:
            assert run.cycle_breakdown == reference.cycle_breakdown
        assert run.jit_hits > 0
