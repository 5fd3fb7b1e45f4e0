"""Stall attribution: both conservation identities, per target.

The scheduler classifies every nop slot it commits with a reason code,
and the pipeline model charges every cycle the issue point advances to
a hazard kind (``SimOptions(trace=True)`` reports the breakdown).  Both
taxonomies are conserved by construction; these tests pin the
identities on hand-built hazard kernels and on real compiled code
across all targets.
"""

import pytest

import repro
from repro.backend.asmprinter import format_program
from repro.obs import stalls
from repro.sim import DirectMappedCache

#: a kernel with a little of everything: loads feeding uses, a multiply
#: chain, and a loop branch
HAZARD_SOURCE = """
double f(int n) {
    double a[64];
    double s;
    int i;
    s = 0.0;
    for (i = 0; i < 64; i = i + 1) {
        a[i] = i * 0.5;
    }
    for (i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i] + a[i + 1];
    }
    return s;
}
"""


def _compile(target, strategy="ips"):
    return repro.compile_c(
        HAZARD_SOURCE, target, repro.CompileOptions(strategy=strategy)
    )


# -- scheduler side ----------------------------------------------------------


@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
@pytest.mark.parametrize("strategy", ["postpass", "ips", "rase"])
def test_scheduler_reasons_sum_to_nop_slots(target, strategy):
    exe = _compile(target, strategy)
    stats_by_fn = exe.machine_program.stats
    assert stats_by_fn, "compile produced no per-function stats"
    for name, stats in stats_by_fn.items():
        assert (
            sum(stats.stall_reasons.values()) == stats.nop_slots
        ), f"{target}/{strategy}/{name}: reasons must sum to nop slots"


def test_scheduler_reasons_use_known_families():
    known = {
        stalls.RESOURCE_CONFLICT,
        stalls.LATENCY,
        stalls.BRANCH_DELAY,
        stalls.EMPTY_READY_LIST,
        stalls.PACKING_CONFLICT,
        stalls.TEMPORAL_RULE1,
    }
    for target in ("r2000", "i860"):
        exe = _compile(target)
        for stats in exe.machine_program.stats.values():
            for reason in stats.stall_reasons:
                assert stalls.reason_family(reason) in known, reason


def test_block_stall_events_match_stats_totals():
    """The per-block event streams aggregate to the function histogram."""
    exe = _compile("r2000")
    program = exe.machine_program
    for fn in program.functions:
        stats = program.stats[fn.name]
        from_events: dict[str, int] = {}
        for block in fn.blocks:
            for _cycle, reason in block.stall_events:
                from_events[reason] = from_events.get(reason, 0) + 1
        assert from_events == stats.stall_reasons


# -- simulator side ----------------------------------------------------------


@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
def test_cycle_breakdown_conservation(target):
    """Every cycle of issue-point advance is attributed: sum == cycles-1."""
    exe = _compile(target)
    result = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(trace=True)
    )
    breakdown = result.cycle_breakdown
    assert breakdown is not None
    assert set(breakdown) == set(stalls.SIM_STALL_KINDS)
    assert sum(breakdown.values()) == result.cycles - 1
    assert result.stall_cycles == result.cycles - 1


@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
def test_accounting_model_matches_base_model(target):
    """A ``trace=True`` engine run computes what a plain one does; only
    the plain run leaves the breakdown out."""
    exe = _compile(target)
    base = repro.simulate(exe, "f", (40,))
    acct = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(trace=True)
    )
    assert base.cycle_breakdown is None
    assert acct.cycles == base.cycles
    assert acct.instructions == base.instructions
    assert acct.return_value == base.return_value


def test_load_use_attribution():
    exe = _compile("r2000")
    result = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(trace=True)
    )
    assert result.cycle_breakdown[stalls.LOAD_USE] >= 0
    # every executed instruction serializes through the single issue slot
    assert result.cycle_breakdown[stalls.RESOURCE] > 0
    assert result.cycle_breakdown[stalls.BRANCH] > 0


def test_cache_miss_attribution_appears_with_a_tiny_cache():
    exe = _compile("r2000")
    tiny = DirectMappedCache(size=64, line=16, miss_penalty=12)
    hit = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(trace=True)
    )
    miss = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(cache=tiny, trace=True)
    )
    assert hit.cycle_breakdown[stalls.CACHE_MISS] == 0
    assert miss.cycle_breakdown[stalls.CACHE_MISS] > 0
    assert sum(miss.cycle_breakdown.values()) == miss.cycles - 1
    assert miss.cycles > hit.cycles


def test_fp_advance_attribution_on_i860():
    exe = _compile("i860")
    result = repro.simulate(
        exe, "f", (40,), options=repro.SimOptions(trace=True)
    )
    breakdown = result.cycle_breakdown
    assert sum(breakdown.values()) == result.cycles - 1
    assert breakdown[stalls.FP_ADVANCE] > 0


def test_breakdown_off_by_default_and_stall_cycles_zero():
    exe = _compile("toyp")
    result = repro.simulate(exe, "f", (8,))
    assert result.cycle_breakdown is None
    assert result.stall_cycles == 0


def test_functional_mode_has_no_breakdown():
    exe = _compile("toyp")
    result = repro.simulate(
        exe, "f", (8,),
        options=repro.SimOptions(model_timing=False, trace=True),
    )
    assert result.cycle_breakdown is None


# -- surfacing ---------------------------------------------------------------


def test_explain_schedule_output():
    exe = _compile("r2000")
    text = format_program(exe.machine_program, explain=True)
    assert "nop slots" in text
    assert "; @" in text  # issue-cycle annotations
    plain = format_program(exe.machine_program)
    assert "nop slots" not in plain


def test_attribution_section_renders():
    from repro.eval.attribution import render_stalls
    from repro.eval.common import run_kernel
    from repro.workloads import kernel_by_id

    run = run_kernel(
        kernel_by_id(7), "r2000", "ips", scale=0.05, breakdown=True
    )
    assert run.cycle_breakdown is not None
    assert sum(run.cycle_breakdown.values()) == run.actual_cycles - 1
    assert sum(run.sched_stall_reasons.values()) == run.sched_nop_slots
    text = render_stalls({("r2000", "ips"): run})
    assert "r2000" in text
    assert "scheduler stall reasons" in text
