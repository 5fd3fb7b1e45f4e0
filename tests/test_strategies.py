"""Strategy-level tests: the three code generation strategies all produce
correct code and exhibit their characteristic behaviour."""

import pytest

import repro
from repro.backend.strategies import get_strategy
from repro.backend.strategies.base import STRATEGY_NAMES
from repro.errors import MarionError

from tests.helpers import paper_sources

SRC = """
double v[64];
double work(int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) { v[i] = (double)i * 1.25; }
    for (i = 0; i < n; i++) { s = s + v[i] * v[i] + 0.5; }
    return s;
}
"""


def expected(n):
    for i in range(n):
        pass
    v = [i * 1.25 for i in range(n)]
    s = 0.0
    for i in range(n):
        s = s + v[i] * v[i] + 0.5
    return s


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
def test_all_strategies_all_targets_correct(strategy, target):
    exe = repro.compile_c(SRC, target, repro.CompileOptions(strategy=strategy))
    result = repro.simulate(exe, "work", args=(24,))
    assert result.return_value["double"] == pytest.approx(expected(24), rel=1e-12)


def test_unknown_strategy_rejected():
    with pytest.raises(MarionError, match="unknown strategy"):
        get_strategy("wibble")


def test_schedule_pass_counts():
    """Postpass schedules once, IPS twice, RASE three times."""
    counts = {}
    for strategy in STRATEGY_NAMES:
        exe = repro.compile_c(SRC, "r2000", repro.CompileOptions(strategy=strategy))
        stats = exe.machine_program.stats["work"]
        counts[strategy] = stats.schedule_passes
    assert counts["postpass"] == 1
    assert counts["ips"] == 2
    assert counts["rase"] == 3


def test_block_costs_recorded():
    exe = repro.compile_c(SRC, "r2000", repro.CompileOptions(strategy="postpass"))
    stats = exe.machine_program.stats["work"]
    assert stats.block_costs
    assert all(cost >= 0 for cost in stats.block_costs.values())


def test_prepass_strategies_beat_postpass_on_big_blocks():
    """The paper's headline: scheduling before allocation wins on
    computation-intensive (large basic block) code (R2000).  Measured over
    the kernel loop alone (differencing cancels initialisation code)."""
    from repro.eval.claims import UNROLLED_HYDRO, _marginal_cycles

    cycles = {}
    for strategy in STRATEGY_NAMES:
        exe = repro.compile_c(UNROLLED_HYDRO, "r2000", repro.CompileOptions(strategy=strategy))
        cycles[strategy] = _marginal_cycles(exe, 1, 128)
    assert cycles["ips"] < cycles["postpass"]
    assert cycles["rase"] < cycles["postpass"]


def test_scheduling_disabled_still_correct():
    exe = repro.compile_c(SRC, "r2000", repro.CompileOptions(strategy="postpass", schedule=False))
    result = repro.simulate(exe, "work", args=(16,))
    assert result.return_value["double"] == pytest.approx(expected(16), rel=1e-12)


def test_scheduling_improves_over_unscheduled():
    exe_on = repro.compile_c(SRC, "r2000", repro.CompileOptions(strategy="postpass"))
    exe_off = repro.compile_c(SRC, "r2000", repro.CompileOptions(strategy="postpass", schedule=False))
    on = repro.simulate(exe_on, "work", args=(48,))
    off = repro.simulate(exe_off, "work", args=(48,))
    assert on.cycles <= off.cycles


def _stray_nops(executable) -> int:
    """Nops outside the delay-slot run directly after a control."""
    stray = 0
    for fn in executable.machine_program.functions:
        for block in fn.blocks:
            slots = 0  # delay slots still open after the last control
            for instr in block.instrs:
                if instr.is_nop and slots:
                    slots -= 1
                elif instr.is_nop:
                    stray += 1
                elif instr.is_branch_or_jump:
                    slots = abs(instr.desc.slots)
                else:
                    slots = 0
    return stray


@pytest.mark.parametrize("schedule", [True, False], ids=["scheduled", "unscheduled"])
@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
def test_nops_only_fill_delay_slots(target, schedule):
    """Only the final pass fills delay slots: an estimate pass adopts
    its schedule's order of the block's own instructions, so no nop it
    would have appended reaches the final pass as an instruction to
    schedule (or, with scheduling off, as a second delay-slot nop)."""
    stray = {}
    for strategy in STRATEGY_NAMES:
        options = repro.CompileOptions(strategy=strategy, schedule=schedule)
        for source in paper_sources():
            count = _stray_nops(repro.compile_c(source, target, options))
            if count:
                stray[strategy] = stray.get(strategy, 0) + count
    assert stray == {}


@pytest.mark.parametrize("target", ["toyp", "r2000", "m88000", "i860"])
def test_unscheduled_ips_emits_postpass_code(target):
    """With scheduling off, IPS's estimate pass leaves the selected
    order as it is and its allocation runs without cost overrides, so
    it emits exactly Postpass's code."""
    from repro.backend.asmprinter import format_program

    for source in paper_sources():
        listings = [
            format_program(
                repro.compile_c(
                    source,
                    target,
                    repro.CompileOptions(strategy=strategy, schedule=False),
                ).machine_program
            )
            for strategy in ("postpass", "ips")
        ]
        assert listings[0] == listings[1]
