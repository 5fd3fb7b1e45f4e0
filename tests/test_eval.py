"""Tests for the evaluation harness (fast, scaled-down instances)."""

import pytest

from repro.eval.common import run_kernel
from repro.eval.figure7 import dual_operation_count, figure7
from repro.eval.table1 import description_stats, table1
from repro.eval.table2 import phase_sizes, table2
from repro.workloads import kernel_by_id


def test_table1_i860_dominates_special_constructs():
    stats = {name: description_stats(name) for name in ("r2000", "i860")}
    assert stats["i860"].clocks > stats["r2000"].clocks
    assert stats["i860"].elements > stats["r2000"].elements
    assert stats["i860"].classed_instructions > 0
    assert stats["r2000"].classed_instructions == 0
    assert stats["i860"].funcs > stats["r2000"].funcs
    assert stats["i860"].func_python_lines > stats["r2000"].func_python_lines


def test_table1_renders():
    text = table1()
    assert "Clocks" in text and "i860" in text


def test_table2_shape_matches_paper():
    sizes = phase_sizes()
    tsi = sizes["Target- and strategy-independent (TSI)"]
    cgg = sizes["Code Generator Generator (CGG)"]
    assert tsi > cgg  # TSI is the largest piece, as in the paper
    assert (
        sizes["Strategy-dependent (SD), RASE"]
        > sizes["Strategy-dependent (SD), IPS"]
        > sizes["Strategy-dependent (SD), Postpass"]
    )
    assert (
        sizes["Target-dependent (TD), i860"]
        > sizes["Target-dependent (TD), R2000"]
    )


def test_table2_renders():
    assert "CGG" in table2()


def test_kernel_run_and_estimate():
    spec = kernel_by_id(11)
    run = run_kernel(spec, "r2000", "postpass", scale=0.05)
    assert run.actual_cycles > 0
    assert run.estimated_cycles > 0
    assert run.instructions > 0
    assert 0.5 < run.ratio < 2.0


def test_estimates_consistent_across_strategies():
    """Paper: 'The ratio of actual time to estimated time varies, but is
    consistent across strategies for each loop.'"""
    spec = kernel_by_id(12)
    ratios = [
        run_kernel(spec, "r2000", strategy, scale=0.1).ratio
        for strategy in ("postpass", "ips", "rase")
    ]
    assert max(ratios) - min(ratios) < 0.15


def test_figure7_shows_dual_operations():
    assert dual_operation_count() >= 2
    text = figure7()
    assert "M1" in text and "A1" in text
    # at least one line carrying two packed operations
    assert any("|" in line for line in text.splitlines())


def test_ablation_temporal_eap_wins_on_dual_operation_code():
    from repro.eval.ablation import ablation_temporal_dual

    row = ablation_temporal_dual(n=32)
    # sub-operation scheduling exploits dual-operation parallelism: the
    # monolithic model must be measurably slower here
    assert row.variant_cycles > row.baseline_cycles


def test_ablation_temporal_results_agree_functionally():
    from repro.eval.ablation import ablation_temporal

    rows = ablation_temporal(kernel_ids=(1,), scale=0.08)
    assert rows  # checksum equality asserted inside


def test_ablation_heuristic_maxdist_wins():
    from repro.eval.ablation import ablation_heuristic

    rows = ablation_heuristic(kernel_ids=(7,), scale=0.08)
    for row in rows:
        assert row.variant_cycles >= row.baseline_cycles


def test_table4_small_slice():
    from repro.eval.table4 import measure

    data = measure(kernels=[kernel_by_id(11)], scale=0.05)
    assert data.cycles(11, "postpass") > 0
    assert 0.5 < data.ratio(11, "postpass") < 2.0


def test_table3_rows_shape():
    from repro.eval.table3 import measure

    data = measure(targets=("r2000",), repeat=1)
    modules = [row.module for row in data.rows]
    assert "Lcc-analog front end" in modules
    assert "Marion, r2000, postpass" in modules
    assert "local-only baseline, r2000" in modules
    for row in data.rows:
        assert row.seconds > 0
    # IPS schedules every block twice, RASE three times
    passes = [
        data.row(f"Marion, r2000, {strategy}").schedulings
        for strategy in ("postpass", "ips", "rase")
    ]
    assert passes == [passes[0], 2 * passes[0], 3 * passes[0]]
    assert passes[0] > 0
    assert data.row("local-only baseline, r2000").schedulings is None


def test_claim_c2_orders_strategies_on_blocks_scheduled():
    """IPS and RASE compile times are close enough to swap between runs;
    the claim's ordering is decided on the work counts."""
    from repro.eval.claims import CompileTimeClaim

    claim = CompileTimeClaim(
        postpass_seconds=0.30,
        ips_seconds=0.72,
        rase_seconds=0.70,
        postpass_schedulings=561,
        ips_schedulings=1122,
        rase_schedulings=1683,
        r2000_total=1.0,
        i860_total=1.1,
    )
    assert claim.ordering_holds


def test_report_sections_exist():
    """The report module wires every experiment (without running it)."""
    import inspect

    from repro.eval import report

    source = inspect.getsource(report.generate_report)
    for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Figure 7",
                   "C1", "C2", "C3", "A1", "A2", "A3"):
        assert marker in source


@pytest.mark.parametrize("failed", [False, True])
def test_report_json_prints_run_and_its_counters(monkeypatch, capsys, failed):
    """``repro report --format json`` prints ok, failures, the rendered
    text and the run's counter snapshot, and exits 1 on a failed unit."""
    import argparse
    import json

    from repro.eval import report
    from repro.eval.grid import GridFailure
    from repro.obs import Trace

    def fake_report(**kwargs):
        # stands in for the real, 20-second run: record what a run
        # records on its trace, then return its rendered result
        trace = Trace("report")
        trace.count("compile.compiled", 3)
        trace.add_seconds("simulate:bench", 0.5)
        failures = (
            [GridFailure(key="table4/r2000/rase/K7", error_type="Timeout",
                         message="budget exceeded")]
            if failed
            else []
        )
        return report.ReportResult(
            text="Table 1\n", failures=failures, metrics=trace.summary()
        )

    monkeypatch.setattr(report, "generate_report", fake_report)
    parser = argparse.ArgumentParser()
    report.add_report_arguments(parser)
    status = report.run_report_command(
        parser.parse_args(["--format", "json"])
    )
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"ok", "failures", "text", "counters", "phases"}
    assert document["text"] == "Table 1\n"
    assert document["counters"] == {"compile.compiled": 3}
    assert document["phases"]["simulate:bench"]["seconds"] == 0.5
    assert document["ok"] is not failed
    assert status == (1 if failed else 0)
    assert document["failures"] == (
        ["table4/r2000/rase/K7: Timeout: budget exceeded"] if failed else []
    )


def test_report_closes_its_pool_when_a_section_raises(monkeypatch):
    """A section that raises must not leave the report's pool workers
    running: the pool is closed on the way out."""
    from repro.eval import report
    from repro.eval.executors import LocalPoolExecutor

    closed = []
    real_close = LocalPoolExecutor.close

    def spy_close(self):
        closed.append(self)
        real_close(self)

    def broken_section():
        raise RuntimeError("injected section failure")

    monkeypatch.setattr(LocalPoolExecutor, "close", spy_close)
    monkeypatch.setattr(report, "table2", broken_section)
    with pytest.raises(RuntimeError, match="injected section failure"):
        report.generate_report(scale=0.05, jobs=2)
    assert len(closed) == 1
