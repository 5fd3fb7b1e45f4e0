"""Tests of the benchmark harness itself (not of the program it measures)."""

import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import calibrate
import layers
import programs
import repro
import run
import stats
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the seeded program generator -----------------------------------------------


def test_generator_is_a_function_of_the_seed():
    assert programs.generate_suite(7) == programs.generate_suite(7)
    assert programs.generate_suite(7) != programs.generate_suite(8)
    suite = programs.generate_suite(7)
    assert [p.statements for p in suite] == list(programs.SIZES)
    for program in suite:
        body = program.source.count(";") - 2 - 9 - 1  # decls, inits, return
        assert body == program.statements


def test_generated_shape_does_not_depend_on_the_seed():
    """The seed changes only numbers, so every seed gives the compiler
    the same work."""
    numbers = re.compile(r"\b\d+\b")
    first, second = programs.generate(1, 24), programs.generate(2, 24)
    assert first.source != second.source
    assert numbers.sub("#", first.source) == numbers.sub("#", second.source)
    sizes = {
        repro.compile_c(program.source, "r2000",
                        repro.CompileOptions(strategy="rase")).instruction_count()
        for program in (first, second)
    }
    assert len(sizes) == 1


@pytest.mark.parametrize("target", ["toyp", "r2000"])
def test_generated_programs_simulate_to_their_reference(target):
    for index, program in enumerate(programs.generate_suite(11)[:3]):
        strategy = workloads.STRATEGIES[index % 3]
        exe = repro.compile_c(
            program.source, target, repro.CompileOptions(strategy=strategy))
        result = repro.simulate(exe, program.entry, args=program.args)
        assert result.return_value["double"] == program.expected


def test_generator_never_recomputes_a_right_hand_side():
    """The same expression over unchanged operands would hit the known
    value-reuse miscompile (bench/README.md)."""
    program = programs.generate(3, 48)
    version, seen = {}, set()
    for dst, rhs in re.findall(r"^\s+(\w+) = (.+);$", program.source, re.M):
        operands = re.findall(r"\b[id]\d+\b", rhs)
        key = (rhs, tuple(version.get(name, 0) for name in operands))
        assert key not in seen, rhs
        seen.add(key)
        version[dst] = version.get(dst, 0) + 1


# -- statistics ------------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.95) == 95
    assert stats.percentile([3.0], 0.95) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_percentile_has_ten_samples_beyond_it():
    assert stats.samples_beyond(stats.MIN_OPS, stats.TAIL) >= stats.MIN_BEYOND
    assert stats.samples_beyond(stats.MIN_OPS - 1, stats.TAIL) < stats.MIN_BEYOND
    assert stats.MIN_OPS == 200
    assert stats.samples_beyond(1000, 0.99) == 10


def test_self_time_subtracts_child_spans():
    def span(name, start, end, *children):
        return SimpleNamespace(name=name, start=start, end=end,
                               children=list(children))

    root = span("root", 0.0, 10.0,
                span("unit", 1.0, 9.0, span("frontend", 1.0, 3.0),
                     span("backend", 3.0, 8.0, span("schedule[final]", 4.0, 6.0))))
    totals = stats.self_times(root)
    assert totals == {"root": 2.0, "unit": 1.0, "frontend": 2.0,
                      "backend": 3.0, "schedule[final]": 2.0}
    assert sum(totals.values()) == 10.0


def test_compile_spans_map_to_layers():
    assert workloads._compile_layer("schedule[final]") == "backend.schedule.self_s"
    assert workloads._compile_layer("strategy:rase") == "backend.strategy.self_s"
    assert workloads._compile_layer("codegen:main") == "backend.other.self_s"
    assert workloads._compile_layer("frontend") == "frontend.self_s"
    assert workloads._compile_layer("unit") == "compile.other_s"


def test_calibration_scales_to_the_reference_speed():
    reference = calibrate.REFERENCE_S
    assert calibrate.at_reference_speed(0.5, reference, reference) == 0.5
    # a machine running twice as slow around an operation halves it
    assert calibrate.at_reference_speed(1.0, 2 * reference, 2 * reference) == 0.5
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.measure(2) > 0


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 << 10
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) \
        == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])


def test_setup_time_has_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_names_a_workload_and_an_end_to_end_metric():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert set(declared) == set(layers.LAYERS)
    workload_names = {w["name"] for w in SPEC["workloads"]}
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    for name, (unit, better, workload, moves) in layers.LAYERS.items():
        assert declared[name] == (unit, better), name
        assert workload in workload_names | {layers.EVERY}, name
        assert moves in e2e_names, name


def test_workload_table_matches_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


# -- hermetic runs -------------------------------------------------------------


def test_child_environment_is_scrubbed(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JIT", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
    environment = run.child_environment(tmp_path)
    assert not {"REPRO_JIT", "REPRO_CACHE_DIR"} & set(environment)
    assert environment["REPRO_CACHE"] == "0"
    assert environment["TMPDIR"] == str(tmp_path)
    assert environment["PYTHONPATH"] == str(ROOT / "src")


def test_fingerprint_names_the_machine():
    assert set(run.fingerprint()) == {"python", "nproc", "platform", "cpu"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compile"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert "correct" not in process.stdout


# -- the whole benchmark, small --------------------------------------------------


def test_smoke_run_of_every_workload():
    """``--smoke`` runs every workload at about 1/20 size (about 20 s on
    a 2-core machine); the timeout only guards against a hang."""
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    summary = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            value = summary["metrics"][f"{workload['name']}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0
