"""The observability layer: Trace spans, counters, export, ambience."""

import json

import pytest

import repro
from repro.obs import Trace, count, current_trace, span, tracing


def test_span_tree_nesting():
    trace = Trace("t")
    with trace.span("outer", color="red") as outer:
        with trace.span("inner") as inner:
            pass
    assert trace.root.children[0] is outer
    assert outer.children[0] is inner
    assert outer.attrs == {"color": "red"}
    assert outer.seconds >= inner.seconds >= 0.0


def test_counters_and_phase_seconds():
    trace = Trace("t")
    trace.count("hits")
    trace.count("hits", 2)
    trace.add_seconds("phase.a", 0.5)
    trace.add_seconds("phase.a", 0.25)
    summary = trace.summary()
    assert summary["counters"]["hits"] == 3
    assert summary["phases"]["phase.a"]["seconds"] == pytest.approx(0.75)
    assert summary["phases"]["phase.a"]["calls"] == 2


def test_merge_summary_accumulates():
    a = Trace("a")
    a.count("n", 1)
    a.add_seconds("p", 1.0)
    b = Trace("b")
    b.count("n", 2)
    b.add_seconds("p", 0.5)
    a.merge_summary(b.summary())
    merged = a.summary()
    assert merged["counters"]["n"] == 3
    assert merged["phases"]["p"]["seconds"] == pytest.approx(1.5)
    assert merged["phases"]["p"]["calls"] == 2


def test_ambient_tracing_contextvar():
    assert current_trace() is None
    trace = Trace("ambient")
    with tracing(trace):
        assert current_trace() is trace
        with span("step", k=1) as node:
            count("things", 4)
        assert node.attrs == {"k": 1}
    assert current_trace() is None
    assert trace.counters["things"] == 4
    assert [s.name for s in trace.root.children] == ["step"]


def test_span_is_noop_without_active_trace():
    # must not raise, must yield None
    with span("nothing") as node:
        assert node is None
    count("nothing", 5)  # no-op


def test_to_json_and_chrome_roundtrip(tmp_path):
    trace = Trace("export")
    with trace.span("a"):
        with trace.span("b"):
            pass
    trace.count("c", 7)

    plain = tmp_path / "t.json"
    chrome = tmp_path / "t.chrome.json"
    trace.write(str(plain), format="json")
    trace.write(str(chrome), format="chrome")

    doc = json.loads(plain.read_text())
    assert doc["counters"]["c"] == 7

    chrome_doc = json.loads(chrome.read_text())
    events = chrome_doc["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    names = {e["name"] for e in events}
    assert {"a", "b"} <= names
    assert chrome_doc["displayTimeUnit"] == "ms"
    # counters ride on the root event
    assert events[0]["args"]["counters"]["c"] == 7

    with pytest.raises(ValueError):
        trace.write(str(plain), format="xml")


def test_compile_records_spans_per_phase():
    trace = Trace("compile")
    with tracing(trace):
        repro.compile_c(
            "int f(int a) { return a * 2; }",
            "toyp",
            repro.CompileOptions(strategy="ips"),
        )
    phases = trace.summary()["phases"]
    for expected in (
        "compile_c",
        "frontend",
        "codegen:f",
        "lower",
        "select",
        "strategy:ips",
        "allocate",
        "schedule[final]",
        "link",
    ):
        assert expected in phases, expected


def test_simulate_records_span_and_stall_counters():
    exe = repro.compile_c(
        "int f(int a) { return a * a * a; }", "toyp", repro.CompileOptions()
    )
    trace = Trace("sim")
    with tracing(trace):
        result = repro.simulate(
            exe, "f", (3,), options=repro.SimOptions(trace=True)
        )
    assert result.return_value["int"] == 27
    phases = trace.summary()["phases"]
    assert "simulate:f" in phases
    counted = sum(
        amount
        for name, amount in trace.counters.items()
        if name.startswith("sim.stall.")
    )
    assert counted == result.stall_cycles


def test_one_trace_counts_a_compile_and_each_run_once():
    # the simulator writes every sim.* counter from its SimResult fields,
    # through one table; a gauge (live JIT segments) is a field only
    from repro.sim.simulator import SIM_COUNTERS
    from repro.workloads import kernel_by_id

    spec = kernel_by_id(1)
    trace = Trace("k1")
    with tracing(trace):
        exe = repro.compile_c(spec.source, "r2000", repro.CompileOptions())
        runs = [
            repro.simulate(
                exe, "bench", (spec.args[0], 20),
                options=repro.SimOptions(cache=True),
            )
            for _ in range(3)
        ]
    counters = trace.counters
    assert counters["compile.compiled"] == 1
    for field, name in SIM_COUNTERS:
        assert counters.get(name, 0) == sum(
            getattr(run, field) for run in runs
        ), name
    assert counters["sim.instructions"] == 3 * runs[0].instructions > 0
    assert runs[-1].jit_active_segments > 0
    assert "sim.jit.active_segments" not in counters
    assert {name for name in counters if name.startswith("sim.")} <= {
        name for _field, name in SIM_COUNTERS
    }
