"""The SimOptions record, the simulator's option-taking entry points and
the removed keyword spellings of ``Simulator`` and ``Simulator.run``
(those of ``simulate`` and ``run_program``:
``tests/test_compile_options.py``)."""

import dataclasses
import dis

import pytest

import repro
from repro.sim import DirectMappedCache, Simulator, run_program
from repro.sim.simulator import WATCHDOG_STRIDE

SOURCE = "int f(int a, int b) { return a * b + 7; }"


@pytest.fixture(scope="module")
def exe():
    return repro.compile_c(SOURCE, "r2000", repro.CompileOptions())


# -- the record itself -------------------------------------------------------


def test_sim_options_is_frozen():
    options = repro.SimOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.max_cycles = 5


def test_sim_options_defaults_and_replace():
    options = repro.SimOptions()
    assert [field.name for field in dataclasses.fields(options)] == [
        "cache", "model_timing", "max_instructions", "max_cycles", "trace",
    ]
    assert options.cache is None
    assert options.model_timing is True
    assert options.max_cycles is None
    assert options.trace is False
    bumped = options.replace(max_cycles=100, trace=True)
    assert bumped.max_cycles == 100
    assert bumped.trace is True
    assert options.max_cycles is None  # original untouched


# -- constructor -----------------------------------------------------------


def test_simulator_legacy_kwargs_raise(exe):
    for keyword in ("cache", "model_timing"):
        with pytest.raises(
            TypeError, match=f"unexpected keyword argument '{keyword}'"
        ):
            Simulator(exe, **{keyword: False})


def test_simulator_options_plus_legacy_is_an_error(exe):
    with pytest.raises(
        TypeError, match="unexpected keyword argument 'model_timing'"
    ):
        Simulator(exe, repro.SimOptions(), model_timing=False)


def test_simulator_cache_resolution(exe):
    assert Simulator(exe, repro.SimOptions(cache=None)).cache is None
    assert Simulator(exe, repro.SimOptions(cache=False)).cache is None
    default = Simulator(exe, repro.SimOptions(cache=True)).cache
    assert isinstance(default, DirectMappedCache)
    mine = DirectMappedCache(size=256)
    assert Simulator(exe, repro.SimOptions(cache=mine)).cache is mine


# -- run-level options -------------------------------------------------------


def test_run_options_override_constructor(exe):
    sim = Simulator(exe, repro.SimOptions(model_timing=True))
    timed = sim.run("f", (3, 4))
    functional = sim.run(
        "f", (3, 4), options=repro.SimOptions(model_timing=False)
    )
    assert timed.return_value["int"] == 19
    assert functional.return_value["int"] == 19
    assert functional.cycles == functional.instructions
    assert timed.cycles >= functional.cycles
    # the constructor record is untouched by the per-run override
    assert sim.run("f", (3, 4)).cycles == timed.cycles


def test_run_legacy_limit_kwargs_raise(exe):
    sim = Simulator(exe)
    for keyword in ("max_instructions", "max_cycles"):
        with pytest.raises(
            TypeError, match=f"unexpected keyword argument '{keyword}'"
        ):
            sim.run("f", (2, 2), **{keyword: 10_000})


def test_run_legacy_trace_keyword_names_watch(exe):
    # trace= is gone; the same callback goes through watch=
    sim = Simulator(exe)
    seen = []

    def callback(pc, instr, cycle):
        seen.append(pc)

    with pytest.raises(TypeError, match="unexpected keyword argument 'trace'"):
        sim.run("f", (2, 2), trace=callback)
    assert not seen
    sim.run("f", (2, 2), watch=callback)
    assert seen


def test_run_watch_callback(exe):
    sim = Simulator(exe)
    seen = []
    result = sim.run(
        "f", (2, 2), watch=lambda pc, instr, cycle: seen.append((pc, cycle))
    )
    # one call per issued instruction (delay-slot fills execute inline
    # without a separate watch call)
    assert 0 < len(seen) <= result.instructions
    cycles = [cycle for _pc, cycle in seen]
    assert cycles == sorted(cycles)


def test_max_cycles_watchdog():
    looping = repro.compile_c(
        "int f(int n) { int i; i = 0; while (n) { i = i + 1; } return i; }",
        "r2000",
        repro.CompileOptions(),
    )
    from repro.errors import SimulationTimeout

    sim = Simulator(looping)
    with pytest.raises(SimulationTimeout) as info:
        sim.run("f", (1,), options=repro.SimOptions(max_cycles=2_000))
    # the loop ran as a chained compiled function, which the armed
    # watchdog's fuse cap brought back to the boundary check within
    # about one stride of the budget
    assert 2_000 < info.value.cycle < 2_000 + 2 * WATCHDOG_STRIDE
    # a chained function's ``while 1`` is a backward jump
    chained = [
        record
        for record in looping._segment_jit.functions(False).values()
        if record is not None and any(
            "JUMP" in op.opname and op.argval < op.offset
            for op in dis.get_instructions(record[0])
        )
    ]
    assert chained


# -- module-level entry points -----------------------------------------------


def test_run_program_options(exe):
    result = run_program(
        exe, "f", (5, 6), options=repro.SimOptions(model_timing=False)
    )
    assert result.return_value["int"] == 37
    assert result.cycles == result.instructions


def test_simulate_options_form_is_warning_free(exe):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = repro.simulate(
            exe, "f", (1, 1), options=repro.SimOptions(cache=True)
        )
    assert result.return_value["int"] == 8


# -- facade ------------------------------------------------------------------


def test_api_facade_exports():
    from repro import api

    for name in (
        "compile_c",
        "simulate",
        "CompileOptions",
        "SimOptions",
        "Trace",
        "tracing",
        "Simulator",
        "run_program",
    ):
        assert hasattr(api, name), name
        assert name in api.__all__
