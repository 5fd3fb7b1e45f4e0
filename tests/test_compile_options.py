"""The consolidated :class:`repro.CompileOptions` record, and the
removed pre-1.1 keyword spellings of every options-taking entry point."""

import dataclasses
from functools import partial

import pytest

import repro
from repro.backend.codegen import CodeGenerator
from repro.backend.strategies import get_strategy
from repro.eval.grid import GridTask, run_grid
from repro.options import CompileOptions
from repro.sim import run_program

SOURCE = """
int bench(int n) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        acc = acc + i * i;
    }
    return acc;
}
"""


# -- the record itself -----------------------------------------------------


def test_defaults():
    options = CompileOptions()
    assert options.strategy == "postpass"
    assert options.heuristic == "maxdist"
    assert options.schedule is True
    assert options.fill_delay_slots is False
    assert options.memory_size == 1 << 20


def test_frozen_and_hashable():
    options = CompileOptions(strategy="ips")
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.strategy = "rase"
    assert options == CompileOptions(strategy="ips")
    assert {options: "same"}[CompileOptions(strategy="ips")] == "same"


def test_replace_returns_new_record():
    base = CompileOptions()
    changed = base.replace(strategy="rase", schedule=False)
    assert changed.strategy == "rase" and changed.schedule is False
    assert base.strategy == "postpass"  # original untouched


def test_validation():
    with pytest.raises(repro.MarionError, match="unknown strategy"):
        CompileOptions(strategy="magic")
    with pytest.raises(ValueError, match="heuristic"):
        CompileOptions(heuristic="bogus")


def test_exported_at_top_level():
    assert repro.CompileOptions is CompileOptions


# -- the removed legacy spellings -------------------------------------------


#: compile-side keywords removed from compile_c and CodeGenerator
_COMPILE_KEYWORDS = ("strategy", "heuristic", "schedule", "fill_delay_slots")
#: sim-side keywords removed from simulate and run_program
_SIM_KEYWORDS = ("cache", "model_timing", "max_instructions", "max_cycles")


def _entry_point(name):
    """``(removed keywords, call)`` for one options-taking entry point;
    ``call(**kwargs)`` makes the call with otherwise valid arguments."""
    target = repro.load_target("r2000")
    if name == "CodeGenerator":
        return _COMPILE_KEYWORDS, partial(CodeGenerator, target)
    if name == "run_grid":
        return ("jobs",), partial(run_grid, [GridTask("abs", abs, (-2,))])
    exe = repro.compile_c(SOURCE, target, CompileOptions())
    if name == "simulate":
        return _SIM_KEYWORDS, partial(repro.simulate, exe, "bench", (3,))
    assert name == "run_program"
    return _SIM_KEYWORDS, partial(run_program, exe, "bench", (3,))


def _assert_each_keyword_raises(keywords, call):
    """Each removed keyword, passed alone, raises Python's own
    ``TypeError`` naming it."""
    for keyword in keywords:
        with pytest.raises(
            TypeError, match=f"unexpected keyword argument '{keyword}'"
        ):
            call(**{keyword: 1})


# compile_c, Simulator and Simulator.run: their own tests below and in
# tests/test_sim_options.py
@pytest.mark.parametrize(
    "name", ["CodeGenerator", "simulate", "run_program", "run_grid"]
)
def test_removed_keywords_raise_type_error(name):
    _assert_each_keyword_raises(*_entry_point(name))


def test_compile_c_legacy_kwargs_raise_naming_replacement():
    # the message names the keyword, which is also the name of the
    # CompileOptions field that replaces it
    with pytest.raises(
        TypeError, match="unexpected keyword argument 'strategy'"
    ):
        repro.compile_c(SOURCE, "r2000", strategy="rase")
    assert "strategy" in {
        field.name for field in dataclasses.fields(CompileOptions)
    }
    assert repro.compile_c(
        SOURCE, "r2000", CompileOptions(strategy="rase")
    ).instruction_count() > 0


def test_compile_c_rejects_options_plus_legacy_kwargs():
    with pytest.raises(
        TypeError, match="unexpected keyword argument 'strategy'"
    ):
        repro.compile_c(SOURCE, "r2000", CompileOptions(), strategy="rase")


def test_compile_c_legacy_error_names_every_kwarg():
    _assert_each_keyword_raises(
        _COMPILE_KEYWORDS + ("memory_size",),
        partial(repro.compile_c, SOURCE, "r2000"),
    )


def test_compile_c_modern_call_does_not_warn(recwarn):
    repro.compile_c(SOURCE, "r2000", CompileOptions())
    assert not [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]


def test_codegen_threads_options_through():
    target = repro.load_target("r2000")
    options = CompileOptions(
        strategy="ips", heuristic="fifo", fill_delay_slots=True
    )
    generator = CodeGenerator(target, options)
    assert generator.options is options
    assert generator.strategy_name == "ips"
    assert generator.fill_delay_slots is True
    assert generator.strategy.options is options
    assert generator.strategy.heuristic == "fifo"


def test_get_strategy_builds_options_when_missing():
    strategy = get_strategy("rase")
    assert strategy.options == CompileOptions(strategy="rase")
    assert strategy.heuristic == "maxdist"
    assert strategy.schedule_enabled is True


def test_memory_size_reaches_the_linker():
    small = repro.compile_c(
        SOURCE, "r2000", CompileOptions(memory_size=1 << 16)
    )
    assert small.memory_size == 1 << 16
