"""The target-build cache: one CGG build per target name per process,
cache hits return the same instance, and compilation never mutates a
cached target (compiled code is bit-identical to fresh-target output)."""

import repro
from repro.backend.asmprinter import format_program
from repro.targets import load_target

PROGRAM_A = """
int sum(int n) {
    int i;
    int total;
    total = 0;
    for (i = 0; i < n; i++) { total = total + i; }
    return total;
}
"""

PROGRAM_B = """
double scale(double x, int k) {
    int i;
    for (i = 0; i < k; i++) { x = x * 1.5 + 0.25; }
    return x;
}
"""


def test_repeated_load_returns_same_instance():
    first = load_target("r2000")
    second = load_target("r2000")
    assert first is second


def test_single_cgg_build_per_name_per_process():
    load_target("m88000")
    trace = repro.Trace("reloads")
    with repro.tracing(trace):
        for _ in range(5):
            load_target("m88000")
    assert trace.counters.get("cgg.builds", 0) == 0
    assert trace.counters["target_cache.hit"] == 5


def test_fresh_returns_distinct_instance():
    cached = load_target("toyp")
    fresh = load_target("toyp", fresh=True)
    assert fresh is not cached
    # the fresh instance must not displace the cached one
    assert load_target("toyp") is cached


def test_fresh_instances_are_independent():
    a = load_target("r2000", fresh=True)
    b = load_target("r2000", fresh=True)
    assert a is not b


def _compile_text(target, source, strategy):
    executable = repro.compile_c(source, target, repro.CompileOptions(strategy=strategy))
    return format_program(executable.machine_program)


def test_cached_target_not_mutated_by_compilation():
    """Two back-to-back compiles on one cached target produce code
    bit-identical to compiles on two fresh targets."""
    cached = load_target("r2000")
    for strategy in ("postpass", "ips", "rase"):
        cached_a = _compile_text(cached, PROGRAM_A, strategy)
        cached_b = _compile_text(cached, PROGRAM_B, strategy)
        fresh_a = _compile_text(
            load_target("r2000", fresh=True), PROGRAM_A, strategy
        )
        fresh_b = _compile_text(
            load_target("r2000", fresh=True), PROGRAM_B, strategy
        )
        assert cached_a == fresh_a
        assert cached_b == fresh_b
        # and the cached target keeps producing the same code afterwards
        assert _compile_text(cached, PROGRAM_A, strategy) == fresh_a


def test_cached_target_structure_stable_across_compiles():
    target = load_target("i860")
    instruction_count = len(target.instructions)
    register_sets = sorted(target.registers.sets)
    repro.compile_c(PROGRAM_B, target, repro.CompileOptions(strategy="postpass"))
    assert len(target.instructions) == instruction_count
    assert sorted(target.registers.sets) == register_sets
