"""Which end-to-end metric, on which workload, each per-layer metric
should move.

``BENCHMARK.json`` lists the per-layer metrics (name, unit, direction);
this table adds what the file's schema has no room for: the workload
that measures the layer and the end-to-end metric a change to the layer
should show up in.  ``bench/tests`` keeps the two in step.  Self times
(``*.self_s``) are span durations minus their child spans; compile
self times are per pass over the compile workload's units, steady
simulation numbers per pass over the simulate workload's units.
"""

S, COUNT, RATIO, PER_PASS = "s", "count", "ratio", "count/pass"

#: the workload of a metric every workload measures alike
EVERY = "*"

#: name -> (unit, better, workload, end-to-end metric it should move)
LAYERS = {
    # set-up of the compile workload: Maril front end and the CGG
    "maril.parse_s": (S, "lower", "compile", "setup_s"),
    "cgg.build_s": (S, "lower", "compile", "setup_s"),
    # the compiler, per pass over the compile workload's units
    "frontend.self_s": (S, "lower", "compile", "throughput"),
    "backend.lower.self_s": (S, "lower", "compile", "throughput"),
    "backend.select.self_s": (S, "lower", "compile", "throughput"),
    "backend.strategy.self_s": (S, "lower", "compile", "throughput"),
    "backend.schedule.self_s": (S, "lower", "compile", "throughput"),
    "backend.regalloc.self_s": (S, "lower", "compile", "op_ms_p95"),
    "backend.other.self_s": (S, "lower", "compile", "throughput"),
    "program.link_s": (S, "lower", "compile", "throughput"),
    "compile.other_s": (S, "lower", "compile", "op_ms_p50"),
    "compile.traced_s": (S, "lower", "compile", "throughput"),
    "compile.passes": (COUNT, "higher", "compile", "throughput"),
    # scheduling work and schedule quality, over the 76 fixed units
    "backend.schedule.blocks": (COUNT, "lower", "compile", "throughput"),
    "backend.schedule.passes.postpass": (RATIO, "lower", "compile", "throughput"),
    "backend.schedule.passes.ips": (RATIO, "lower", "compile", "throughput"),
    "backend.schedule.passes.rase": (RATIO, "lower", "compile", "throughput"),
    "backend.regalloc.spilled": (COUNT, "lower", "compile", "cycles"),
    "backend.regalloc.iterations": (COUNT, "lower", "compile", "op_ms_p95"),
    "backend.nop_slots": (COUNT, "lower", "compile", "cycles"),
    "compile.code_size": (COUNT, "lower", "compile", "cycles"),
    # the simulator's first run of fresh executables (simulate set-up)
    "sim.first_s": (S, "lower", "simulate", "setup_s"),
    "sim.first.self_s": (S, "lower", "simulate", "setup_s"),
    "sim.first.jit.segments": (COUNT, "lower", "simulate", "setup_s"),
    "sim.first.jit.superblocks": (COUNT, "lower", "simulate", "setup_s"),
    "sim.first.timing.digests_computed": (COUNT, "lower", "simulate", "setup_s"),
    "sim.first.block_cache.miss": (COUNT, "lower", "simulate", "setup_s"),
    # the simulator's steady state, per pass
    "sim.steady.passes": (COUNT, "higher", "simulate", "throughput"),
    "sim.steady.self_s": (S, "lower", "simulate", "throughput"),
    "sim.steady.other_s": (S, "lower", "simulate", "op_ms_p50"),
    "sim.steady.jit.hit": (PER_PASS, "higher", "simulate", "throughput"),
    "sim.steady.jit.side_exits": (PER_PASS, "lower", "simulate", "throughput"),
    "sim.steady.jit.deopt": (PER_PASS, "lower", "simulate", "throughput"),
    "sim.steady.block_cache.hit_rate": (RATIO, "higher", "simulate", "throughput"),
    "sim.steady.timing.digest_rate": (RATIO, "lower", "simulate", "throughput"),
    # the budgeted, stall-accounted runs among them
    "sim.guarded.self_s": (S, "lower", "simulate", "op_ms_p50"),
    "sim.guarded.fast_path_share": (RATIO, "higher", "simulate", "throughput"),
    "sim.stall.resource": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.latency": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.load_use": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.cache_miss": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.fp_advance": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.memory_order": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.branch": (PER_PASS, "lower", "simulate", "cycles"),
    "sim.stall.packing": (PER_PASS, "lower", "simulate", "cycles"),
    # times as measured, before scaling to the reference speed: on
    # every workload, beside the end-to-end metric each scales to
    "raw.setup_s": (S, "lower", EVERY, "setup_s"),
    "raw.op_ms_p50": ("ms", "lower", EVERY, "op_ms_p50"),
    "raw.op_ms_p95": ("ms", "lower", EVERY, "op_ms_p95"),
}
