"""Marion — a retargetable instruction scheduling code generator system.

A from-scratch reproduction of Bradlee, Henry & Eggers, *"The Marion System
for Retargetable Instruction Scheduling"*, PLDI 1991.

Quickstart::

    import repro

    target = repro.load_target("r2000")
    exe = repro.compile_c(SOURCE, target, repro.CompileOptions(strategy="rase"))
    result = repro.simulate(exe, "main", args=(10,))
    print(result.return_value, result.cycles)

The public surface:

* :func:`load_target` — build one of the four bundled targets (TOYP,
  R2000, M88000, i860) from its Maril description;
* :func:`repro.maril.parse_maril` + :func:`repro.cgg.build_target` — build
  a target from your own Maril description (retargeting);
* :func:`compile_c` — C subset -> linked executable, via a chosen code
  generation strategy (``postpass``, ``ips``, ``rase``);
* :func:`simulate` — run a function under the cycle-level pipeline model;
* :mod:`repro.eval` — the harness that regenerates the paper's tables.
"""

import repro.cache as _artifact_cache
from repro.backend.codegen import CodeGenerator, MachineProgram
from repro.cgg import build_target
from repro.errors import (
    GridTimeout,
    JournalError,
    MarionError,
    RequestError,
    SimulationError,
    SimulationTimeout,
)
from repro.frontend import compile_to_il
from repro.machine.target import TargetMachine
import repro.obs as obs
from repro.maril import parse_maril
from repro.obs import Trace, current_trace, tracing
from repro.options import CompileOptions, SimOptions
from repro.program import Executable, link
from repro.sim import DirectMappedCache, SimResult, Simulator, run_program
from repro.targets import TARGET_NAMES, clear_target_cache, load_target

__version__ = "1.1.0"

__all__ = [
    "CodeGenerator",
    "CompileOptions",
    "DirectMappedCache",
    "Executable",
    "GridTimeout",
    "JournalError",
    "MachineProgram",
    "MarionError",
    "RequestError",
    "SimOptions",
    "SimResult",
    "SimulationError",
    "SimulationTimeout",
    "Simulator",
    "TARGET_NAMES",
    "TargetMachine",
    "Trace",
    "build_target",
    "clear_target_cache",
    "compile_c",
    "compile_to_il",
    "current_trace",
    "link",
    "load_target",
    "parse_maril",
    "run_program",
    "simulate",
    "tracing",
    "__version__",
    # evaluation grid + serve (lazy: see __getattr__)
    "Executor",
    "FailureCollector",
    "GridFailure",
    "GridOptions",
    "GridTask",
    "run_grid",
    "ServeOptions",
    "Service",
    "serve_app",
]

#: grid and serve names resolve lazily (PEP 562): importing
#: ``repro.eval`` pulls in the table modules, which import this package
#: back — a module-level import here would deadlock the package init on
#: itself; ``repro.serve`` sits on top of the grid's executor layer and
#: inherits the same cycle
_LAZY_EXPORTS = {
    "run_grid": "repro.eval.grid",
    "GridTask": "repro.eval.grid",
    "GridOptions": "repro.eval.grid",
    "GridFailure": "repro.eval.grid",
    "FailureCollector": "repro.eval.grid",
    "Executor": "repro.eval.executors",
    "ServeOptions": "repro.serve",
    "Service": "repro.serve",
    "serve_app": "repro.serve",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def compile_c(
    source: str,
    target: TargetMachine | str,
    options: CompileOptions | None = None,
) -> Executable:
    """Compile C-subset source text to a linked executable.

    All knobs live on one frozen :class:`CompileOptions` record::

        repro.compile_c(src, "r2000", repro.CompileOptions(strategy="rase"))
    """
    options = options if options is not None else CompileOptions()
    if isinstance(target, str):
        target = load_target(target)
    obs.count("compile.calls")
    # artifact cache (exe layer): executables are content-addressed by
    # (target identity, source text, options).  Only targets that came
    # through the cached load path carry a content_key — a hand-built
    # TargetMachine compiles uncached, by construction.
    store = _artifact_cache.get_cache()
    exe_key = None
    target_key = getattr(target, "content_key", None)
    if store.enabled and target_key:
        exe_key = store.key("exe", target_key, source, repr(options))
        cached_exe = store.get("exe", exe_key)
        if isinstance(cached_exe, Executable):
            return cached_exe
    obs.count("compile.compiled")
    with obs.span(
        "compile_c", target=target.name, strategy=options.strategy
    ):
        with obs.span("frontend"):
            il_program = compile_to_il(source)
        generator = CodeGenerator(target, options)
        machine_program = generator.compile_il(il_program)
        with obs.span("link"):
            executable = link(machine_program, memory_size=options.memory_size)
    executable.machine_program = machine_program  # keep stats reachable
    if exe_key is not None:
        executable.content_key = exe_key
        store.put("exe", exe_key, executable)
    return executable


def simulate(
    executable: Executable,
    function: str,
    args: tuple = (),
    arg_types: tuple | None = None,
    options: SimOptions | None = None,
) -> SimResult:
    """Run one function of a linked executable under the pipeline model.

    All knobs live on one frozen :class:`SimOptions` record::

        repro.simulate(exe, "main", (10,), options=repro.SimOptions(
            cache=True, max_cycles=1_000_000))

    ``SimOptions(max_cycles=...)`` arms the simulator watchdog (the run
    raises :class:`SimulationTimeout` exactly when its cycle count
    exceeds the budget); ``SimOptions(trace=True)`` attributes every
    stall cycle to a hazard kind in ``SimResult.cycle_breakdown``.
    Budgeted and traced runs take the same simulation engine as plain
    ones (block-timing memo and segment JIT).
    """
    options = options if options is not None else SimOptions()
    simulator = Simulator(executable, options)
    return simulator.run(function, args, arg_types=arg_types)
