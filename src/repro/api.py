"""The canonical public API, in one import.

``import repro`` re-exports the same names for convenience; this module
is the *stable contract* — everything here is documented in
``docs/api.md``, covered by the deprecation policy, and safe to build
against.  Anything reachable only through submodule paths
(``repro.backend...``, ``repro.sim.pipeline...``) is internal and may
change between minor versions.
"""

from repro import compile_c, simulate
from repro.backend.codegen import CodeGenerator, MachineProgram
from repro.cache import ArtifactCache, get_cache
from repro.cache import configure as configure_cache
from repro.cgg import build_target
from repro.eval.executors import (
    Executor,
    ExecutorProbe,
    InprocessAsyncExecutor,
    LocalPoolExecutor,
    UnitEvent,
)
from repro.eval.grid import (
    FailureCollector,
    GridFailure,
    GridOptions,
    GridTask,
    run_grid,
)
from repro.errors import (
    GridTimeout,
    MarionError,
    RequestError,
    SimulationError,
    SimulationTimeout,
)
from repro.frontend import compile_to_il
from repro.machine.target import TargetMachine
from repro.maril import parse_maril
from repro.obs import Span, Trace, current_trace, span, tracing
from repro.options import CompileOptions, SimOptions
from repro.program import Executable, link
from repro.serve import (
    CompileRequest,
    CompileResponse,
    ExplainRequest,
    ExplainResponse,
    RunRequest,
    RunResponse,
    Service,
    ServeOptions,
    compile_options_from_json,
    serve_app,
    sim_options_from_json,
)
from repro.sim import DirectMappedCache, SimResult, Simulator, run_program
from repro.targets import TARGET_NAMES, clear_target_cache, load_target

#: kept sorted — ``tests/test_api_surface.py`` enforces it
__all__ = [
    "ArtifactCache",
    "CodeGenerator",
    "CompileOptions",
    "CompileRequest",
    "CompileResponse",
    "DirectMappedCache",
    "Executable",
    "Executor",
    "ExecutorProbe",
    "ExplainRequest",
    "ExplainResponse",
    "FailureCollector",
    "GridFailure",
    "GridOptions",
    "GridTask",
    "GridTimeout",
    "InprocessAsyncExecutor",
    "LocalPoolExecutor",
    "MachineProgram",
    "MarionError",
    "RequestError",
    "RunRequest",
    "RunResponse",
    "ServeOptions",
    "Service",
    "SimOptions",
    "SimResult",
    "SimulationError",
    "SimulationTimeout",
    "Simulator",
    "Span",
    "TARGET_NAMES",
    "TargetMachine",
    "Trace",
    "UnitEvent",
    "build_target",
    "clear_target_cache",
    "compile_c",
    "compile_options_from_json",
    "compile_to_il",
    "configure_cache",
    "current_trace",
    "get_cache",
    "link",
    "load_target",
    "parse_maril",
    "run_grid",
    "run_program",
    "serve_app",
    "sim_options_from_json",
    "simulate",
    "span",
    "tracing",
]
