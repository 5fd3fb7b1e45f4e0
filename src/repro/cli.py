"""Command line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE.c`` — compile to assembly text (choose target/strategy);
* ``run FILE.c --entry FN [--args ...]`` — compile, link, simulate;
* ``serve`` — the compile-and-simulate HTTP service (``repro.serve``);
* ``targets`` — list the bundled targets with description statistics;
* ``report`` — regenerate the paper's tables and figures;
* ``cache`` — inspect or clear the persistent artifact cache.

``compile`` and ``run`` accept their options either as individual flags
or as ``--options-json`` / ``--sim-json`` documents — the *same*
documents ``POST /v1/compile`` and ``POST /v1/run`` take, parsed by the
same :mod:`repro.serve.schema` validators, so the CLI and the service
cannot drift apart.  Explicit flags overlay the document.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.backend.asmprinter import format_program
from repro.errors import RequestError
from repro.targets import TARGET_NAMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target", default="r2000", choices=TARGET_NAMES, help="machine to compile for"
    )
    parser.add_argument(
        "--options-json",
        default="",
        metavar="DOC",
        help="compile options as a JSON document (or @FILE), the same "
        "document the service's POST /v1/compile accepts, e.g. "
        '\'{"strategy": "ips", "fill_delay_slots": true}\'; explicit '
        "flags overlay it",
    )
    parser.add_argument(
        "--strategy",
        default=None,
        choices=("postpass", "ips", "rase"),
        help="code generation strategy (default: postpass)",
    )
    parser.add_argument(
        "--heuristic",
        default=None,
        choices=("maxdist", "fifo"),
        help="list scheduling priority heuristic (default: maxdist)",
    )
    parser.add_argument(
        "--no-schedule",
        action="store_true",
        help="disable instruction scheduling (nop-filled baseline)",
    )
    parser.add_argument(
        "--fill-delay-slots",
        action="store_true",
        help="fill branch delay slots with useful work (GH82 extension)",
    )


def _load_json_document(text: str, flag: str):
    """An ``--options-json``/``--sim-json`` value -> parsed JSON.

    ``@FILE`` reads the document from a file; anything else is inline
    JSON.  Validation beyond well-formedness belongs to the schema
    parsers this feeds.
    """
    if not text:
        return {}
    import json

    if text.startswith("@"):
        with open(text[1:]) as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RequestError(
            f"{flag} is not valid JSON: {exc}", details={"field": flag}
        ) from None


def _compile_options(arguments) -> repro.CompileOptions:
    """The service's options path, CLI-shaped: start from the
    ``--options-json`` document, overlay explicit flags, validate through
    :func:`repro.serve.schema.compile_options_from_json`."""
    from repro.serve.schema import compile_options_from_json

    doc = _load_json_document(arguments.options_json, "--options-json")
    if isinstance(doc, dict):
        doc = dict(doc)
        if arguments.strategy is not None:
            doc["strategy"] = arguments.strategy
        if arguments.heuristic is not None:
            doc["heuristic"] = arguments.heuristic
        if arguments.no_schedule:
            doc["schedule"] = False
        if arguments.fill_delay_slots:
            doc["fill_delay_slots"] = True
    return compile_options_from_json(doc)


def _compile(arguments) -> repro.Executable:
    with open(arguments.file) as handle:
        source = handle.read()
    return repro.compile_c(source, arguments.target, _compile_options(arguments))


def cmd_compile(arguments) -> int:
    executable = _compile(arguments)
    text = format_program(
        executable.machine_program, explain=arguments.explain_schedule
    )
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _sim_options(arguments, trace_enabled: bool) -> repro.SimOptions:
    """Same deal as :func:`_compile_options`, for the simulation side:
    the ``--sim-json`` document is exactly the ``"sim"`` member of a
    ``POST /v1/run`` body."""
    from repro.serve.schema import sim_options_from_json

    doc = _load_json_document(arguments.sim_json, "--sim-json")
    if isinstance(doc, dict):
        doc = dict(doc)
        if arguments.cache:
            doc["cache"] = True
        if trace_enabled:
            doc["trace"] = True
    return sim_options_from_json(doc)


def cmd_run(arguments) -> int:
    trace_path = arguments.trace
    trace = repro.Trace(f"repro run {arguments.file}") if trace_path else None
    options = _sim_options(arguments, trace_enabled=bool(trace_path))

    def _go():
        executable = _compile(arguments)
        args = tuple(
            float(a) if "." in a else int(a) for a in (arguments.args or [])
        )
        return repro.simulate(
            executable, arguments.entry, args=args, options=options
        )

    if trace is not None:
        with repro.tracing(trace):
            result = _go()
    else:
        result = _go()
    print(f"result:       {result.return_value}")
    print(f"cycles:       {result.cycles}")
    print(f"instructions: {result.instructions}")
    print(f"loads/stores: {result.loads}/{result.stores}")
    if options.cache:
        print(f"cache:        {result.cache_hits} hits, {result.cache_misses} misses")
    if result.jit_active_segments or result.jit_hits or result.jit_deopts:
        # active = compiled this run + preloaded from the artifact cache,
        # so a fully warm run does not read as "JIT off"
        print(
            f"jit:          {result.jit_active_segments} segments active "
            f"({result.jit_segments} compiled this run), "
            f"{result.jit_hits} dispatch hits, {result.jit_deopts} deopts"
        )
    if result.block_cache_hits or result.block_cache_misses:
        print(
            f"timing memo:  {result.block_cache_hits} hits, "
            f"{result.block_cache_misses} misses, "
            f"{result.timing_digests} digests computed"
        )
    if result.cycle_breakdown is not None:
        shown = ", ".join(
            f"{kind}={count}"
            for kind, count in result.cycle_breakdown.items()
            if count
        )
        print(f"stalls:       {result.stall_cycles} ({shown or 'none'})")
    if trace is not None:
        trace.write(trace_path, format=arguments.trace_format)
        print(f"trace:        {trace_path} ({arguments.trace_format})")
    return 0


def cmd_serve(arguments) -> int:
    from repro.serve import ServeOptions, serve_app

    options = ServeOptions(
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        executor=arguments.executor,
        request_timeout=arguments.request_timeout,
        warm=tuple(arguments.warm or ()),
        memo_size=arguments.memo_size,
        drain_grace=arguments.drain_grace,
    )
    return serve_app(options).run()


def cmd_targets(arguments) -> int:
    from repro.eval.table1 import description_stats

    if arguments.json:
        import json

        payload = []
        for name in TARGET_NAMES:
            target = repro.load_target(name)
            stats = description_stats(name)
            payload.append(
                {
                    "name": name,
                    "register_classes": sorted(target.registers.sets),
                    "resources": len(target.resources.names),
                    "instructions": len(target.instructions),
                    "description": {
                        "instructions": stats.instructions,
                        "clocks": stats.clocks,
                        "class_elements": stats.elements,
                        "glue_transformations": stats.glue_transformations,
                        "funcs": stats.funcs,
                    },
                }
            )
        print(json.dumps(payload, indent=2))
        return 0
    for name in TARGET_NAMES:
        stats = description_stats(name)
        print(
            f"{name:8s} {stats.instructions:3d} instructions, "
            f"{stats.clocks} clocks, {stats.elements} class elements, "
            f"{stats.glue_transformations} glue rules, {stats.funcs} funcs"
        )
    return 0


def cmd_report(arguments) -> int:
    from repro.eval.report import run_report_command

    return run_report_command(arguments)


def cmd_cache(arguments) -> int:
    from repro.cache import get_cache

    store = get_cache()
    if arguments.cache_command == "path":
        print(store.root)
        return 0
    if arguments.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    # stats
    stats = store.stats()
    if arguments.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    state = "enabled" if stats["enabled"] else "DISABLED (REPRO_CACHE=0)"
    print(f"root:  {stats['root']}  [{state}, salt {stats['salt']}]")
    layers = stats["layers"]
    if not layers:
        print("empty")
    for layer, entry in sorted(layers.items()):
        print(
            f"{layer:8s} {entry['entries']:5d} entr{'y' if entry['entries'] == 1 else 'ies'}, "
            f"{entry['bytes'] / 1024:.1f} KiB"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Marion retargetable code generator"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser("compile", help="compile C to assembly")
    compile_parser.add_argument("file")
    compile_parser.add_argument("-o", "--output", help="write assembly here")
    compile_parser.add_argument(
        "--explain-schedule",
        action="store_true",
        help="annotate the listing with issue cycles and stall reasons "
        "from the final scheduling pass",
    )
    _add_common(compile_parser)
    compile_parser.set_defaults(handler=cmd_compile)

    run_parser = commands.add_parser("run", help="compile and simulate")
    run_parser.add_argument("file")
    run_parser.add_argument("--entry", required=True, help="function to run")
    run_parser.add_argument(
        "--args", nargs="*", help="arguments (ints, or floats with a '.')"
    )
    run_parser.add_argument(
        "--cache", action="store_true", help="enable the data cache model"
    )
    run_parser.add_argument(
        "--sim-json",
        default="",
        metavar="DOC",
        help="simulation options as a JSON document (or @FILE), the same "
        '"sim" member the service\'s POST /v1/run accepts, e.g. '
        '\'{"cache": true, "max_cycles": 1000000}\'; explicit flags '
        "overlay it",
    )
    run_parser.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="record a compile+simulate trace (spans, counters, per-kind "
        "stall cycles) and write it here",
    )
    run_parser.add_argument(
        "--trace-format",
        default="json",
        choices=("json", "chrome"),
        help="trace file format: plain JSON or Chrome trace_event "
        "(load chrome://tracing or https://ui.perfetto.dev)",
    )
    _add_common(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    serve_parser = commands.add_parser(
        "serve",
        help="run the compile-and-simulate HTTP service",
        description="Serve POST /v1/compile, /v1/run, /v1/explain and "
        "GET /v1/targets, /v1/healthz, /v1/stats over HTTP/JSON, backed "
        "by a warm worker pool, the persistent artifact cache, in-flight "
        "request deduplication and per-request deadlines.  SIGTERM "
        "drains gracefully.",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8177,
        help="port to bind (0 picks a free port, printed on startup)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size (default: REPRO_JOBS or the cpu count)",
    )
    serve_parser.add_argument(
        "--executor",
        default="local",
        choices=("local", "inprocess"),
        help="execution backend: local (process pool, the default) or "
        "inprocess (serial)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request deadline ceiling; a request's own timeout_s "
        "may only tighten it (default: 60)",
    )
    serve_parser.add_argument(
        "--warm",
        nargs="*",
        choices=TARGET_NAMES,
        help="targets to build before serving, so forked workers "
        "inherit warm caches",
    )
    serve_parser.add_argument(
        "--memo-size",
        type=int,
        default=256,
        help="completed-response memo entries (0 disables; default: 256)",
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests (default: 10)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    targets_parser = commands.add_parser("targets", help="list bundled targets")
    targets_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (name, register classes, resource "
        "and instruction counts)",
    )
    targets_parser.set_defaults(handler=cmd_targets)

    report_parser = commands.add_parser(
        "report",
        help="regenerate the paper's tables and figures (fault-tolerant: "
        "--timeout bounds each unit, --resume checkpoints into a journal; "
        "exits nonzero when any unit fails)",
    )
    from repro.eval.report import add_report_arguments

    add_report_arguments(report_parser)
    report_parser.set_defaults(handler=cmd_report)

    cache_parser = commands.add_parser(
        "cache",
        help="the persistent artifact cache (REPRO_CACHE_DIR overrides "
        "the ~/.cache/repro default; REPRO_CACHE=0 disables it)",
    )
    cache_commands = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    stats_parser = cache_commands.add_parser(
        "stats", help="per-layer artifact counts and sizes"
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="machine-readable statistics"
    )
    cache_commands.add_parser("clear", help="delete every cached artifact")
    cache_commands.add_parser("path", help="print the cache directory")
    cache_parser.set_defaults(handler=cmd_cache)

    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except RequestError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
