"""``repro serve`` — compile-and-simulate as a service.

The batch reproduction, service-shaped: a stdlib-only asyncio HTTP/JSON
API over the same compile/simulate/explain machinery the CLI and the
evaluation harness use, backed by a warm worker pool (the pluggable
:mod:`repro.eval.executors` layer) and the persistent artifact cache,
with in-flight request deduplication and per-request deadlines.

Layers:

* :mod:`repro.serve.schema` — the versioned request API: frozen
  request/response records, JSON codecs, the shared options-document
  parsers (also the CLI's ``--options-json`` path), and the error
  payload/status mapping over the :mod:`repro.errors` taxonomy;
* :mod:`repro.serve.workers` — the module-level work units a request
  becomes (module-level and picklable, so every executor backend can
  run them);
* :mod:`repro.serve.service` — the engine: executor-backed dispatch,
  deduplication, response memo, deadlines, counters, graceful drain;
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 front end.

Entry points: :func:`serve_app` builds a :class:`~repro.serve.service.Service`
from a :class:`~repro.serve.service.ServeOptions`; ``repro serve`` on
the command line wraps it.
"""

from __future__ import annotations

from repro.serve.schema import (
    API_VERSION,
    CompileRequest,
    CompileResponse,
    ExplainRequest,
    ExplainResponse,
    RunRequest,
    RunResponse,
    compile_options_from_json,
    sim_options_from_json,
)
from repro.serve.service import ServeOptions, Service

__all__ = [
    "API_VERSION",
    "CompileRequest",
    "CompileResponse",
    "ExplainRequest",
    "ExplainResponse",
    "RunRequest",
    "RunResponse",
    "ServeOptions",
    "Service",
    "compile_options_from_json",
    "serve_app",
    "sim_options_from_json",
]


def serve_app(options: ServeOptions | None = None) -> Service:
    """Build the service behind ``repro serve``.

    Returns an unstarted :class:`Service`; call ``.run()`` to serve
    until SIGTERM/SIGINT (graceful drain), or drive ``.start()`` /
    ``.stop()`` from your own event loop.
    """
    return Service(options if options is not None else ServeOptions())
