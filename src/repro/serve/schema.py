"""The versioned request API for ``repro serve``.

Every request and response is a frozen record with an explicit JSON
codec — the wire format is a contract, not a pickled implementation
detail.  ``API_VERSION`` names the current contract; it appears in the
URL (``/v1/...``), may ride in request bodies as ``"api"``, and is
echoed in every response.  A request carrying an unknown version is
rejected with the ``unsupported_version`` taxonomy code *before* any
field is interpreted, so old clients fail loudly instead of subtly.

The options sub-documents (``"options"`` for compile, ``"sim"`` for
simulation) mirror :class:`~repro.options.CompileOptions` and
:class:`~repro.options.SimOptions` field for field.
:func:`compile_options_from_json` / :func:`sim_options_from_json` are
the *only* parsers for those documents — the CLI's ``--options-json``
flag routes through the same two functions, so the HTTP API and the
command line cannot drift apart.

Failures surface as :class:`repro.errors.RequestError` (code
``bad_request`` / ``unsupported_version`` / ...) and are rendered by
:func:`error_body` into the structured error payload every endpoint
shares; :func:`status_for` maps the :mod:`repro.errors` taxonomy onto
HTTP status codes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import RequestError, error_payload
from repro.options import CompileOptions, SimOptions

#: the current request-API contract.  Bump when a request or response
#: field changes meaning or disappears; additive response fields do not
#: require a bump (clients must ignore unknown response fields).
API_VERSION = 1

#: ``compile`` / ``run`` / ``explain`` — the POST endpoints
KINDS = ("compile", "run", "explain")

#: options-document fields, name -> accepted JSON types.  ``None`` in a
#: document always means "server default".
_COMPILE_FIELDS: dict[str, tuple] = {
    "strategy": (str,),
    "heuristic": (str,),
    "schedule": (bool,),
    "fill_delay_slots": (bool,),
    "memory_size": (int,),
}
_SIM_FIELDS: dict[str, tuple] = {
    "cache": (bool,),
    "model_timing": (bool,),
    "max_instructions": (int,),
    "max_cycles": (int,),
    "trace": (bool,),
}


def _require_mapping(doc, what: str) -> dict:
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise RequestError(
            f"{what} must be a JSON object, got {type(doc).__name__}",
            details={"field": what},
        )
    return doc


def _options_from_json(doc, fields: dict, factory, what: str):
    """Validate an options document against ``fields`` and build the
    record, translating any constructor rejection (unknown strategy,
    bad heuristic) into a ``bad_request`` taxonomy error."""
    doc = _require_mapping(doc, what)
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise RequestError(
            f"unknown {what} field(s): {', '.join(unknown)}",
            details={"unknown": unknown, "known": sorted(fields)},
        )
    kwargs = {}
    for name, value in doc.items():
        if value is None:
            continue  # explicit null = server default
        types = fields[name]
        # bool is an int subclass — an int field must not accept true
        if isinstance(value, bool) and bool not in types:
            raise RequestError(
                f"{what}.{name} must be {types[0].__name__}, got bool",
                details={"field": f"{what}.{name}"},
            )
        if not isinstance(value, types):
            raise RequestError(
                f"{what}.{name} must be {types[0].__name__}, "
                f"got {type(value).__name__}",
                details={"field": f"{what}.{name}"},
            )
        kwargs[name] = value
    try:
        return factory(**kwargs)
    except Exception as exc:
        raise RequestError(
            str(exc), details={"field": what}
        ) from exc


def compile_options_from_json(doc) -> CompileOptions:
    """``{"strategy": "ips", "schedule": true, ...}`` ->
    :class:`CompileOptions`.  The single validation path shared by
    ``POST /v1/compile|run|explain`` and the CLI's ``--options-json``."""
    return _options_from_json(
        doc, _COMPILE_FIELDS, CompileOptions, "options"
    )


def sim_options_from_json(doc) -> SimOptions:
    """``{"cache": true, "max_cycles": 1000000, ...}`` ->
    :class:`SimOptions`.  ``cache`` is a boolean on the wire (a service
    cannot accept live cache instances)."""
    return _options_from_json(doc, _SIM_FIELDS, SimOptions, "sim")


def compile_options_to_json(options: CompileOptions) -> dict:
    """The document :func:`compile_options_from_json` parses."""
    return {name: getattr(options, name) for name in _COMPILE_FIELDS}


def sim_options_to_json(options: SimOptions) -> dict:
    """The document :func:`sim_options_from_json` parses.  A live cache
    instance flattens to ``true`` (the wire format is a boolean)."""
    doc = {name: getattr(options, name) for name in _SIM_FIELDS}
    doc["cache"] = bool(doc["cache"])
    return doc


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class CompileRequest:
    """``POST /v1/compile`` — C source -> scheduled assembly."""

    source: str
    target: str = "r2000"
    options: CompileOptions = CompileOptions()
    timeout_s: float | None = None


@dataclass(frozen=True)
class ExplainRequest:
    """``POST /v1/explain`` — compile, then annotate the listing with
    issue cycles and per-function stall-reason tallies."""

    source: str
    target: str = "r2000"
    options: CompileOptions = CompileOptions()
    timeout_s: float | None = None


@dataclass(frozen=True)
class RunRequest:
    """``POST /v1/run`` — compile, link and simulate one function."""

    source: str
    entry: str
    target: str = "r2000"
    args: tuple = ()
    options: CompileOptions = CompileOptions()
    sim: SimOptions = SimOptions()
    timeout_s: float | None = None


_TOP_FIELDS = {
    "compile": ("api", "source", "target", "options", "timeout_s"),
    "explain": ("api", "source", "target", "options", "timeout_s"),
    "run": (
        "api",
        "source",
        "entry",
        "args",
        "target",
        "options",
        "sim",
        "timeout_s",
    ),
}


def check_api_version(doc: dict) -> None:
    """Reject any explicit ``"api"`` other than :data:`API_VERSION`."""
    version = doc.get("api", API_VERSION)
    if version != API_VERSION:
        raise RequestError(
            f"unsupported API version {version!r}",
            code="unsupported_version",
            details={"requested": version, "supported": [API_VERSION]},
        )


def parse_request(kind: str, doc) -> CompileRequest | RunRequest | ExplainRequest:
    """One request document -> one frozen request record.

    Raises :class:`RequestError` (``unsupported_version`` for a version
    mismatch, ``bad_request`` for everything else) with field-level
    details; never returns a partially-valid record.
    """
    if kind not in KINDS:
        raise RequestError(f"unknown request kind {kind!r}")
    doc = _require_mapping(doc, "request")
    check_api_version(doc)
    allowed = _TOP_FIELDS[kind]
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(unknown)}",
            details={"unknown": unknown, "known": sorted(allowed)},
        )

    source = doc.get("source")
    if not isinstance(source, str) or not source.strip():
        raise RequestError(
            "source must be a non-empty string of C-subset code",
            details={"field": "source"},
        )
    target = doc.get("target", "r2000")
    if not isinstance(target, str):
        raise RequestError(
            f"target must be a string, got {type(target).__name__}",
            details={"field": "target"},
        )
    from repro.targets import TARGET_NAMES

    if target not in TARGET_NAMES:
        raise RequestError(
            f"unknown target {target!r}",
            details={"field": "target", "known": list(TARGET_NAMES)},
        )
    options = compile_options_from_json(doc.get("options"))
    timeout_s = doc.get("timeout_s")
    if timeout_s is not None:
        if isinstance(timeout_s, bool) or not isinstance(
            timeout_s, (int, float)
        ):
            raise RequestError(
                "timeout_s must be a number of seconds",
                details={"field": "timeout_s"},
            )
        if timeout_s <= 0:
            raise RequestError(
                "timeout_s must be positive",
                details={"field": "timeout_s"},
            )
        timeout_s = float(timeout_s)

    if kind in ("compile", "explain"):
        cls = CompileRequest if kind == "compile" else ExplainRequest
        return cls(
            source=source,
            target=target,
            options=options,
            timeout_s=timeout_s,
        )

    entry = doc.get("entry")
    if not isinstance(entry, str) or not entry:
        raise RequestError(
            "entry must name the function to run",
            details={"field": "entry"},
        )
    raw_args = doc.get("args", [])
    if not isinstance(raw_args, list):
        raise RequestError(
            "args must be a JSON array of numbers",
            details={"field": "args"},
        )
    args = []
    for position, value in enumerate(raw_args):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"args[{position}] must be a number, "
                f"got {type(value).__name__}",
                details={"field": f"args[{position}]"},
            )
        args.append(value)
    sim = sim_options_from_json(doc.get("sim"))
    return RunRequest(
        source=source,
        entry=entry,
        target=target,
        args=tuple(args),
        options=options,
        sim=sim,
        timeout_s=timeout_s,
    )


def request_key(kind: str, request) -> str:
    """The coalescing identity of a request: sha256 over everything that
    shapes its *value* — and nothing that does not (``timeout_s`` is
    excluded on purpose, so two callers with different patience share
    one compile)."""
    digest = hashlib.sha256()
    parts = [f"api{API_VERSION}", kind, request.target, request.source,
             repr(request.options)]
    if isinstance(request, RunRequest):
        parts += [request.entry, repr(request.args), repr(request.sim)]
    for part in parts:
        data = part.encode()
        digest.update(b"\x00%d\x00" % len(data))
        digest.update(data)
    return digest.hexdigest()


# -- responses --------------------------------------------------------------


@dataclass(frozen=True)
class CompileResponse:
    """``POST /v1/compile`` result: the scheduled listing plus compile
    provenance (``compiled`` / ``cgg_builds`` count *fresh* work this
    request caused — both 0 on an artifact-cache hit)."""

    key: str
    target: str
    strategy: str
    assembly: str
    functions: tuple
    instructions: int
    compiled: int
    cgg_builds: int
    api: int = API_VERSION

    def to_json(self) -> dict:
        return {
            "api": self.api,
            "key": self.key,
            "target": self.target,
            "strategy": self.strategy,
            "assembly": self.assembly,
            "functions": list(self.functions),
            "instructions": self.instructions,
            "compiled": self.compiled,
            "cgg_builds": self.cgg_builds,
        }


@dataclass(frozen=True)
class RunResponse:
    """``POST /v1/run`` result: the simulated execution."""

    key: str
    target: str
    strategy: str
    entry: str
    result: dict
    cycles: int
    instructions: int
    loads: int
    stores: int
    cache_hits: int
    cache_misses: int
    cycle_breakdown: dict | None
    compiled: int
    cgg_builds: int
    api: int = API_VERSION

    def to_json(self) -> dict:
        return {
            "api": self.api,
            "key": self.key,
            "target": self.target,
            "strategy": self.strategy,
            "entry": self.entry,
            "result": self.result,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cycle_breakdown": self.cycle_breakdown,
            "compiled": self.compiled,
            "cgg_builds": self.cgg_builds,
        }


@dataclass(frozen=True)
class ExplainResponse:
    """``POST /v1/explain`` result: the issue-cycle annotated listing
    plus per-function stall-reason tallies (conserved against
    ``nop_slots``, see the stall taxonomy in ``docs/internals.md``)."""

    key: str
    target: str
    strategy: str
    listing: str
    functions: dict
    api: int = API_VERSION

    def to_json(self) -> dict:
        return {
            "api": self.api,
            "key": self.key,
            "target": self.target,
            "strategy": self.strategy,
            "listing": self.listing,
            "functions": self.functions,
        }


# -- errors -----------------------------------------------------------------

#: taxonomy type -> HTTP status.  Anything unlisted: MarionError
#: subclasses are the *request's* fault (unprocessable source), other
#: exceptions are the server's.
_STATUS_BY_TYPE = {
    "RequestError": 400,
    "GridTimeout": 504,
    "SimulationTimeout": 504,
    "WorkerCrash": 500,
}


def status_for(payload: dict) -> int:
    """HTTP status for an :func:`repro.errors.error_payload` dict."""
    status = _STATUS_BY_TYPE.get(payload.get("type"))
    if status is not None:
        return status
    return 422 if payload.get("marion") else 500


def error_body(payload: dict) -> dict:
    """The structured error document every endpoint returns.

    ``code`` is stable and machine-readable (:class:`RequestError`
    carries its own; taxonomy errors use their type name), ``type`` /
    ``message`` / ``details`` come straight from the
    :func:`repro.errors.error_payload` flattening.
    """
    details = dict(payload.get("details", {}))
    code = details.pop("code", None) or payload.get("type", "error")
    return {
        "api": API_VERSION,
        "error": {
            "code": code,
            "type": payload.get("type", "Exception"),
            "message": payload.get("message", ""),
            "details": details,
        },
    }


def error_body_from_exception(exc: BaseException) -> tuple[int, dict]:
    """``(status, body)`` for a locally raised exception."""
    payload = error_payload(exc)
    return status_for(payload), error_body(payload)
