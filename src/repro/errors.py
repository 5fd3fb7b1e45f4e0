"""Exception hierarchy for the Marion reproduction.

Every user-facing failure raised by this package derives from
:class:`MarionError` so that callers can catch one type.  Errors that point
at a location in source text (Maril descriptions or C-subset programs)
derive from :class:`SourceError` and render ``file:line:col`` prefixes.

The taxonomy also crosses process boundaries: the parallel evaluation
grid runs work units in worker processes and reports their failures as
data, not raises.  :func:`error_payload` flattens any exception to a
JSON-ready dict (type, module, message, structured details, traceback)
and :func:`reconstruct_error` rebuilds the closest possible exception
from such a payload in the parent.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in an input text, for diagnostics."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class MarionError(Exception):
    """Base class for all errors raised by the repro package."""


class SourceError(MarionError):
    """An error tied to a location in some source text."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        self.message = message
        prefix = f"{location}: " if location is not None else ""
        super().__init__(prefix + message)


class MarilSyntaxError(SourceError):
    """Lexical or grammatical error in a Maril machine description."""


class MarilSemanticError(SourceError):
    """A Maril description that parses but is inconsistent."""


class CSyntaxError(SourceError):
    """Lexical or grammatical error in a C-subset source program."""


class CSemanticError(SourceError):
    """Type or scope error in a C-subset source program."""


class SelectionError(MarionError):
    """No instruction pattern matched an IL tree."""


class SchedulingError(MarionError):
    """The scheduler could not produce a legal schedule."""


class AllocationError(MarionError):
    """The register allocator could not color the interference graph."""


class SimulationError(MarionError):
    """The simulator encountered an illegal state at run time.

    Carries the dynamic context of the fault — ``function`` (the entry
    point being simulated), ``pc`` (instruction index) and ``cycle``
    (pipeline cycle, or instruction count when timing is off) — whenever
    the raise site knows it, so a failed evaluation cell can say *where*
    a kernel died, not just that it did.
    """

    def __init__(
        self,
        message: str,
        *,
        function: str | None = None,
        pc: int | None = None,
        cycle: int | None = None,
    ):
        self.function = function
        self.pc = pc
        self.cycle = cycle
        context = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("function", function),
                ("pc", pc),
                ("cycle", cycle),
            )
            if value is not None
        )
        super().__init__(f"{message} [{context}]" if context else message)


class SimulationTimeout(SimulationError):
    """The simulator's cycle watchdog fired (``Simulator.run(max_cycles=...)``).

    A runaway kernel becomes a structured, catchable failure — the
    evaluation harness renders it as a FAILED table cell — instead of an
    open-ended hang.  ``max_cycles`` records the budget that was
    exceeded; the inherited ``function``/``pc``/``cycle`` fields say
    where execution was when the watchdog fired.
    """

    def __init__(
        self,
        message: str,
        *,
        max_cycles: int | None = None,
        function: str | None = None,
        pc: int | None = None,
        cycle: int | None = None,
    ):
        self.max_cycles = max_cycles
        super().__init__(message, function=function, pc=pc, cycle=cycle)


class GridTimeout(MarionError):
    """A grid work unit exceeded its wall-clock budget (``--timeout``)."""

    def __init__(self, message: str, *, seconds: float | None = None):
        self.seconds = seconds
        super().__init__(message)


class RequestError(MarionError):
    """A malformed request to the compile-and-simulate service.

    Raised by the versioned request codecs (:mod:`repro.serve.schema`)
    — and by the CLI's ``--options-json`` path, which shares them — for
    anything wrong with the request document itself: invalid JSON, an
    unsupported API version, unknown or ill-typed fields.  ``code`` is
    the stable machine-readable discriminator (``bad_request``,
    ``unsupported_version``, ``unknown_endpoint``, ...) that the HTTP
    layer returns in the structured error payload; ``details`` carries
    field-level specifics.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "bad_request",
        details: dict | None = None,
    ):
        self.code = code
        self.details = dict(details or {})
        super().__init__(message)


#: exception attributes worth carrying across a process boundary
_DETAIL_FIELDS = (
    "function",
    "pc",
    "cycle",
    "max_cycles",
    "seconds",
    "location",
    "code",
)


def error_payload(exc: BaseException, traceback_limit: int = 2000) -> dict:
    """Flatten ``exc`` to a JSON-ready dict for cross-process transport.

    The payload keeps the taxonomy (type + module), the rendered
    message, any structured detail fields the taxonomy defines
    (``function``/``pc``/``cycle``/``max_cycles``/``seconds``/
    ``location``), and the tail of the formatted traceback.
    """
    details = {}
    extra = getattr(exc, "details", None)
    if isinstance(extra, dict):
        for name, value in extra.items():
            details[str(name)] = (
                value
                if isinstance(value, (bool, int, float, str, list))
                else str(value)
            )
    for name in _DETAIL_FIELDS:
        value = getattr(exc, name, None)
        if value is None:
            continue
        details[name] = (
            value if isinstance(value, (bool, int, float, str)) else str(value)
        )
    formatted = "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return {
        "type": type(exc).__name__,
        "module": type(exc).__module__,
        "message": str(exc),
        "marion": isinstance(exc, MarionError),
        "details": details,
        "traceback": formatted[-traceback_limit:],
    }


def reconstruct_error(payload: dict) -> BaseException:
    """Rebuild the closest possible exception from an :func:`error_payload`.

    The original class is re-imported and instantiated with the rendered
    message when possible; otherwise a plain :class:`MarionError` carries
    the type name and message.  Detail fields are re-attached either way.
    """
    import importlib

    exc: BaseException
    try:
        module = importlib.import_module(payload.get("module", "builtins"))
        cls = getattr(module, payload["type"])
        if not (isinstance(cls, type) and issubclass(cls, BaseException)):
            raise TypeError(payload["type"])
        exc = cls(payload.get("message", ""))
    except Exception:
        exc = MarionError(
            f"{payload.get('type', 'Exception')}: {payload.get('message', '')}"
        )
    for name, value in payload.get("details", {}).items():
        try:
            setattr(exc, name, value)
        except Exception:
            pass
    return exc
