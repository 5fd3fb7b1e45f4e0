"""The run journal: checkpoint/resume for the evaluation grid.

Every :class:`~repro.eval.grid.GridTask` has a stable string key.  As the
grid completes units it appends one JSONL record per unit to the journal
(flushed and fsynced, so a SIGKILL loses at most the in-flight units),
and a later run opened on the same journal — ``repro report --resume
JOURNAL`` or ``REPRO_JOURNAL=JOURNAL`` — reuses every recorded success
and re-runs only the missing or failed units.  Because the recorded
values round-trip through JSON exactly (ints, ``repr``-exact floats,
tuples and dataclasses are all preserved), a resumed report renders
tables byte-identical to a single-shot run.

Record schema (one JSON object per line):

``{"schema": 1, "kind": "header", "config": {...}}``
    First line.  ``config`` captures the run parameters that change
    results (scale, cache, target); resuming with a different config
    raises :class:`JournalError` instead of silently mixing runs.

``{"schema": 1, "key": K, "status": "ok", "wall_s": S, "result": R}``
    A completed unit.  ``result`` uses the value codec below.

``{"schema": 1, "key": K, "status": "fail", "wall_s": S, "error": E,
"attempts": N}``
    A failed unit; ``error`` is an :func:`repro.errors.error_payload`.
    Failed units are re-run on resume (the record is kept for the
    post-mortem).

Value codec: JSON scalars pass through; lists, tuples and dicts are
tagged containers (``{"L": ...}``, ``{"T": ...}``, ``{"D": [[k, v],
...]}``); dataclasses become ``{"C": "module:QualName", "F":
{field: value}}`` and are reconstructed by re-importing the class.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
from typing import Any

from repro.errors import JournalError

SCHEMA = 1

#: sentinel distinguishing "no journal entry" from a recorded None
MISSING = object()


def encode_value(value: Any) -> Any:
    """Encode ``value`` into the JSON-safe tagged form described above."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return {"L": [encode_value(v) for v in value]}
    if isinstance(value, tuple):
        return {"T": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "D": [[encode_value(k), encode_value(v)] for k, v in value.items()]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "C": f"{cls.__module__}:{cls.__qualname__}",
            "F": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    raise JournalError(
        f"cannot journal a value of type {type(value).__name__}: {value!r}"
    )


def decode_value(obj: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(obj, dict):
        if "L" in obj:
            return [decode_value(v) for v in obj["L"]]
        if "T" in obj:
            return tuple(decode_value(v) for v in obj["T"])
        if "D" in obj:
            return {decode_value(k): decode_value(v) for k, v in obj["D"]}
        if "C" in obj:
            module_name, _, qualname = obj["C"].partition(":")
            try:
                module = importlib.import_module(module_name)
                cls = functools.reduce(getattr, qualname.split("."), module)
            except (ImportError, AttributeError) as exc:
                raise JournalError(
                    f"cannot reconstruct journalled {obj['C']}: {exc}"
                ) from None
            fields = {k: decode_value(v) for k, v in obj["F"].items()}
            return cls(**fields)
    return obj


class Journal:
    """An append-only JSONL checkpoint of completed grid units.

    Opening an existing journal loads its records; opening a fresh path
    creates the file with a header line.  ``config`` is compared against
    the existing header (when both are non-empty) so a journal recorded
    at one scale cannot poison a resume at another.
    """

    def __init__(self, path: str, config: dict | None = None):
        self.path = str(path)
        self.config = dict(config or {})
        self._done: dict[str, Any] = {}
        self._failed: dict[str, dict] = {}
        self._load()
        self._handle = open(self.path, "a")
        if self._fresh:
            self._append(
                {"schema": SCHEMA, "kind": "header", "config": self.config}
            )

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        self._fresh = True
        if not os.path.exists(self.path):
            return
        with open(self.path) as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            return
        self._fresh = False
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # a torn final line from a killed run: everything before
                # it is intact, so skip it rather than refuse the resume
                if number == len(lines):
                    continue
                raise JournalError(
                    f"{self.path}:{number}: corrupt journal record"
                ) from None
            if record.get("kind") == "header":
                existing = record.get("config") or {}
                if self.config and existing and existing != self.config:
                    raise JournalError(
                        f"{self.path}: journal was recorded with config "
                        f"{existing}, cannot resume with {self.config}"
                    )
                if existing and not self.config:
                    self.config = existing
                continue
            key = record.get("key")
            if not key:
                continue
            if record.get("status") == "ok":
                self._done[key] = decode_value(record.get("result"))
                self._failed.pop(key, None)
            else:  # a later success overrides an earlier failure
                if key not in self._done:
                    self._failed[key] = record

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._done)

    def lookup(self, key: str) -> Any:
        """The recorded result for ``key``, or :data:`MISSING`."""
        return self._done.get(key, MISSING)

    def done_keys(self) -> set:
        """Keys with a recorded success — what a joining worker must
        not redo.  This is the grid's coordination substrate: any
        process holding the journal can tell finished work from
        orphaned work without talking to the worker that died."""
        return set(self._done)

    def failed(self, key: str) -> dict | None:
        """The last failure record for ``key`` (no success since), if any."""
        return self._failed.get(key)

    # -- recording --------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_ok(self, key: str, result: Any, wall_s: float) -> None:
        self._done[key] = result
        self._failed.pop(key, None)
        record = {
            "schema": SCHEMA,
            "key": key,
            "status": "ok",
            "wall_s": round(wall_s, 6),
            "result": encode_value(result),
        }
        self._append(record)

    def record_failure(
        self, key: str, error: dict, wall_s: float, attempts: int = 1
    ) -> None:
        record = {
            "schema": SCHEMA,
            "key": key,
            "status": "fail",
            "wall_s": round(wall_s, 6),
            "attempts": attempts,
            "error": error,
        }
        self._failed[key] = record
        self._append(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
