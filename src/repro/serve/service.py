"""The serve engine: executor-backed dispatch with coalescing and
deadlines.

One :class:`Service` owns

* an :class:`~repro.eval.executors.base.Executor` — the *warm worker
  pool*.  The default local pool forks from a parent that has already
  warmed its target cache and keeps its workers alive across requests,
  so request N+1 never pays the cold-start tax request N already paid
  (``inprocess`` runs requests serially on the drain thread instead);
* a drain thread that streams completion events off the executor and
  resolves per-request futures on the event loop;
* the **in-flight dedup map**: identical requests (same
  :func:`~repro.serve.schema.request_key`) arriving while a compile is
  running coalesce onto one future — K concurrent identical requests
  cause exactly one compile;
* a bounded **response memo** for completed requests: the service is
  deterministic, so a finished response — a 200, or a 400/422 error
  the same request would raise again — can be replayed byte-for-byte
  without touching a worker (a 5xx or a 504 is never replayed);
* per-request **deadlines**: the worker arms the grid's ``SIGALRM``
  unit deadline, and the event loop holds an ``asyncio.wait_for``
  backstop — either way the caller gets a structured 504 carrying the
  :class:`~repro.errors.GridTimeout` taxonomy payload;
* graceful drain: SIGTERM/SIGINT stops the listener, lets in-flight
  requests finish (bounded by ``drain_grace``), then closes the
  executor.

Counters live on one service-owned :class:`~repro.obs.Trace`: the
service's own ``serve.*`` counters plus every unit trace's counters
(``compile.*``, ``cgg.*``, ``cache.*``, ``sim.*``), merged as events
complete, so ``/v1/stats`` reads the same names the rest of the harness
does.  It keeps counters only: phase names such as ``codegen:<fn>``
carry request function names and would grow without bound.
"""

from __future__ import annotations

import asyncio
import collections
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.errors import GridTimeout
from repro.eval.executors import Executor, resolve_executor, resolve_jobs
from repro.eval.grid import GridTask
from repro.obs import Trace
from repro.serve import schema, workers
from repro.serve.schema import (
    CompileRequest,
    CompileResponse,
    ExplainRequest,
    ExplainResponse,
    RunRequest,
    RunResponse,
    request_key,
)

#: endpoints whose latency the stats ring tracks
_TIMED = ("compile", "run", "explain")

#: error statuses a repeated identical request would get again, so the
#: response memo replays them (5xx and deadline failures are retried)
_MEMO_ERRORS = (400, 422)


@dataclass(frozen=True)
class ServeOptions:
    """Everything that shapes one service process, in one frozen record.

    * ``host``/``port`` — listen address (``port=0`` picks a free port,
      printed on startup);
    * ``workers`` — worker-pool size (``None``: ``REPRO_JOBS`` or cpu
      count);
    * ``executor`` — backend spec (``"local"`` default or
      ``"inprocess"``) or a live
      :class:`~repro.eval.executors.base.Executor` to reuse (left open
      on shutdown);
    * ``request_timeout`` — default per-request deadline in seconds; a
      request's own ``timeout_s`` may only *tighten* it;
    * ``warm`` — target names to build before the first request (the
      forked pool inherits the warm caches);
    * ``memo_size`` — completed-response memo entries (0 disables);
    * ``max_body_bytes`` — request-body cap (HTTP 413 beyond it);
    * ``drain_grace`` — seconds to let in-flight requests finish on
      SIGTERM before the executor is closed.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    workers: int | None = None
    executor: str | Executor | None = None
    request_timeout: float = 60.0
    warm: tuple = ()
    memo_size: int = 256
    max_body_bytes: int = 4 << 20
    drain_grace: float = 10.0


@dataclass
class _Pending:
    """One in-flight request key: the future its waiters share."""

    future: asyncio.Future
    waiters: int = 1
    started: float = field(default_factory=time.monotonic)


class Service:
    """The compile-and-simulate service (see the module doc)."""

    def __init__(self, options: ServeOptions | None = None):
        self.options = options if options is not None else ServeOptions()
        self._executor: Executor | None = None
        self._owns_executor = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pending: dict[str, _Pending] = {}
        #: request key -> ``(status, body)`` of a replayable response
        self._memo: collections.OrderedDict[str, tuple[int, dict]] = (
            collections.OrderedDict()
        )
        self._latency: dict[str, collections.deque] = {
            kind: collections.deque(maxlen=2048) for kind in _TIMED
        }
        #: the service's counters (see the module doc); written only on
        #: the event loop, which the drain thread hands every event to
        self.trace = Trace("serve")
        self._started_at = time.monotonic()
        self._draining = False
        self._stop_event: asyncio.Event | None = None
        self._drainer: threading.Thread | None = None
        self._drainer_stop = threading.Event()
        self._work = threading.Event()
        self.port: int | None = None

    # -- lifecycle ---------------------------------------------------------

    def _resolve_executor(self) -> None:
        spec = self.options.executor
        if isinstance(spec, Executor):
            self._executor, self._owns_executor = spec, False
            return
        if spec is None:
            spec = "local"
        self._executor = resolve_executor(
            spec, resolve_jobs(self.options.workers)
        )
        self._owns_executor = True

    def _warm(self) -> None:
        """Build the named targets *before* the pool forks, so workers
        inherit a warm in-process target cache."""
        from repro.targets import load_target

        for name in self.options.warm:
            load_target(name)

    async def start(self) -> None:
        """Bind the listener and start the event drain; idempotent port
        resolution — ``self.port`` holds the real port after this."""
        from repro.serve.http import handle_connection

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._warm()
        self._resolve_executor()
        self._drainer_stop.clear()
        self._drainer = threading.Thread(
            target=self._drain_events, name="serve-drain", daemon=True
        )
        self._drainer.start()
        self._server = await asyncio.start_server(
            lambda reader, writer: handle_connection(self, reader, writer),
            host=self.options.host,
            port=self.options.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: stop accepting, let in-flight work finish
        (bounded), then release the drainer and the executor."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.options.drain_grace
        while self._pending and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self._drainer_stop.set()
        self._work.set()
        if self._drainer is not None:
            self._drainer.join(timeout=2.0)
        if self._executor is not None and self._owns_executor:
            self._executor.close()

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (SIGTERM/SIGINT handler)."""
        self._draining = True
        if self._stop_event is not None:
            self._stop_event.set()

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; the CLI entry point."""
        return asyncio.run(self._main())

    async def _main(self) -> int:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        await self.start()
        backend = self._executor.backend if self._executor else "?"
        print(
            f"repro serve: listening on http://{self.options.host}:"
            f"{self.port} (api v{schema.API_VERSION}, "
            f"executor {backend})",
            flush=True,
        )
        await self._stop_event.wait()
        print("repro serve: draining...", flush=True)
        await self.stop()
        print("repro serve: stopped", flush=True)
        return 0

    # -- event drain -------------------------------------------------------

    def _drain_events(self) -> None:
        """Drain-thread body: stream executor completion events onto the
        event loop.  The in-process backend runs units *inside*
        ``next_event``, so with ``executor="inprocess"`` this thread is
        also where the work happens."""
        while not self._drainer_stop.is_set():
            executor = self._executor
            if executor is None:
                return
            try:
                event = executor.next_event(timeout=0.1)
            except Exception:
                time.sleep(0.05)
                continue
            if event is None:
                # serial backends return immediately when idle: block on
                # the submit signal instead of spinning
                self._work.wait(timeout=0.1)
                self._work.clear()
                continue
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(self._resolve_event, event)

    def _resolve_event(self, event) -> None:
        if event.metrics is not None:
            for name, amount in event.metrics["counters"].items():
                self.trace.count(name, amount)
        entry = self._pending.pop(event.key, None)
        if entry is None:
            return  # stale: every waiter timed out and re-keyed
        if not entry.future.done():
            entry.future.set_result(event)

    # -- dispatch ----------------------------------------------------------

    def _deadline(self, requested: float | None) -> float:
        limit = self.options.request_timeout
        if requested is None:
            return limit
        return min(requested, limit)

    def _memo_get(self, key: str) -> tuple[int, dict] | None:
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
        return entry

    def _memo_put(self, key: str, status: int, body: dict) -> None:
        if self.options.memo_size <= 0:
            return
        self._memo[key] = (status, body)
        self._memo.move_to_end(key)
        while len(self._memo) > self.options.memo_size:
            self._memo.popitem(last=False)

    async def _execute(self, kind: str, key: str, fn, args, timeout_s):
        """Coalesce onto an in-flight future or submit a fresh unit;
        return the completion :class:`UnitEvent`."""
        entry = self._pending.get(key)
        if entry is not None:
            entry.waiters += 1
            self.trace.count("serve.dedup_hits")
        else:
            entry = _Pending(self._loop.create_future())
            self._pending[key] = entry
            task = GridTask(key, fn, tuple(args))
            self._executor.submit(task, timeout_s)
            self._work.set()
        try:
            return await asyncio.wait_for(
                asyncio.shield(entry.future), timeout_s
            )
        except asyncio.TimeoutError:
            entry.waiters -= 1
            if entry.waiters <= 0 and self._pending.get(key) is entry:
                # last waiter gone: drop the key so new arrivals submit
                # fresh work, and drop any queued copy of this one
                del self._pending[key]
                self._executor.cancel(key)
            self.trace.count("serve.timeouts")
            raise GridTimeout(
                f"request exceeded its {timeout_s:g}s deadline",
                seconds=timeout_s,
            ) from None

    async def handle(self, kind: str, doc) -> tuple[int, dict]:
        """One parsed POST body -> ``(status, response document)``."""
        self.trace.count(f"serve.requests.{kind}")
        start = time.perf_counter()
        try:
            request = schema.parse_request(kind, doc)
            key = request_key(kind, request)
            memo = self._memo_get(key)
            if memo is not None:
                self.trace.count("serve.memo_hits")
                status, body = memo
                body = dict(body)
                if status == 200:
                    body["served"] = "memo"
                    body["wall_ms"] = _ms_since(start)
                return self._done(kind, status, body, start)
            fn, args = _unit_for(kind, request)
            timeout_s = self._deadline(request.timeout_s)
            event = await self._execute(kind, key, fn, args, timeout_s)
            if not event.ok:
                status = schema.status_for(event.value)
                body = schema.error_body(event.value)
                if status in _MEMO_ERRORS:
                    self._memo_put(key, status, body)
                return self._done(kind, status, dict(body), start)
            body = _response_for(kind, key, event).to_json()
            self._memo_put(key, 200, body)
            body = dict(body)
            body["served"] = "executor"
            body["wall_ms"] = _ms_since(start)
            return self._done(kind, 200, body, start)
        except Exception as exc:  # noqa: BLE001 — every error is a payload
            status, body = schema.error_body_from_exception(exc)
            return self._done(kind, status, body, start)

    def _done(self, kind, status, body, start) -> tuple[int, dict]:
        if kind in self._latency:
            self._latency[kind].append(_ms_since(start))
        self.trace.count(f"serve.responses.{status // 100}xx")
        if status >= 400:
            self.trace.count("serve.errors")
        return status, body

    # -- read-only endpoints ----------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        self.trace.count("serve.requests.healthz")
        status = 503 if self._draining else 200
        return status, {
            "api": schema.API_VERSION,
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    def targets(self) -> tuple[int, dict]:
        from repro.eval.table1 import description_stats
        from repro.targets import TARGET_NAMES

        self.trace.count("serve.requests.targets")
        listing = []
        for name in TARGET_NAMES:
            stats = description_stats(name)
            listing.append(
                {
                    "name": name,
                    "instructions": stats.instructions,
                    "clocks": stats.clocks,
                    "class_elements": stats.elements,
                    "glue_transformations": stats.glue_transformations,
                    "funcs": stats.funcs,
                }
            )
        return 200, {"api": schema.API_VERSION, "targets": listing}

    def stats(self) -> tuple[int, dict]:
        from repro.cache import get_cache

        self.trace.count("serve.requests.stats")
        store = get_cache()
        probe = self._executor.probe() if self._executor else None
        return 200, {
            "api": schema.API_VERSION,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
            "in_flight": len(self._pending),
            "memo_entries": len(self._memo),
            "counters": dict(sorted(self.trace.counters.items())),
            "artifact_cache": {
                "enabled": store.enabled,
                "root": str(store.root),
            },
            "executor": (
                {
                    "backend": probe.backend,
                    "workers": probe.workers,
                    "idle": probe.idle,
                    "queued": probe.queued,
                    "in_flight": probe.in_flight,
                    "healthy": probe.healthy,
                }
                if probe is not None
                else None
            ),
            "latency_ms": {
                kind: _percentiles(samples)
                for kind, samples in self._latency.items()
            },
        }


def _unit_for(kind: str, request):
    if isinstance(request, RunRequest):
        return workers.run_unit, (
            request.source,
            request.target,
            request.options,
            request.entry,
            request.args,
            request.sim,
        )
    fn = (
        workers.compile_unit
        if isinstance(request, CompileRequest)
        else workers.explain_unit
    )
    return fn, (request.source, request.target, request.options)


def _response_for(kind: str, key: str, event):
    """The response record for a successful unit ``event``; compile
    provenance comes from the unit trace's own counters."""
    value = event.value
    counters = event.metrics["counters"] if event.metrics else {}
    compiled = counters.get("compile.compiled", 0)
    cgg_builds = counters.get("cgg.builds", 0)
    if kind == "compile":
        return CompileResponse(
            key=key,
            target=value["target"],
            strategy=value["strategy"],
            assembly=value["assembly"],
            functions=tuple(value["functions"]),
            instructions=value["instructions"],
            compiled=compiled,
            cgg_builds=cgg_builds,
        )
    if kind == "explain":
        return ExplainResponse(
            key=key,
            target=value["target"],
            strategy=value["strategy"],
            listing=value["listing"],
            functions=value["functions"],
        )
    return RunResponse(
        key=key,
        target=value["target"],
        strategy=value["strategy"],
        entry=value["entry"],
        result=value["result"],
        cycles=value["cycles"],
        instructions=value["instructions"],
        loads=value["loads"],
        stores=value["stores"],
        cache_hits=value["cache_hits"],
        cache_misses=value["cache_misses"],
        cycle_breakdown=value["cycle_breakdown"],
        compiled=compiled,
        cgg_builds=cgg_builds,
    )


def _ms_since(start: float) -> float:
    return round((time.perf_counter() - start) * 1000, 3)


def _percentiles(samples) -> dict | None:
    if not samples:
        return None
    ranked = sorted(samples)
    last = len(ranked) - 1

    def pick(q: float) -> float:
        return round(ranked[min(last, int(len(ranked) * q))], 3)

    return {
        "count": len(ranked),
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
        "max": round(ranked[last], 3),
    }
