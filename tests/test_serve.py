"""The compile-and-simulate service: schema, coalescing, deadlines, HTTP.

Three layers of coverage:

* **schema** — the versioned request API: validation, the shared options
  parsers, request keys, error/status mapping.  Pure functions, no
  service needed.
* **engine** — :class:`repro.serve.service.Service` driven directly with
  a *gated* stub executor, so request coalescing and per-request
  deadlines are tested deterministically: the stub holds every unit
  until the test releases it, making "N concurrent identical requests"
  actually concurrent.
* **HTTP** — the real asyncio front end on an ephemeral port, inprocess
  executor: every endpoint, the structured error envelope, keep-alive,
  and the warm-path guarantees (memo hit, zero fresh compiles).
"""

import asyncio
import json
import queue

import pytest

import repro
from repro.errors import GridTimeout, RequestError, error_payload
from repro.eval.executors import Executor, ExecutorProbe, UnitEvent
from repro.serve import ServeOptions, serve_app
from repro.serve import schema

SRC = "int add(int a, int b) { return a + b; }"


# -- schema -----------------------------------------------------------------


def test_compile_options_roundtrip():
    options = repro.CompileOptions(strategy="ips", fill_delay_slots=True)
    doc = schema.compile_options_to_json(options)
    assert schema.compile_options_from_json(doc) == options
    assert schema.compile_options_from_json(None) == repro.CompileOptions()
    assert schema.compile_options_from_json({}) == repro.CompileOptions()


def test_sim_options_roundtrip_flattens_cache_to_bool():
    options = repro.SimOptions(cache=True, max_cycles=9)
    doc = schema.sim_options_to_json(options)
    assert doc["cache"] is True
    parsed = schema.sim_options_from_json(doc)
    assert parsed.cache is True
    assert parsed.max_cycles == 9


def test_options_parser_rejects_unknown_and_ill_typed_fields():
    with pytest.raises(RequestError, match="unknown options field"):
        schema.compile_options_from_json({"strateg": "ips"})
    with pytest.raises(RequestError, match="must be str"):
        schema.compile_options_from_json({"strategy": 7})
    with pytest.raises(RequestError, match="got bool"):
        schema.compile_options_from_json({"memory_size": True})
    with pytest.raises(RequestError, match="unknown strategy"):
        schema.compile_options_from_json({"strategy": "magic"})
    with pytest.raises(RequestError, match="JSON object"):
        schema.compile_options_from_json([1, 2])
    # a removed simulator switch is an unknown field, named in a 400
    with pytest.raises(RequestError, match="unknown sim field.*jit") as info:
        schema.sim_options_from_json({"jit": False})
    assert info.value.code == "bad_request"
    assert schema.status_for(error_payload(info.value)) == 400


def test_parse_request_validation():
    request = schema.parse_request(
        "run",
        {"source": SRC, "entry": "add", "args": [1, 2], "target": "toyp"},
    )
    assert request.args == (1, 2)
    with pytest.raises(RequestError, match="source"):
        schema.parse_request("compile", {"source": "   "})
    with pytest.raises(RequestError, match="unknown target"):
        schema.parse_request("compile", {"source": SRC, "target": "vax"})
    with pytest.raises(RequestError, match="unknown request field"):
        schema.parse_request("compile", {"source": SRC, "entry": "add"})
    with pytest.raises(RequestError, match="entry"):
        schema.parse_request("run", {"source": SRC})
    with pytest.raises(RequestError, match=r"args\[1\]"):
        schema.parse_request(
            "run", {"source": SRC, "entry": "add", "args": [1, "x"]}
        )
    with pytest.raises(RequestError, match="positive"):
        schema.parse_request("compile", {"source": SRC, "timeout_s": -1})


def test_unsupported_api_version_has_its_own_code():
    with pytest.raises(RequestError) as info:
        schema.parse_request("compile", {"source": SRC, "api": 99})
    assert info.value.code == "unsupported_version"
    status, body = schema.error_body_from_exception(info.value)
    assert status == 400
    assert body["error"]["code"] == "unsupported_version"
    assert body["error"]["details"]["supported"] == [schema.API_VERSION]


def test_request_key_ignores_timeout_but_not_options():
    base = schema.parse_request("compile", {"source": SRC})
    patient = schema.parse_request(
        "compile", {"source": SRC, "timeout_s": 120}
    )
    ips = schema.parse_request(
        "compile", {"source": SRC, "options": {"strategy": "ips"}}
    )
    key = schema.request_key
    assert key("compile", base) == key("compile", patient)
    assert key("compile", base) != key("compile", ips)
    assert key("compile", base) != key("explain", base)


def test_status_mapping_follows_the_taxonomy():
    assert schema.status_for({"type": "RequestError", "marion": True}) == 400
    assert schema.status_for({"type": "GridTimeout", "marion": True}) == 504
    assert schema.status_for({"type": "CSyntaxError", "marion": True}) == 422
    assert schema.status_for({"type": "WorkerCrash"}) == 500
    assert schema.status_for({"type": "ValueError", "marion": False}) == 500


# -- engine (gated stub executor) -------------------------------------------


class GatedExecutor(Executor):
    """Holds every submitted unit until the test releases it."""

    backend = "gated"

    def __init__(self):
        self.submitted = []
        self.cancelled = []
        self._events: queue.Queue = queue.Queue()

    def submit(self, task, timeout=None):
        self.submitted.append(task)
        return task.key

    def release(self, key, value, *, ok=True):
        self._events.put(
            UnitEvent(key, "ok" if ok else "err", value)
        )

    def next_event(self, timeout=None):
        try:
            return self._events.get(timeout=timeout if timeout else 0.05)
        except queue.Empty:
            return None

    def cancel(self, key):
        self.cancelled.append(key)
        return False

    def probe(self):
        return ExecutorProbe(
            backend=self.backend,
            workers=1,
            idle=1,
            queued=0,
            in_flight=len(self.submitted),
        )


COMPILE_VALUE = {
    "target": "toyp",
    "strategy": "postpass",
    "assembly": "add: ...",
    "functions": ["add"],
    "instructions": 12,
}


def _run(coro):
    return asyncio.run(coro)


def _dedup_hits(service):
    return service.trace.counters.get("serve.dedup_hits", 0)


def test_concurrent_identical_requests_coalesce_to_one_unit():
    async def main():
        stub = GatedExecutor()
        service = serve_app(
            ServeOptions(port=0, executor=stub, memo_size=0)
        )
        await service.start()
        try:
            doc = {"source": SRC, "target": "toyp"}
            waiters = [
                asyncio.create_task(service.handle("compile", dict(doc)))
                for _ in range(5)
            ]
            for _ in range(200):  # all five attached, exactly one submit
                if _dedup_hits(service) >= 4 and stub.submitted:
                    break
                await asyncio.sleep(0.01)
            assert len(stub.submitted) == 1
            assert _dedup_hits(service) == 4
            stub.release(stub.submitted[0].key, dict(COMPILE_VALUE))
            results = await asyncio.gather(*waiters)
        finally:
            await service.stop()
        assert [status for status, _ in results] == [200] * 5
        bodies = [body for _, body in results]
        assert all(b["assembly"] == "add: ..." for b in bodies)
        assert all(b["key"] == bodies[0]["key"] for b in bodies)

    _run(main())


def test_distinct_requests_do_not_coalesce():
    async def main():
        stub = GatedExecutor()
        service = serve_app(
            ServeOptions(port=0, executor=stub, memo_size=0)
        )
        await service.start()
        try:
            a = asyncio.create_task(
                service.handle("compile", {"source": SRC, "target": "toyp"})
            )
            b = asyncio.create_task(
                service.handle(
                    "compile",
                    {
                        "source": SRC,
                        "target": "toyp",
                        "options": {"strategy": "ips"},
                    },
                )
            )
            for _ in range(200):
                if len(stub.submitted) == 2:
                    break
                await asyncio.sleep(0.01)
            assert len(stub.submitted) == 2
            for task in stub.submitted:
                stub.release(task.key, dict(COMPILE_VALUE))
            results = await asyncio.gather(a, b)
        finally:
            await service.stop()
        assert [status for status, _ in results] == [200, 200]
        assert _dedup_hits(service) == 0

    _run(main())


def test_deadline_returns_structured_504_and_releases_the_key():
    async def main():
        stub = GatedExecutor()
        service = serve_app(
            ServeOptions(port=0, executor=stub, memo_size=0)
        )
        await service.start()
        try:
            status, body = await service.handle(
                "compile",
                {"source": SRC, "target": "toyp", "timeout_s": 0.2},
            )
            assert status == 504
            assert body["error"]["type"] == "GridTimeout"
            assert body["error"]["details"]["seconds"] == 0.2
            # the key was dropped and cancelled: a retry submits fresh
            assert not service._pending
            assert stub.cancelled == [stub.submitted[0].key]
            retry = asyncio.create_task(
                service.handle("compile", {"source": SRC, "target": "toyp"})
            )
            for _ in range(200):
                if len(stub.submitted) == 2:
                    break
                await asyncio.sleep(0.01)
            assert len(stub.submitted) == 2
            stub.release(stub.submitted[1].key, dict(COMPILE_VALUE))
            status, _body = await retry
            assert status == 200
        finally:
            await service.stop()

    _run(main())


def test_request_timeout_ceiling_clamps_the_request():
    service = serve_app(ServeOptions(request_timeout=5.0))
    assert service._deadline(None) == 5.0
    assert service._deadline(60.0) == 5.0  # may only tighten
    assert service._deadline(0.5) == 0.5


def test_worker_error_payload_maps_to_taxonomy_status():
    async def main():
        stub = GatedExecutor()
        service = serve_app(
            ServeOptions(port=0, executor=stub, memo_size=0)
        )
        await service.start()
        try:
            waiter = asyncio.create_task(
                service.handle("compile", {"source": SRC, "target": "toyp"})
            )
            for _ in range(200):
                if stub.submitted:
                    break
                await asyncio.sleep(0.01)
            from repro.errors import CSyntaxError, error_payload

            stub.release(
                stub.submitted[0].key,
                error_payload(CSyntaxError("bad token")),
                ok=False,
            )
            status, body = await waiter
        finally:
            await service.stop()
        assert status == 422
        assert body["error"]["type"] == "CSyntaxError"
        assert "bad token" in body["error"]["message"]

    _run(main())


async def _fail_or_replay(service, stub, doc, payload):
    """One compile request; if it reaches the executor, its unit fails
    with ``payload``.  Returns ``(status, body)``."""
    submitted = len(stub.submitted)
    waiter = asyncio.create_task(service.handle("compile", dict(doc)))
    for _ in range(200):
        if waiter.done() or len(stub.submitted) > submitted:
            break
        await asyncio.sleep(0.01)
    if len(stub.submitted) > submitted:
        stub.release(stub.submitted[-1].key, payload, ok=False)
    return await waiter


def test_deterministic_errors_are_memoized_but_timeouts_are_not():
    from repro.errors import CSyntaxError

    async def main():
        stub = GatedExecutor()
        service = serve_app(ServeOptions(port=0, executor=stub))
        await service.start()
        try:
            syntax = error_payload(CSyntaxError("bad token"))
            doc = {"source": SRC, "target": "toyp"}
            failed = [
                await _fail_or_replay(service, stub, doc, syntax)
                for _ in range(3)
            ]
            syntax_units = len(stub.submitted)
            timeout = error_payload(GridTimeout("too slow", seconds=1.0))
            slow = {"source": SRC + "\n", "target": "toyp"}
            timed_out = [
                await _fail_or_replay(service, stub, slow, timeout)
                for _ in range(2)
            ]
        finally:
            await service.stop()
        return failed, syntax_units, timed_out, len(stub.submitted)

    failed, syntax_units, timed_out, units = _run(main())
    # a 422 is what the same request gets again: one unit, three
    # identical bodies
    assert syntax_units == 1
    assert [status for status, _ in failed] == [422] * 3
    assert failed[0][1]["error"]["type"] == "CSyntaxError"
    assert failed[1][1] == failed[0][1] == failed[2][1]
    # a deadline failure is retried on the executor every time
    assert [status for status, _ in timed_out] == [504] * 2
    assert units == syntax_units + 2


def test_a_character_the_lexer_rejects_is_a_422():
    # '²' passes str.isdigit() but int() rejects it: a syntax error, not
    # a crash of the worker unit
    async def main():
        service = serve_app(
            ServeOptions(port=0, executor="inprocess", memo_size=0)
        )
        await service.start()
        try:
            return await service.handle(
                "compile",
                {"source": "int f(void) { return \u00b2; }", "target": "toyp"},
            )
        finally:
            await service.stop()

    status, body = _run(main())
    assert status == 422
    assert body["error"]["type"] == "CSyntaxError"
    assert "<c>:1:22: unexpected character '\u00b2'" in body["error"]["message"]


# -- HTTP (real sockets, inprocess executor) --------------------------------


async def _request(port, method, path, doc=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _request_on(reader, writer, method, path, doc)
    finally:
        writer.close()


async def _request_on(reader, writer, method, path, doc=None):
    body = b"" if doc is None else json.dumps(doc).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def test_http_endpoints_end_to_end():
    async def main():
        service = serve_app(
            ServeOptions(port=0, executor="inprocess", warm=("toyp",))
        )
        await service.start()
        port = service.port
        out = {}
        try:
            out["health"] = await _request(port, "GET", "/v1/healthz")
            before = service.trace.counters.get("compile.compiled", 0)
            out["compile"] = await _request(
                port, "POST", "/v1/compile",
                {"source": SRC, "target": "toyp"},
            )
            out["again"] = await _request(
                port, "POST", "/v1/compile",
                {"source": SRC, "target": "toyp"},
            )
            out["fresh_compiles"] = (
                service.trace.counters["compile.compiled"] - before
            )
            out["run"] = await _request(
                port, "POST", "/v1/run",
                {
                    "source": SRC,
                    "entry": "add",
                    "args": [10, 20],
                    "target": "toyp",
                    "sim": {"cache": True},
                },
            )
            out["explain"] = await _request(
                port, "POST", "/v1/explain",
                {"source": SRC, "target": "toyp"},
            )
            out["targets"] = await _request(port, "GET", "/v1/targets")
            out["stats"] = await _request(port, "GET", "/v1/stats")
            out["badjson"] = await _request(port, "POST", "/v1/compile")
            out["badver"] = await _request(
                port, "POST", "/v1/compile", {"source": SRC, "api": 2}
            )
            out["lost"] = await _request(port, "GET", "/v1/nope")
            out["badmethod"] = await _request(port, "GET", "/v1/compile")
        finally:
            await service.stop()
        return out

    out = _run(main())

    status, body = out["health"]
    assert (status, body["status"]) == (200, "ok")

    status, body = out["compile"]
    assert status == 200
    assert body["api"] == schema.API_VERSION
    assert body["functions"] == ["add"]
    assert body["served"] == "executor"
    assert "add:" in body["assembly"]

    # identical second request: answered from the memo, no fresh compile
    status, body = out["again"]
    assert status == 200
    assert body["served"] == "memo"
    assert out["fresh_compiles"] == 1

    status, body = out["run"]
    assert status == 200
    assert body["result"]["int"] == 30
    assert body["cycles"] > 0

    status, body = out["explain"]
    assert status == 200
    assert "add" in body["functions"]
    assert "nop_slots" in body["functions"]["add"]

    status, body = out["targets"]
    assert status == 200
    assert [t["name"] for t in body["targets"]] == list(repro.TARGET_NAMES)

    status, body = out["stats"]
    assert status == 200
    assert body["counters"]["serve.requests.compile"] == 2
    assert body["counters"]["serve.memo_hits"] == 1
    assert body["memo_entries"] == 3  # compile, run, explain
    assert body["artifact_cache"] == {
        "enabled": False, "root": body["artifact_cache"]["root"]
    }
    assert body["executor"]["backend"] == "inprocess"
    assert body["latency_ms"]["compile"]["count"] == 2

    status, body = out["badjson"]
    assert status == 400
    assert body["error"]["code"] == "bad_request"

    status, body = out["badver"]
    assert status == 400
    assert body["error"]["code"] == "unsupported_version"

    status, body = out["lost"]
    assert status == 404
    assert body["error"]["code"] == "unknown_endpoint"
    assert "/v1/compile" in body["error"]["details"]["endpoints"]

    status, body = out["badmethod"]
    assert status == 405
    assert body["error"]["code"] == "method_not_allowed"


def test_stats_counters_are_the_units_own_counters():
    async def main():
        service = serve_app(ServeOptions(port=0, executor="inprocess"))
        await service.start()
        try:
            run = await _request(
                service.port, "POST", "/v1/run",
                {"source": SRC, "entry": "add", "args": [2, 3],
                 "target": "toyp"},
            )
            stats = await _request(service.port, "GET", "/v1/stats")
        finally:
            await service.stop()
        return run, stats

    (run_status, run), (stats_status, stats) = _run(main())
    assert run_status == stats_status == 200
    counters = stats["counters"]
    assert counters["sim.instructions"] == run["instructions"] > 0
    assert counters["sim.cycles"] == run["cycles"]
    assert counters["compile.compiled"] == run["compiled"] == 1
    assert not {"compile", "sim", "requests", "dedup"} & set(stats)


def test_http_keep_alive_serves_many_requests_per_connection():
    async def main():
        service = serve_app(ServeOptions(port=0, executor="inprocess"))
        await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                first = await _request_on(
                    reader, writer, "GET", "/v1/healthz"
                )
                second = await _request_on(
                    reader, writer, "GET", "/v1/stats"
                )
            finally:
                writer.close()
        finally:
            await service.stop()
        return first, second

    (s1, b1), (s2, b2) = _run(main())
    assert s1 == 200 and s2 == 200
    assert b2["counters"]["serve.requests.healthz"] >= 1


def test_http_oversized_body_is_413():
    async def main():
        service = serve_app(
            ServeOptions(port=0, executor="inprocess", max_body_bytes=64)
        )
        await service.start()
        try:
            return await _request(
                service.port, "POST", "/v1/compile",
                {"source": "int f() { return 0; }" * 50},
            )
        finally:
            await service.stop()

    status, body = _run(main())
    assert status == 413
    assert body["error"]["code"] == "payload_too_large"


def test_serve_app_exported_from_package_root():
    assert repro.serve_app is serve_app
    assert repro.ServeOptions is ServeOptions
    with pytest.raises(GridTimeout, match="deadline"):
        # the 504 path raises the same taxonomy type the grid uses
        raise GridTimeout("request exceeded its 1s deadline", seconds=1)
