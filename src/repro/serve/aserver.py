"""The asyncio HTTP server of the pattern store.

:class:`AsyncPatternServer` serves the
:class:`~repro.serve.api.PatternAPI` surface from a single event loop
built on :func:`asyncio.start_server`: thousands of keep-alive
connections multiplex onto one thread instead of one OS thread each,
which is what lets the serving tier sustain high fan-out without
GIL-thrashing a thread pool.

The read path is completely lock-free.  Each request pins one
immutable store snapshot inside the dispatch call, and hot ``GET
/v1/patterns`` responses are additionally served from a byte-level
LRU cache keyed by ``(snapshot version, request target)`` — sound
because every ``/v1`` response body is a pure function of exactly
that pair (see :mod:`repro.serve.api`), and a snapshot swap changes
the version and thereby structurally invalidates every stale entry.

Writes never run on the event loop.  ``POST .../update`` enqueues the
validated intent on a **bounded** :class:`asyncio.Queue`; a single
writer task drains it, running the miner + reindex in a worker thread
(:meth:`loop.run_in_executor`) so multi-second mines don't stall
reads, then publishes the new snapshot with the store's atomic swap.
A full queue answers 503 immediately — backpressure instead of
unbounded buffering.

For multi-core read scaling the server can bind with ``SO_REUSEPORT``
(``reuse_port=True``): several independent processes — or several
servers in one process — share one port and the kernel load-balances
accepted connections across them.  Each process serves its own store
opened from the same on-disk copy; this mode is for read-only
replicas (updates would diverge).

Shutdown drains: stop accepting, flip health to ``draining``, wait
(bounded) for in-flight requests and the update queue, then close.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.errors import ServeError
from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry
from repro.serve.api import (
    ApiResponse,
    EventsIntent,
    PatternAPI,
    UpdateIntent,
    error_payload,
)
from repro.serve.query import QueryEngine
from repro.serve.store import PatternStore

__all__ = ["AsyncPatternServer"]

logger = logging.getLogger("repro.serve")

_MAX_HEADER_BYTES = 32768
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _RequestError(Exception):
    """Malformed HTTP framing; the connection is answered and closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AsyncPatternServer:
    """A pattern store behind a single-threaded asyncio HTTP API.

    Parameters
    ----------
    store:
        The indexed patterns to serve.
    miner:
        Anything with ``update(transactions) -> MiningResult``;
        ``None`` serves read-only (``POST /update`` answers 409).
    store_path:
        When set, the store is re-saved here after every successful
        update.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    cache_size:
        LRU entries of the query-result cache.
    response_cache_size:
        LRU entries of the byte-level ``/v1/patterns`` response
        cache (0 disables it).
    max_connections:
        Concurrent connections accepted before new ones wait.
    update_queue_size:
        Bound of the pending-update queue; a full queue answers 503.
    drain_timeout:
        Longest :meth:`close` waits for in-flight work, seconds.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several servers (processes)
        can share the port for kernel-level read load-balancing.
    registry:
        Metrics registry for this server's engine/API series (tests
        inject a fresh one; ``None`` uses the process-global default).
    """

    def __init__(
        self,
        store: PatternStore,
        *,
        miner: Any | None = None,
        store_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        response_cache_size: int = 2048,
        max_connections: int = 1024,
        update_queue_size: int = 64,
        drain_timeout: float = 5.0,
        reuse_port: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._engine = QueryEngine(
            store, cache_size=cache_size, registry=registry
        )
        self._api = PatternAPI(
            self._engine,
            miner=miner,
            store_path=store_path,
            queue_depth=self._queue_depth,
        )
        self._host = host
        self._port = port
        self._reuse_port = reuse_port
        self._max_connections = max_connections
        self._update_queue_size = update_queue_size
        self._drain_timeout = drain_timeout
        # byte-level response cache; touched only from the event
        # loop, so no lock is needed
        self._response_cache_size = max(0, response_cache_size)
        self._response_cache: OrderedDict[tuple[int, str], bytes] = (
            OrderedDict()
        )
        self.response_cache_hits = 0
        self.response_cache_misses = 0
        api_registry = self._api.registry
        self._m_response_hits = api_registry.counter(catalog.CACHE_HITS)
        self._m_response_misses = api_registry.counter(
            catalog.CACHE_MISSES
        )
        self._m_response_size = api_registry.gauge(catalog.CACHE_SIZE)
        # created inside the running loop (asyncio primitives must
        # belong to exactly one loop)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._queue: asyncio.Queue | None = None
        self._writer_task: asyncio.Task | None = None
        self._conn_semaphore: asyncio.Semaphore | None = None
        self._inflight = 0
        self._idle_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._bound_port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise ServeError("server not started")
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def store(self) -> PatternStore:
        return self._api.store

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def api(self) -> PatternAPI:
        return self._api

    def _queue_depth(self) -> int:
        queue = self._queue
        return queue.qsize() if queue is not None else 0

    async def _startup(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self._update_queue_size)
        self._conn_semaphore = asyncio.Semaphore(self._max_connections)
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._writer_task = self._loop.create_task(self._writer_loop())
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._host,
            self._port,
            backlog=512,
            reuse_port=self._reuse_port or None,
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "async server: %d pattern(s) at http://%s:%d",
            len(self.store),
            self._host,
            self._bound_port,
        )

    async def _shutdown(self) -> None:
        self._api.begin_drain()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # bounded drain: in-flight requests plus queued updates
        deadline = time.monotonic() + self._drain_timeout
        assert self._idle_event is not None and self._queue is not None
        try:
            remaining = max(0.0, deadline - time.monotonic())
            await asyncio.wait_for(self._idle_event.wait(), timeout=remaining)
            remaining = max(0.0, deadline - time.monotonic())
            await asyncio.wait_for(self._queue.join(), timeout=remaining)
        except asyncio.TimeoutError:
            logger.warning(
                "drain timeout: %d request(s) in flight, "
                "%d update(s) queued",
                self._inflight,
                self._queue.qsize(),
            )
        assert self._writer_task is not None
        self._writer_task.cancel()
        try:
            await self._writer_task
        except asyncio.CancelledError:
            pass
        # idle keep-alive connections would otherwise linger forever
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def start(self) -> "AsyncPatternServer":
        """Run the event loop in a daemon thread (returns once bound)."""
        if self._thread is not None:
            raise ServeError("server already started")
        started = threading.Event()
        startup_error: list[BaseException] = []
        loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._startup())
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                startup_error.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-aserve", daemon=True
        )
        self._thread.start()
        started.wait()
        if startup_error:
            self._thread = None
            raise ServeError(
                f"async server failed to start: {startup_error[0]}"
            ) from startup_error[0]
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""

        async def run() -> None:
            await self._startup()
            assert self._server is not None
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self._shutdown()

        asyncio.run(run())

    def close(self) -> None:
        """Stop accepting, drain (bounded), stop the loop."""
        thread, self._thread = self._thread, None
        if thread is None or self._loop is None:
            return
        loop = self._loop
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        try:
            future.result(timeout=self._drain_timeout + 10)
        except Exception:  # pragma: no cover - defensive
            logger.exception("async server shutdown failed")
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        self._loop = None
        logger.info("async server at port %s closed", self._bound_port)

    def __enter__(self) -> "AsyncPatternServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the writer path: one task drains the bounded update queue
    # ------------------------------------------------------------------

    async def _writer_loop(self) -> None:
        assert self._loop is not None and self._queue is not None
        while True:
            intent, future = await self._queue.get()
            try:
                # run the mine + reindex off the loop so reads keep
                # flowing; the final snapshot swap is atomic
                answer = await self._loop.run_in_executor(
                    None, self._api.run_update, intent
                )
            except Exception as exc:  # pragma: no cover - defensive
                logger.exception("update failed in writer loop")
                answer = ApiResponse(
                    500,
                    error_payload("internal", f"internal error: {exc}"),
                )
            finally:
                self._queue.task_done()
            if not future.done():
                future.set_result(answer)

    async def _submit_update(self, intent: UpdateIntent) -> ApiResponse:
        assert self._loop is not None and self._queue is not None
        future: asyncio.Future = self._loop.create_future()
        try:
            self._queue.put_nowait((intent, future))
        except asyncio.QueueFull:
            self._api.record_shed()
            return ApiResponse(
                503,
                error_payload(
                    "overloaded",
                    "update queue is full "
                    f"({self._update_queue_size} pending); retry later",
                    {"queue_depth": self._queue.qsize()},
                ),
            )
        answer = await future
        if not intent.versioned:
            answer.headers.setdefault("Deprecation", "true")
        return answer

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._conn_semaphore is not None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            async with self._conn_semaphore:
                try:
                    await self._connection_loop(reader, writer)
                except (
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    asyncio.CancelledError,
                ):
                    pass
                except Exception:  # pragma: no cover - defensive
                    logger.exception("connection handler crashed")
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, asyncio.CancelledError):
                        pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except _RequestError as exc:
                body = ApiResponse(
                    exc.status,
                    error_payload("bad_request", str(exc)),
                ).encode()
                writer.write(_render(exc.status, body, {}, keep_alive=False))
                await writer.drain()
                return
            if request is None:  # clean EOF between requests
                return
            method, target, headers, body = request
            keep_alive = (
                headers.get("connection", "keep-alive").lower()
                != "close"
            )
            started = self._api.now()
            self._begin_request()
            try:
                status, payload = await self._answer(
                    method, target, headers, body, keep_alive
                )
            finally:
                self._end_request()
            writer.write(payload)
            await writer.drain()
            # logged after the bytes are out (and for byte-cache hits
            # too), so every served request is metered exactly once
            self._api.log_request(method, target, status, started)
            if not keep_alive:
                return

    def _begin_request(self) -> None:
        self._inflight += 1
        assert self._idle_event is not None
        self._idle_event.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            assert self._idle_event is not None
            self._idle_event.set()

    async def _answer(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> tuple[int, bytes]:
        # hot path: whole-response byte cache for /v1 pattern reads.
        # Sound because /v1 GET responses are pure functions of
        # (snapshot version, target); conditional requests are
        # excluded so ETag handling stays in the API layer, and
        # Connection: close requests are excluded because the cached
        # rendering bakes in the keep-alive header.
        cacheable = (
            self._response_cache_size > 0
            and method == "GET"
            and keep_alive
            and target.startswith("/v1/patterns")
            and "if-none-match" not in headers
        )
        if cacheable:
            key = (self.store.version, target)
            hit = self._response_cache.get(key)
            if hit is not None:
                self._response_cache.move_to_end(key)
                self.response_cache_hits += 1
                self._m_response_hits.inc(cache="response")
                return 200, hit
            self.response_cache_misses += 1
            self._m_response_misses.inc(cache="response")
        answer = self._api.dispatch(method, target, body, headers)
        if isinstance(answer, UpdateIntent):
            answer = await self._submit_update(answer)
        elif isinstance(answer, EventsIntent):
            # Long-polls wait on a threading.Condition — off the loop,
            # one worker thread per waiting poller, so thousands of
            # pure readers keep multiplexing while pollers block.
            assert self._loop is not None
            answer = await self._loop.run_in_executor(
                None, self._api.run_events, answer
            )
        rendered = _render(
            answer.status,
            answer.encode(),
            answer.headers,
            keep_alive=keep_alive,
            content_type=answer.content_type,
        )
        if cacheable and answer.status == 200:
            self._response_cache[key] = rendered
            while len(self._response_cache) > self._response_cache_size:
                self._response_cache.popitem(last=False)
            self._m_response_size.set(
                len(self._response_cache), cache="response"
            )
        return answer.status, rendered

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            request_line = await reader.readline()
        except (asyncio.IncompleteReadError, ValueError):
            return None
        if not request_line:
            return None
        if len(request_line) > _MAX_HEADER_BYTES:
            raise _RequestError(431, "request line too long")
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _RequestError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _RequestError(431, "request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _RequestError(
                400, f"bad Content-Length {length_raw!r}"
            ) from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _RequestError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body


def _render(
    status: int,
    body: bytes,
    headers: dict[str, str],
    *,
    keep_alive: bool,
    content_type: str = "application/json",
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
