"""The ``/v1`` HTTP route/wire layer of the pattern server.

:class:`PatternAPI` is the transport-agnostic core of the serving
tier: it turns a parsed HTTP request (method, target, body, a few
headers) into an :class:`ApiResponse` — status, JSON payload, extra
headers — or an :class:`UpdateIntent` for writes, without touching a
socket.  The asyncio :class:`~repro.serve.aserver.AsyncPatternServer`
dispatches every request through one instance, and tests and
benchmarks drive the same instance without a socket, so the wire
contract is testable on its own.

**Routes.**  Every route lives under ``/v1``; any other path answers
the 404 ``not_found`` envelope:

* ``GET /v1/healthz`` — liveness, snapshot version, uptime, update
  queue depth, drain state;
* ``GET /v1/stats`` — store/index shape, cache counters, request
  counts;
* ``GET /v1/patterns`` — the query endpoint, with stable cursor
  pagination (``limit``/``cursor``) and conditional requests
  (``ETag`` / ``If-None-Match`` keyed on the snapshot version);
* ``GET /v1/patterns/{id}`` — one pattern by id;
* ``GET /v1/metrics`` — the metrics registry, in Prometheus text
  exposition format (``?format=json`` for the JSON rendering);
* ``GET /v1/events`` — flip lifecycle events
  (``flip_started``/``flip_stopped``/``flip_level_changed``) of
  generations newer than ``since_version``, long-polling up to
  ``timeout`` seconds for something to happen;
* ``POST /v1/update`` — feed a delta batch to the attached miner.

Every response body is a pure function of ``(snapshot version,
request target)`` — which is what makes whole-response byte caching
sound.

**Rendering.**  A pattern is rendered once, when its row enters a
snapshot (:meth:`~repro.serve.store.StoreSnapshot.body`).
``/v1/patterns`` and ``/v1/patterns/{id}`` put those stored texts in
their payload as a :class:`RawJSON` value, and
:meth:`ApiResponse.encode` writes it verbatim between the payload's
other members, each encoded with ``json.dumps``: the bytes equal
``json.dumps`` of the answer rendered afresh
(:meth:`~repro.serve.query.QueryResult.to_dict`).

**Errors.**  Every 4xx/5xx is one uniform envelope::

    {"error": {"code": "...", "message": "...", "detail": {...}}}

Unknown query parameters, duplicated parameters and unknown body
fields are a loud 400 — a typoed filter silently matching everything
is the worst failure mode a serving API can have.

**Consistency.**  Each request pins one immutable
:class:`~repro.serve.store.StoreSnapshot` up front and is answered
entirely from it.  Pagination cursors encode the snapshot version
they started from and fail with 409 ``stale_cursor`` once a newer
generation is published — clients restart from page one rather than
silently straddling two generations.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError, ReproError, ServeError
from repro.obs import catalog
from repro.obs.exposition import (
    CONTENT_TYPE_TEXT,
    render_json,
    render_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.query import Query, QueryEngine
from repro.serve.store import PatternStore, StoreSnapshot

__all__ = [
    "API_VERSION_PREFIX",
    "ApiError",
    "ApiResponse",
    "EventsIntent",
    "PatternAPI",
    "RawJSON",
    "UpdateIntent",
    "decode_cursor",
    "encode_cursor",
    "error_payload",
    "query_from_params",
]

logger = logging.getLogger("repro.serve")

#: the current (only) API version prefix
API_VERSION_PREFIX = "/v1"

#: query-string parameter -> Query field (+ value parser)
_QUERY_PARAMS: dict[str, tuple[str, Any]] = {
    "items": ("contains_items", lambda v: tuple(
        part.strip() for part in v.split(",") if part.strip()
    )),
    "under": ("under_node", str),
    "signature": ("signature", str),
    "min_height": ("min_height", int),
    "max_height": ("max_height", int),
    "min_corr": ("min_correlation", float),
    "max_corr": ("max_correlation", float),
    "min_correlation": ("min_correlation", float),
    "max_correlation": ("max_correlation", float),
    "min_support": ("min_support", int),
    "max_support": ("max_support", int),
    "sort": ("sort_by", str),
    "order": ("descending", lambda v: _parse_order(v)),
    "limit": ("limit", int),
    "offset": ("offset", int),
}

#: parameters handled by the route layer before Query construction
_ROUTE_PARAMS = ("cursor", "expect_version")


def _parse_order(value: str) -> bool:
    if value not in ("asc", "desc"):
        raise ConfigError(f"order must be 'asc' or 'desc', got {value!r}")
    return value == "desc"


def query_from_params(params: dict[str, str]) -> Query:
    """Build a :class:`Query` from HTTP query-string parameters.

    Unknown parameters are rejected (a typoed filter silently
    matching everything is the worst failure mode a serving API can
    have).
    """
    kwargs: dict[str, Any] = {}
    for key, raw in params.items():
        spec = _QUERY_PARAMS.get(key)
        if spec is None:
            known = ", ".join(sorted(_QUERY_PARAMS) + list(_ROUTE_PARAMS))
            raise ConfigError(
                f"unknown query parameter {key!r} (known: {known})"
            )
        name, parse = spec
        try:
            kwargs[name] = parse(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad value {raw!r} for query parameter {key!r}"
            ) from None
    return Query(**kwargs)


class ApiError(ReproError):
    """An HTTP-mapped failure with a machine-readable error code."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail or {}


def error_payload(
    code: str, message: str, detail: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The uniform error envelope used for every 4xx/5xx response."""
    return {
        "error": {
            "code": code,
            "message": message,
            "detail": detail or {},
        }
    }


class RawJSON:
    """A payload member's value, already encoded as JSON text."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _member(key: str, value: Any) -> str:
    text = value.text if isinstance(value, RawJSON) else json.dumps(value)
    return f"{json.dumps(key)}: {text}"


@dataclass
class ApiResponse:
    """One fully-decided HTTP response, transport not included.

    ``payload is None`` means an empty body (the 304 case); otherwise
    the payload is JSON-encoded by :meth:`encode`: a :class:`RawJSON`
    member value is written verbatim, every other value as
    ``json.dumps`` writes it, so the bytes are those of ``json.dumps``
    over the decoded payload.  Non-JSON routes (the Prometheus
    exposition) set ``body`` directly along with their
    ``content_type``; ``body`` wins over ``payload``.
    """

    status: int
    payload: Any | None
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"
    body: bytes | None = None

    def encode(self) -> bytes:
        if self.body is not None:
            return self.body
        if self.payload is None:
            return b""
        payload = self.payload
        if isinstance(payload, dict) and any(
            isinstance(value, RawJSON) for value in payload.values()
        ):
            members = ", ".join(
                _member(key, value) for key, value in payload.items()
            )
            return f"{{{members}}}".encode("utf-8")
        return json.dumps(payload).encode("utf-8")


@dataclass
class UpdateIntent:
    """A validated ``POST .../update`` waiting for the writer path.

    Dispatch validates the request (routes, body shape, read-only
    state) but does **not** run the update — the server decides how
    writes are serialized (the asyncio server's bounded queue and
    single writer task) and then calls :meth:`PatternAPI.run_update`.
    """

    transactions: list[Any]


#: hard ceiling on one events long-poll (seconds)
MAX_EVENTS_TIMEOUT = 60.0


@dataclass
class EventsIntent:
    """A validated ``GET .../events`` waiting for the (possibly
    blocking) long-poll.

    Dispatch validates parameters but does **not** wait — the server
    decides where the blocking wait may run (``run_in_executor`` in
    the asyncio server, which must never block its event loop) and
    then calls :meth:`PatternAPI.run_events`.
    """

    since_version: int
    timeout: float
    limit: int | None


def encode_cursor(version: int, offset: int) -> str:
    """A stable, opaque pagination cursor: snapshot version + offset."""
    raw = json.dumps({"v": version, "o": offset}).encode("ascii")
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def decode_cursor(cursor: str) -> tuple[int, int]:
    """Invert :func:`encode_cursor`; raises :class:`ApiError` (400)."""
    padded = cursor + "=" * (-len(cursor) % 4)
    try:
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        doc = json.loads(raw.decode("ascii"))
        version, offset = doc["v"], doc["o"]
        if not isinstance(version, int) or not isinstance(offset, int):
            raise ValueError("cursor fields must be integers")
        if offset < 0:
            raise ValueError("cursor offset must be >= 0")
    except (
        ValueError,
        KeyError,
        TypeError,
        binascii.Error,
        UnicodeError,
    ) as exc:
        raise ApiError(
            400,
            "bad_cursor",
            f"malformed pagination cursor {cursor!r}",
            {"reason": str(exc)},
        ) from None
    return version, offset


#: body fields POST .../update accepts; anything else is a loud 400
_UPDATE_FIELDS = {"transactions"}


class PatternAPI:
    """Routes + wire formats over one engine, without a socket.

    Parameters
    ----------
    engine:
        The query engine (over a live :class:`PatternStore`).
    miner:
        Anything with ``update(transactions) -> MiningResult``;
        ``None`` makes the API read-only (updates answer 409).
    store_path:
        When set, the store is re-saved here after every successful
        update.
    queue_depth:
        Callable reporting the server's pending-update queue depth
        (the asyncio server's bounded queue; 0 when not given).
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        miner: Any | None = None,
        store_path: str | Path | None = None,
        queue_depth: Callable[[], int] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._engine = engine
        self._miner = miner
        self._store_path = Path(store_path) if store_path else None
        self._queue_depth = queue_depth or (lambda: 0)
        self._counter_lock = threading.Lock()
        self._started = time.monotonic()
        self._requests = 0
        self._updates = 0
        self._draining = False
        self._request_seq = 0
        #: default to the engine's registry, so one injection point
        #: (QueryEngine(..., registry=...)) isolates a whole server
        self.registry = (
            registry if registry is not None else engine.registry
        )
        self._m_requests = self.registry.counter(catalog.HTTP_REQUESTS)
        self._m_latency = self.registry.histogram(
            catalog.HTTP_REQUEST_SECONDS
        )
        self._m_sheds = self.registry.counter(catalog.HTTP_SHEDS)
        self._m_updates = self.registry.counter(catalog.UPDATES)
        self._m_uptime = self.registry.gauge(catalog.UPTIME_SECONDS)
        self._m_snap_version = self.registry.gauge(
            catalog.SNAPSHOT_VERSION
        )
        self._m_snap_age = self.registry.gauge(
            catalog.SNAPSHOT_AGE_SECONDS
        )
        self._m_snap_patterns = self.registry.gauge(
            catalog.SNAPSHOT_PATTERNS
        )
        self._m_queue_depth = self.registry.gauge(
            catalog.UPDATE_QUEUE_DEPTH
        )

    # ------------------------------------------------------------------
    # shared state the servers read
    # ------------------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def store(self) -> PatternStore:
        store = self._engine.store
        assert isinstance(store, PatternStore)
        return store

    @property
    def read_only(self) -> bool:
        return self._miner is None

    def begin_drain(self) -> None:
        """Flip health to draining; requests are still answered."""
        self._draining = True

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Request-timing clock; the server stamps request starts
        here so tests can freeze one clock."""
        return time.perf_counter()

    def route_template(self, target: str) -> str:
        """The bounded route label of one request target.

        The label is the route below ``/v1``; concrete pattern ids are
        folded into ``/patterns/{id}`` and unroutable paths (any path
        outside ``/v1`` among them) into ``other`` — every label value
        is one of a small closed set, never a client-controlled string.
        """
        path = _route_path(urlsplit(target).path)
        if path is None:
            return "other"
        if path.startswith("/patterns/"):
            return "/patterns/{id}"
        if path in ("/healthz", "/stats", "/patterns", "/update",
                    "/metrics", "/events"):
            return path
        return "other"

    def log_request(
        self,
        method: str,
        target: str,
        status: int,
        started: float,
    ) -> None:
        """Meter and log one finished request (any transport).

        Feeds the per-route request counter and latency histogram,
        and emits exactly one structured JSON log line: route, status,
        latency, snapshot version and a per-API request id.  The line
        is built only when ``repro.serve`` logs at INFO.
        """
        elapsed = max(0.0, self.now() - started)
        route = self.route_template(target)
        self._m_requests.inc(route=route, status=str(status))
        self._m_latency.observe(elapsed, route=route)
        with self._counter_lock:
            self._request_seq += 1
            request_id = self._request_seq
        if not logger.isEnabledFor(logging.INFO):
            return
        logger.info(
            json.dumps(
                {
                    "event": "request",
                    "method": method,
                    "route": route,
                    "target": target,
                    "status": status,
                    "latency_ms": round(elapsed * 1000.0, 3),
                    "store_version": self.store.version,
                    "request_id": request_id,
                },
                sort_keys=True,
            )
        )

    def record_shed(self) -> None:
        """Count one load-shedding 503 (update queue full)."""
        self._m_sheds.inc()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> ApiResponse | UpdateIntent | EventsIntent:
        """Answer one request (or hand back a validated intent the
        server runs where blocking is allowed).

        ``target`` is the raw request target (path plus query
        string); ``headers`` only needs the entries the API reads
        (``if-none-match``), lower-cased.  Never raises: every
        failure becomes an enveloped 4xx/5xx :class:`ApiResponse`.
        """
        with self._counter_lock:
            self._requests += 1
        split = urlsplit(target)
        try:
            path = _route_path(split.path)
            if path is None:
                raise ApiError(
                    404,
                    "not_found",
                    f"no route {method} {split.path}",
                    {"method": method, "path": split.path},
                )
            params = _single_valued(split.query)
            answer = self._route(method, path, params, body, headers or {})
        except ApiError as exc:
            answer = ApiResponse(
                exc.status,
                error_payload(exc.code, str(exc), exc.detail),
            )
        except ServeError as exc:
            answer = ApiResponse(409, error_payload("conflict", str(exc)))
        except ReproError as exc:
            answer = ApiResponse(400, error_payload("bad_request", str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error on %s %s", method, target)
            answer = ApiResponse(
                500,
                error_payload("internal", f"internal error: {exc}"),
            )
        return answer

    def _route(
        self,
        method: str,
        path: str,
        params: dict[str, str],
        body: bytes,
        headers: Mapping[str, str],
    ) -> ApiResponse | UpdateIntent | EventsIntent:
        snap = self.store.snapshot()
        if method == "GET" and path == "/healthz":
            _forbid_params(params)
            return ApiResponse(200, self._healthz(snap))
        if method == "GET" and path == "/stats":
            _forbid_params(params)
            return ApiResponse(200, self._stats(snap))
        if method == "GET" and path == "/metrics":
            return self._metrics(snap, params)
        if method == "GET" and path == "/patterns":
            return self._patterns(snap, params, headers)
        if method == "GET" and path.startswith("/patterns/"):
            _forbid_params(params)
            return self._one(snap, path[len("/patterns/") :])
        if method == "GET" and path == "/events":
            return self._events_intent(params)
        if method == "POST" and path == "/update":
            _forbid_params(params)
            return self._update_intent(body)
        raise ApiError(
            404,
            "not_found",
            f"no route {method} {path}",
            {"method": method, "path": path},
        )

    # ------------------------------------------------------------------
    # read endpoints
    # ------------------------------------------------------------------

    def _refresh_gauges(self, snap: StoreSnapshot) -> None:
        """Bring the live gauges up to date (scrape/health time).

        Gauges are refreshed on read rather than continuously pushed:
        there is no background thread to leak, and a scrape always
        reports the instant it happened.
        """
        self._m_uptime.set(time.monotonic() - self._started)
        self._m_snap_version.set(snap.version)
        self._m_snap_patterns.set(len(snap))
        self._m_snap_age.set(self.store.snapshot_age_seconds)
        self._m_queue_depth.set(self._queue_depth())

    def _metrics(
        self, snap: StoreSnapshot, params: dict[str, str]
    ) -> ApiResponse:
        fmt = params.pop("format", "prometheus")
        _forbid_params(params)
        if fmt not in ("prometheus", "json"):
            raise ApiError(
                400,
                "bad_request",
                f"unknown metrics format {fmt!r} "
                "(known: prometheus, json)",
                {"format": fmt},
            )
        self._refresh_gauges(snap)
        if fmt == "json":
            return ApiResponse(200, render_json(self.registry))
        return ApiResponse(
            200,
            None,
            content_type=CONTENT_TYPE_TEXT,
            body=render_text(self.registry).encode("utf-8"),
        )

    def _healthz(self, snap: StoreSnapshot) -> dict[str, Any]:
        # Health reads the same registry series /v1/metrics exposes,
        # so the two surfaces cannot disagree about depth/age/uptime.
        self._refresh_gauges(snap)
        registry = self.registry
        return {
            "status": "draining" if self._draining else "ok",
            "store_version": snap.version,
            "n_patterns": len(snap),
            "uptime_seconds": registry.value(catalog.UPTIME_SECONDS),
            "snapshot_age_seconds": registry.value(
                catalog.SNAPSHOT_AGE_SECONDS
            ),
            "queue_depth": int(
                registry.value(catalog.UPDATE_QUEUE_DEPTH)
            ),
            "draining": self._draining,
        }

    def _stats(self, snap: StoreSnapshot) -> dict[str, Any]:
        with self._counter_lock:
            requests, updates = self._requests, self._updates
        return {
            "store": snap.stats(),
            "cache": self._engine.cache_info(),
            "server": {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": requests,
                "updates": updates,
                "read_only": self.read_only,
            },
        }

    def _patterns(
        self,
        snap: StoreSnapshot,
        params: dict[str, str],
        headers: Mapping[str, str],
    ) -> ApiResponse:
        expect_version = _pop_expect_version(params)
        cursor = params.pop("cursor", None)
        if cursor is not None:
            if "offset" in params:
                raise ApiError(
                    400,
                    "bad_request",
                    "cursor and offset are mutually exclusive",
                )
            cursor_version, offset = decode_cursor(cursor)
            if cursor_version != snap.version:
                raise ApiError(
                    409,
                    "stale_cursor",
                    f"cursor pinned store version {cursor_version}, "
                    f"store is at {snap.version}",
                    {
                        "cursor_version": cursor_version,
                        "store_version": snap.version,
                    },
                )
            params["offset"] = str(offset)
        query = query_from_params(params)
        etag = f'"patterns-v{snap.version}"'
        response_headers = {"ETag": etag}
        if headers.get("if-none-match") == etag:
            return ApiResponse(304, None, response_headers)
        result = self._engine.execute(
            query, expect_version=expect_version, snapshot=snap
        )
        page = RawJSON("[" + ", ".join(result.bodies) + "]")
        payload = result.envelope(page)
        if (
            query.limit is not None
            and query.offset + len(result.ids) < result.total
        ):
            payload["next_cursor"] = encode_cursor(
                snap.version, query.offset + len(result.ids)
            )
        return ApiResponse(200, payload, response_headers)

    def _one(self, snap: StoreSnapshot, pid: str) -> ApiResponse:
        body = snap.body(pid)
        if body is None:
            raise ApiError(
                404,
                "not_found",
                f"no pattern with id {pid!r}",
                {"id": pid},
            )
        return ApiResponse(
            200, {"store_version": snap.version, "pattern": RawJSON(body)}
        )

    # ------------------------------------------------------------------
    # lifecycle events (the long-poll path)
    # ------------------------------------------------------------------

    def _events_intent(self, params: dict[str, str]) -> EventsIntent:
        since_version = 0
        raw = params.pop("since_version", None)
        if raw is not None:
            try:
                since_version = int(raw)
            except ValueError:
                raise ApiError(
                    400,
                    "bad_request",
                    f"bad value {raw!r} for since_version",
                ) from None
            if since_version < 0:
                raise ApiError(
                    400,
                    "bad_request",
                    f"since_version must be >= 0, got {since_version}",
                )
        timeout = 0.0
        raw = params.pop("timeout", None)
        if raw is not None:
            try:
                timeout = float(raw)
            except ValueError:
                raise ApiError(
                    400,
                    "bad_request",
                    f"bad value {raw!r} for timeout",
                ) from None
            if not 0.0 <= timeout <= MAX_EVENTS_TIMEOUT:
                raise ApiError(
                    400,
                    "bad_request",
                    f"timeout must be in [0, {MAX_EVENTS_TIMEOUT:g}] "
                    f"seconds, got {timeout:g}",
                )
        limit: int | None = None
        raw = params.pop("limit", None)
        if raw is not None:
            try:
                limit = int(raw)
            except ValueError:
                raise ApiError(
                    400,
                    "bad_request",
                    f"bad value {raw!r} for limit",
                ) from None
            if limit < 1:
                raise ApiError(
                    400,
                    "bad_request",
                    f"limit must be >= 1, got {limit}",
                )
        _forbid_params(params)
        return EventsIntent(since_version, timeout, limit)

    def run_events(self, intent: EventsIntent) -> ApiResponse:
        """Serve one events long-poll (may block up to the intent's
        timeout — run it where blocking is allowed).  Never raises.
        """
        try:
            store = self.store
            if intent.timeout > 0:
                events, truncated = store.wait_for_events(
                    intent.since_version, intent.timeout, intent.limit
                )
            else:
                events, truncated = store.events_since(
                    intent.since_version, intent.limit
                )
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("events poll failed")
            return ApiResponse(
                500,
                error_payload("internal", f"internal error: {exc}"),
            )
        next_since = (
            events[-1].version if events else intent.since_version
        )
        return ApiResponse(
            200,
            {
                "store_version": store.version,
                "since_version": intent.since_version,
                "next_since": next_since,
                "truncated": truncated,
                "events": [event.to_dict() for event in events],
            },
        )

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

    def _update_intent(self, raw: bytes) -> UpdateIntent:
        if self._miner is None:
            raise ApiError(
                409,
                "read_only",
                "server is read-only (started from a result archive; "
                "no incremental miner attached)",
            )
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(
                400,
                "bad_request",
                f"update body is not valid JSON: {exc}",
            ) from None
        if not isinstance(body, dict):
            raise ApiError(
                400,
                "bad_request",
                'update body must be {"transactions": [[item, ...], ...]}',
            )
        unknown = sorted(set(body) - _UPDATE_FIELDS)
        if unknown:
            raise ApiError(
                400,
                "bad_request",
                "unknown update body field(s): " + ", ".join(unknown),
                {"unknown": unknown, "known": sorted(_UPDATE_FIELDS)},
            )
        transactions = body.get("transactions")
        if not isinstance(transactions, list):
            raise ApiError(
                400,
                "bad_request",
                'update body must be {"transactions": [[item, ...], ...]}',
            )
        return UpdateIntent(transactions)

    def run_update(self, intent: UpdateIntent) -> ApiResponse:
        """Mine the delta, publish the next snapshot, persist it.

        The caller is responsible for serializing calls (the snapshot
        swap itself is atomic, but two concurrent miner updates would
        race on the miner's internal state).  Never raises.
        """
        try:
            result = self._miner.update(intent.transactions)
            diff = self.store.apply_result(result)
            if self._store_path is not None:
                self.store.save(self._store_path)
            with self._counter_lock:
                self._updates += 1
            self._m_updates.inc()
        except ApiError as exc:
            return ApiResponse(
                exc.status, error_payload(exc.code, str(exc), exc.detail)
            )
        except ServeError as exc:
            return ApiResponse(409, error_payload("conflict", str(exc)))
        except ReproError as exc:
            return ApiResponse(400, error_payload("bad_request", str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("update failed")
            return ApiResponse(
                500,
                error_payload("internal", f"internal error: {exc}"),
            )
        info = result.config.get("incremental", {})
        return ApiResponse(
            200,
            {
                "store_version": diff["version"],
                "n_patterns": len(self.store),
                "mode": info.get("mode"),
                "delta_rows": info.get(
                    "delta_rows", len(intent.transactions)
                ),
                "reindexed": {
                    key: diff[key]
                    for key in ("added", "changed", "removed", "unchanged")
                },
            },
        )


def _route_path(path: str) -> str | None:
    """A request path below ``/v1`` (``/`` for ``/v1`` itself), or
    ``None`` for a path outside ``/v1``."""
    path = path.rstrip("/") or "/"
    if path == API_VERSION_PREFIX:
        return "/"
    if path.startswith(API_VERSION_PREFIX + "/"):
        return path[len(API_VERSION_PREFIX) :]
    return None


def _single_valued(query_string: str) -> dict[str, str]:
    raw_params = parse_qs(query_string, keep_blank_values=True)
    repeated = sorted(
        key for key, values in raw_params.items() if len(values) > 1
    )
    if repeated:
        raise ConfigError(
            "duplicate query parameter(s): " + ", ".join(repeated)
        )
    return {key: values[0] for key, values in raw_params.items()}


def _forbid_params(params: dict[str, str]) -> None:
    if params:
        unknown = ", ".join(sorted(params))
        raise ApiError(
            400,
            "bad_request",
            f"unknown query parameter(s): {unknown}",
            {"unknown": sorted(params)},
        )


def _pop_expect_version(params: dict[str, str]) -> int | None:
    raw = params.pop("expect_version", None)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ApiError(
            400,
            "bad_request",
            f"bad value {raw!r} for expect_version",
        ) from None
