"""The versioned ``/v1`` route layer: envelopes, cursors, ETags.

These tests drive :class:`~repro.serve.api.PatternAPI` directly —
the exact dispatch the server runs — so they cover the wire contract
without socket noise.  A closing test then asserts the same behaviour
over real HTTP through :class:`~repro.serve.aserver.AsyncPatternServer`.
"""

from __future__ import annotations

import json
import time
from urllib.parse import urlsplit

import pytest

from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    ApiResponse,
    PatternAPI,
    PatternStore,
    Query,
    QueryEngine,
    UpdateIntent,
    decode_cursor,
    encode_cursor,
)
from repro.serve.api import ApiError


@pytest.fixture
def api(corpus_store):
    return PatternAPI(QueryEngine(corpus_store, cache_size=8))


@pytest.fixture
def writable(live_miner):
    store = PatternStore.build(live_miner.mine())
    return PatternAPI(QueryEngine(store), miner=live_miner)


def _json(response):
    assert response.payload is not None
    return json.loads(response.encode())


def _envelope(response, code):
    """Every 4xx/5xx is the uniform error envelope, nothing else."""
    payload = _json(response)
    assert set(payload) == {"error"}
    error = payload["error"]
    assert set(error) <= {"code", "message", "detail"}
    assert error["code"] == code
    assert isinstance(error["message"], str) and error["message"]
    return error


class TestErrorEnvelope:
    def test_unknown_route_404(self, api):
        response = api.dispatch("GET", "/v1/nope")
        assert response.status == 404
        error = _envelope(response, "not_found")
        assert error["detail"]["path"] == "/nope"

    def test_missing_pattern_404(self, api):
        response = api.dispatch("GET", "/v1/patterns/999-999")
        assert response.status == 404
        error = _envelope(response, "not_found")
        assert error["detail"]["id"] == "999-999"

    def test_unknown_param_400(self, api):
        response = api.dispatch("GET", "/v1/patterns?colour=red")
        assert response.status == 400
        error = _envelope(response, "bad_request")
        assert "unknown query parameter" in error["message"]
        # the message teaches the caller the full legal surface
        assert "cursor" in error["message"]

    def test_duplicate_param_400(self, api):
        response = api.dispatch("GET", "/v1/patterns?limit=1&limit=2")
        assert response.status == 400
        error = _envelope(response, "bad_request")
        assert "duplicate query parameter" in error["message"]

    def test_stale_expect_version_409(self, api):
        response = api.dispatch("GET", "/v1/patterns?expect_version=999")
        assert response.status == 409
        error = _envelope(response, "conflict")
        assert "stale store version" in error["message"]

    def test_params_forbidden_off_the_query_route(self, api):
        for target in ("/v1/healthz?x=1", "/v1/stats?limit=3"):
            response = api.dispatch("GET", target)
            assert response.status == 400
            _envelope(response, "bad_request")

    def test_read_only_update_409(self, api):
        response = api.dispatch("POST", "/v1/update", b'{"transactions": []}')
        assert response.status == 409
        error = _envelope(response, "read_only")
        assert "read-only" in error["message"]

    def test_update_body_validation_400(self, writable):
        cases = [
            (b"{not json", "not valid JSON"),
            (b'["rows"]', "must be"),
            (b'{"rows": []}', "unknown update body field"),
            (b'{"transactions": 3}', "must be"),
        ]
        for body, fragment in cases:
            response = writable.dispatch("POST", "/v1/update", body)
            assert response.status == 400
            error = _envelope(response, "bad_request")
            assert fragment in error["message"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([None], "expected a list of item names, got NoneType"),
            (["a11"], "expected a list of item names, got str"),
            ([{"a11": 1}], "expected a list of item names, got dict"),
            ([["a11", 7]], "item 7 is not a string"),
        ],
    )
    def test_malformed_delta_rows_400(self, writable, rows, message):
        version = writable.store.version
        body = json.dumps({"transactions": [["b11"], *rows]}).encode()
        intent = writable.dispatch("POST", "/v1/update", body)
        assert isinstance(intent, UpdateIntent)
        response = writable.run_update(intent)
        assert response.status == 400
        error = _envelope(response, "bad_request")
        assert error["message"] == f"delta transaction 1: {message}"
        health = _json(writable.dispatch("GET", "/v1/healthz"))
        assert health["store_version"] == version

    def test_dispatch_never_raises(self, api):
        # even a hostile target resolves to an enveloped response
        for target in ("/v1//", "/v1/patterns/%00", "//", "/v1/../x"):
            response = api.dispatch("GET", target)
            assert response.status in (200, 400, 404)


#: every request the unprefixed aliases used to answer
UNPREFIXED = [
    ("GET", "/healthz"),
    ("GET", "/stats"),
    ("GET", "/patterns?limit=1"),
    ("GET", "/patterns/{id}"),
    ("GET", "/metrics"),
    ("GET", "/events"),
    ("POST", "/update"),
]


class TestDeprecationPolicy:
    """Only ``/v1`` routes answer: a path the unprefixed aliases
    served is an enveloped 404, and no response is deprecated."""

    @pytest.mark.parametrize("method, target", UNPREFIXED)
    def test_unprefixed_paths_are_not_found(self, writable, method, target):
        target = target.format(id=writable.store.ids()[0])
        response = writable.dispatch(method, target, b'{"transactions": []}')
        assert isinstance(response, ApiResponse)
        assert response.status == 404
        error = _envelope(response, "not_found")
        assert error["detail"] == {
            "method": method,
            "path": urlsplit(target).path,
        }
        assert "Deprecation" not in response.headers
        assert writable.route_template(target) == "other"

    @pytest.mark.parametrize(
        "target",
        [
            "/v1healthz",
            "/v10/healthz",
            "/V1/healthz",
            "/v2/healthz",
            "/api/v1/healthz",
            "/healthz/v1",
        ],
    )
    def test_prefix_lookalikes_are_not_found(self, api, target):
        """Only a first path segment of exactly ``v1`` routes."""
        response = api.dispatch("GET", target)
        assert response.status == 404
        error = _envelope(response, "not_found")
        assert error["detail"] == {"method": "GET", "path": target}
        assert api.route_template(target) == "other"

    def test_v1_routes_do_not(self, api):
        for target in (
            "/v1/healthz",
            "/v1/stats",
            "/v1/patterns?limit=1",
        ):
            response = api.dispatch("GET", target)
            assert "Deprecation" not in response.headers

    def test_v1_update_response_is_not(self, writable):
        intent = writable.dispatch(
            "POST", "/v1/update", b'{"transactions": []}'
        )
        assert isinstance(intent, UpdateIntent)
        response = writable.run_update(intent)
        assert response.status == 200
        assert "Deprecation" not in response.headers


class TestSurfaceParity:
    def test_v1_drops_the_volatile_cached_flag(self, api):
        target = "/v1/patterns?sort=support&limit=5"
        for _ in range(2):  # a query-cache miss, then a hit
            assert "cached" not in _json(api.dispatch("GET", target))

    def test_v1_patterns_is_a_pure_function_of_the_snapshot(self, api):
        target = "/v1/patterns?sort=support&limit=5"
        first = api.dispatch("GET", target)
        second = api.dispatch("GET", target)
        # byte-equal even though the second answer came from the
        # query cache — this is what makes /v1 byte-cacheable
        assert first.encode() == second.encode()

    def test_answers_match_the_engine(self, api, corpus_store):
        payload = _json(
            api.dispatch(
                "GET", "/v1/patterns?under=cat01&sort=support&limit=10"
            )
        )
        expected = api.engine.execute(
            Query(under_node="cat01", sort_by="support", limit=10)
        )
        assert [p["id"] for p in payload["patterns"]] == expected.ids
        assert payload["total"] == expected.total


class TestCursorPagination:
    def test_round_trip(self):
        cursor = encode_cursor(7, 40)
        assert decode_cursor(cursor) == (7, 40)

    def test_malformed_cursors_400(self, api):
        for bad in ("!!!", "eyJ2IjoxfQ", encode_cursor(1, 3) + "x"):
            response = api.dispatch("GET", f"/v1/patterns?cursor={bad}")
            assert response.status == 400, bad
            _envelope(response, "bad_cursor")
        with pytest.raises(ApiError):
            decode_cursor("@@@")

    def test_cursor_walk_covers_every_id_exactly_once(self, api, corpus_store):
        expected = api.engine.execute(Query(sort_by="support")).ids
        seen: list[str] = []
        target = "/v1/patterns?sort=support&limit=37"
        for _ in range(len(expected)):
            payload = _json(api.dispatch("GET", target))
            seen += [p["id"] for p in payload["patterns"]]
            cursor = payload.get("next_cursor")
            if cursor is None:
                assert payload["offset"] + payload["count"] == (
                    payload["total"]
                )
                break
            target = f"/v1/patterns?sort=support&limit=37&cursor={cursor}"
        assert seen == expected

    def test_cursor_and_offset_are_mutually_exclusive(self, api):
        cursor = encode_cursor(1, 5)
        response = api.dispatch(
            "GET", f"/v1/patterns?cursor={cursor}&offset=3"
        )
        assert response.status == 400
        error = _envelope(response, "bad_request")
        assert "mutually exclusive" in error["message"]

    def test_cursor_across_snapshot_swap_is_409(self, writable):
        payload = _json(writable.dispatch("GET", "/v1/patterns?limit=1"))
        cursor = encode_cursor(payload["store_version"], 0)
        intent = writable.dispatch(
            "POST",
            "/v1/update",
            json.dumps(
                {"transactions": [["a11", "b11"], ["a12", "b12"]]}
            ).encode(),
        )
        assert writable.run_update(intent).status == 200
        response = writable.dispatch(
            "GET", f"/v1/patterns?cursor={cursor}&limit=1"
        )
        assert response.status == 409
        error = _envelope(response, "stale_cursor")
        assert error["detail"]["cursor_version"] == payload["store_version"]
        assert error["detail"]["store_version"] > payload["store_version"]

    def test_cursor_is_rejected_on_the_legacy_surface(self, api):
        cursor = _json(api.dispatch("GET", "/v1/patterns?limit=5"))[
            "next_cursor"
        ]
        response = api.dispatch("GET", f"/patterns?limit=5&cursor={cursor}")
        assert response.status == 404
        error = _envelope(response, "not_found")
        assert error["detail"]["path"] == "/patterns"

    def test_no_cursor_without_limit_or_on_last_page(self, api):
        everything = _json(api.dispatch("GET", "/v1/patterns"))
        assert "next_cursor" not in everything
        total = everything["total"]
        last = _json(
            api.dispatch(
                "GET",
                f"/v1/patterns?limit=10&offset={total - 3}",
            )
        )
        assert "next_cursor" not in last


class TestEtagRevalidation:
    def test_etag_keyed_on_snapshot_version(self, api, corpus_store):
        response = api.dispatch("GET", "/v1/patterns?limit=1")
        etag = response.headers["ETag"]
        assert str(corpus_store.version) in etag
        repeat = api.dispatch(
            "GET",
            "/v1/patterns?limit=1",
            headers={"if-none-match": etag},
        )
        assert repeat.status == 304
        assert repeat.payload is None
        assert repeat.encode() == b""
        assert repeat.headers["ETag"] == etag

    def test_mismatched_etag_answers_in_full(self, api):
        response = api.dispatch(
            "GET",
            "/v1/patterns?limit=1",
            headers={"if-none-match": '"patterns-v999"'},
        )
        assert response.status == 200
        assert response.payload is not None

    def test_etag_moves_with_the_snapshot(self, writable):
        before = writable.dispatch("GET", "/v1/patterns").headers["ETag"]
        intent = writable.dispatch(
            "POST",
            "/v1/update",
            b'{"transactions": [["a11", "b11"], ["a12", "b12"]]}',
        )
        assert writable.run_update(intent).status == 200
        after = writable.dispatch(
            "GET",
            "/v1/patterns",
            headers={"if-none-match": before},
        )
        assert after.status == 200
        assert after.headers["ETag"] != before

    def test_legacy_surface_has_no_etag(self, api):
        """An unprefixed conditional request is a 404, never a 304."""
        etag = api.dispatch("GET", "/v1/patterns?limit=1").headers["ETag"]
        response = api.dispatch(
            "GET", "/patterns?limit=1", headers={"if-none-match": etag}
        )
        assert response.status == 404
        assert "ETag" not in response.headers
        _envelope(response, "not_found")


#: correlation bounds that are not finite numbers
NON_FINITE_BOUNDS = [
    "/v1/patterns?min_corr=nan&limit=2",
    "/v1/patterns?max_corr=inf",
    "/v1/patterns?min_corr=-inf",
]


def _strict_json(body: bytes):
    """``body`` parsed as RFC 8259 JSON (no NaN or Infinity)."""

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(body, parse_constant=reject)


class TestNonFiniteBounds:
    @pytest.mark.parametrize("target", NON_FINITE_BOUNDS)
    def test_dispatch_answers_400(self, api, target):
        response = api.dispatch("GET", target)
        assert response.status == 400
        error = _envelope(response, "bad_request")
        assert "must be finite" in error["message"]
        _strict_json(response.encode())

    def test_over_a_socket(self, corpus_store):
        import http.client

        from repro.serve import AsyncPatternServer

        with AsyncPatternServer(corpus_store) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                for target in NON_FINITE_BOUNDS:
                    conn.request("GET", target)
                    response = conn.getresponse()
                    body = _strict_json(response.read())
                    assert response.status == 400, (target, body)
                    assert body["error"]["code"] == "bad_request"
            finally:
                conn.close()


class TestOverHttp:
    """The same contract through real sockets."""

    @pytest.mark.parametrize("kind", ["async"])
    def test_v1_contract_end_to_end(self, kind, corpus_store):
        import http.client

        from repro.serve import AsyncPatternServer

        offline = PatternAPI(QueryEngine(corpus_store, cache_size=0))
        with AsyncPatternServer(corpus_store) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                target = "/v1/patterns?sort=support&limit=25"
                conn.request("GET", target)
                response = conn.getresponse()
                assert response.status == 200
                etag = response.headers["ETag"]
                body = response.read()
                assert body == offline.dispatch("GET", target).encode()
                # conditional revalidation over the same socket
                conn.request("GET", target, headers={"If-None-Match": etag})
                response = conn.getresponse()
                assert response.status == 304
                assert response.read() == b""
                # cursor continuation
                cursor = json.loads(body)["next_cursor"]
                conn.request("GET", f"{target}&cursor={cursor}")
                page = json.loads(conn.getresponse().read())
                assert page["offset"] == 25
                # an unprefixed path is an enveloped 404, not deprecated
                conn.request("GET", "/patterns/999-999")
                response = conn.getresponse()
                assert response.status == 404
                assert "Deprecation" not in response.headers
                error = json.loads(response.read())["error"]
                assert error["code"] == "not_found"
            finally:
                conn.close()

    def test_unprefixed_paths_404_under_route_other(self, corpus_store):
        import http.client

        from repro.serve import AsyncPatternServer

        registry = MetricsRegistry()
        with AsyncPatternServer(corpus_store, registry=registry) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                for method, target in UNPREFIXED:
                    target = target.format(id=corpus_store.ids()[0])
                    conn.request(method, target, body=b"{}")
                    response = conn.getresponse()
                    assert response.status == 404, target
                    assert "Deprecation" not in response.headers
                    error = json.loads(response.read())["error"]
                    assert error["code"] == "not_found"
            finally:
                conn.close()

            def metered():
                return registry.value(
                    catalog.HTTP_REQUESTS, route="other", status="404"
                )

            # each request is metered after its bytes are out
            deadline = time.monotonic() + 5.0
            while metered() < len(UNPREFIXED) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert metered() == len(UNPREFIXED)
