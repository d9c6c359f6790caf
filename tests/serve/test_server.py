"""End-to-end tests of the HTTP serving layer (real sockets)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.flipper import mine_flipping_patterns
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.serve import (
    AsyncPatternServer,
    PatternStore,
    Query,
    linear_scan,
    query_from_params,
)


def _get(url: str):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _error(call):
    with pytest.raises(urllib.error.HTTPError) as info:
        call()
    return info.value.code, json.loads(info.value.read().decode("utf-8"))


@pytest.fixture
def server(corpus_store):
    with AsyncPatternServer(corpus_store) as running:
        yield running


class TestParams:
    def test_full_param_surface(self):
        query = query_from_params(
            {
                "items": "b, a",
                "under": "cat01",
                "signature": "+-+",
                "min_height": "2",
                "max_height": "3",
                "min_corr": "0.1",
                "max_corr": "0.9",
                "min_support": "5",
                "max_support": "500",
                "sort": "min_gap",
                "order": "asc",
                "limit": "10",
                "offset": "3",
            }
        )
        assert query == Query(
            contains_items=("a", "b"),
            under_node="cat01",
            signature="+-+",
            min_height=2,
            max_height=3,
            min_correlation=0.1,
            max_correlation=0.9,
            min_support=5,
            max_support=500,
            sort_by="min_gap",
            descending=False,
            limit=10,
            offset=3,
        )

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown query parameter"):
            query_from_params({"colour": "red"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            query_from_params({"limit": "ten"})
        with pytest.raises(ConfigError, match="order"):
            query_from_params({"order": "sideways"})


class TestReadEndpoints:
    def test_healthz(self, server, corpus_store):
        status, payload = _get(server.url + "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["store_version"] == corpus_store.version
        assert payload["n_patterns"] == len(corpus_store)
        assert payload["uptime_seconds"] >= 0
        assert payload["queue_depth"] == 0
        assert payload["draining"] is False

    def test_patterns_matches_linear_scan(self, server, corpus_store):
        status, payload = _get(
            server.url + "/v1/patterns?under=cat01&sort=support&limit=10"
        )
        assert status == 200
        expected = linear_scan(
            corpus_store,
            Query(under_node="cat01", sort_by="support", limit=10),
        )
        assert [p["id"] for p in payload["patterns"]] == expected.ids
        assert payload["total"] == expected.total
        assert payload["store_version"] == corpus_store.version

    def test_single_pattern(self, server, corpus_store):
        pid = corpus_store.ids()[0]
        status, payload = _get(server.url + f"/v1/patterns/{pid}")
        assert status == 200
        assert payload["pattern"]["id"] == pid
        assert payload["pattern"]["chain"]

    def test_single_pattern_missing(self, server):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                server.url + "/v1/patterns/999-999"
            )
        )
        assert code == 404
        assert payload["error"]["code"] == "not_found"
        assert "999-999" in payload["error"]["message"]

    def test_unknown_route(self, server):
        code, payload = _error(
            lambda: urllib.request.urlopen(server.url + "/nope")
        )
        assert code == 404

    def test_bad_query_param_is_400(self, server):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                server.url + "/v1/patterns?colour=red"
            )
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert "unknown query parameter" in payload["error"]["message"]

    def test_stale_version_is_409(self, server):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                server.url + "/v1/patterns?expect_version=999"
            )
        )
        assert code == 409
        assert "stale store version" in payload["error"]["message"]

    def test_stats_shape(self, server, corpus_store):
        status, payload = _get(server.url + "/v1/stats")
        assert status == 200
        assert payload["store"]["n_patterns"] == len(corpus_store)
        assert payload["server"]["read_only"] is True
        assert payload["server"]["requests"] >= 1
        assert {"hits", "misses", "size"} <= set(payload["cache"])


class TestUpdates:
    def test_read_only_update_is_409(self, server):
        code, payload = _error(
            lambda: _post(server.url + "/v1/update", {"transactions": []})
        )
        assert code == 409
        assert payload["error"]["code"] == "read_only"
        assert "read-only" in payload["error"]["message"]

    def test_live_update_round_trip(
        self, live_miner, toy_database, toy_thresholds, tmp_path
    ):
        store = PatternStore.build(live_miner.mine())
        store_path = tmp_path / "pattern_store.json"
        delta = [["a11", "b11"], ["a12", "b12"]]
        with AsyncPatternServer(
            store, miner=live_miner, store_path=store_path
        ) as server:
            before = store.version
            status, payload = _post(
                server.url + "/v1/update", {"transactions": delta}
            )
            assert status == 200
            assert payload["mode"] in ("incremental", "full")
            assert payload["delta_rows"] == 2
            assert set(payload["reindexed"]) == {
                "added",
                "changed",
                "removed",
                "unchanged",
            }
            # served patterns now match a from-scratch mine of the
            # grown database
            rows = [
                toy_database.transaction_names(i)
                for i in range(len(toy_database))
            ]
            full = mine_flipping_patterns(
                TransactionDatabase(rows + delta, toy_database.taxonomy),
                toy_thresholds,
            )
            expected = PatternStore.build(full)
            _, page = _get(server.url + "/v1/patterns")
            assert [p["id"] for p in page["patterns"]] == (
                linear_scan(expected, Query()).ids
            )
            assert page["store_version"] >= before
            # ...and the on-disk copy is in lockstep
            assert PatternStore.open(store_path).version == store.version
            _, stats = _get(server.url + "/v1/stats")
            assert stats["server"]["updates"] == 1
            assert stats["server"]["read_only"] is False

    def test_malformed_update_body(self, live_miner):
        store = PatternStore.build(live_miner.mine())
        with AsyncPatternServer(store, miner=live_miner) as server:
            # unknown body fields are a loud 400...
            code, payload = _error(
                lambda: _post(server.url + "/v1/update", {"rows": []})
            )
            assert code == 400
            assert "rows" in payload["error"]["message"]
            assert payload["error"]["detail"]["known"] == ["transactions"]
            # ...and so is a missing/mistyped transactions list
            code, payload = _error(
                lambda: _post(server.url + "/v1/update", {})
            )
            assert code == 400
            assert "transactions" in payload["error"]["message"]


class TestLifecycle:
    def test_double_start_rejected(self, corpus_store):
        server = AsyncPatternServer(corpus_store)
        try:
            server.start()
            with pytest.raises(Exception, match="already started"):
                server.start()
        finally:
            server.close()

    def test_close_releases_port(self, corpus_store):
        server = AsyncPatternServer(corpus_store).start()
        port = server.port
        server.close()
        # the port is free again: a new server can bind it
        rebound = AsyncPatternServer(corpus_store, port=port)
        try:
            rebound.start()
            _, payload = _get(rebound.url + "/v1/healthz")
            assert payload["status"] == "ok"
        finally:
            rebound.close()


class TestKeepAlive:
    def test_connection_survives_early_return_post(self, corpus_store):
        """An unread POST body must be drained even when the handler
        short-circuits (409 read-only), or the next request on the
        reused HTTP/1.1 connection would parse body bytes as its
        request line."""
        import http.client

        with AsyncPatternServer(corpus_store) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=5
            )
            try:
                body = json.dumps({"transactions": [["x"] * 50] * 20})
                conn.request(
                    "POST",
                    "/v1/update",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 409
                response.read()
                # same socket, next request: must parse cleanly
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                payload = json.loads(response.read())
                assert payload["status"] == "ok"
                # a POST to an unknown route must drain too
                conn.request("POST", "/nowhere", body=body)
                response = conn.getresponse()
                assert response.status == 404
                response.read()
                conn.request("GET", "/v1/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()

    def test_duplicate_query_parameter_is_400(self, server):
        code, payload = _error(
            lambda: urllib.request.urlopen(
                server.url + "/v1/patterns?items=i1&items=i2"
            )
        )
        assert code == 400
        assert "duplicate query parameter" in payload["error"]["message"]


class TestConcurrency:
    def test_parallel_reads_during_update(self, live_miner):
        """Readers and an updating writer interleave without torn
        results: every response is internally consistent and carries
        a version the store actually had."""
        import threading

        store = PatternStore.build(live_miner.mine())
        errors: list[Exception] = []

        def read_loop(url: str) -> None:
            try:
                for _ in range(25):
                    with urllib.request.urlopen(
                        url + "/v1/patterns?sort=support"
                    ) as resp:
                        page = json.loads(resp.read())
                    assert page["count"] == page["total"]
                    assert page["store_version"] in (1, 2)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with AsyncPatternServer(store, miner=live_miner) as server:
            readers = [
                threading.Thread(target=read_loop, args=(server.url,))
                for _ in range(4)
            ]
            for thread in readers:
                thread.start()
            _post(
                server.url + "/v1/update",
                {"transactions": [["a11", "b11"], ["a12", "b12"]]},
            )
            for thread in readers:
                thread.join(timeout=30)
        assert errors == []
