"""The /v1/metrics surface: exposition, health consistency, logs,
and frozen clocks."""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.obs import catalog
from repro.obs.exposition import CONTENT_TYPE_TEXT
from repro.obs.metrics import MetricsRegistry
from repro.serve import AsyncPatternServer, PatternStore


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
    with urllib.request.urlopen(url) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _get_body(url: str) -> bytes:
    """Body of a GET regardless of status (4xx bodies included)."""
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.read()
    except urllib.error.HTTPError as error:
        return error.read()


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not met within timeout")


@pytest.fixture
def server(toy_store):
    with AsyncPatternServer(toy_store, registry=MetricsRegistry()) as running:
        yield running


class TestMetricsEndpoint:
    def test_prometheus_text_default(self, server):
        _get(server.url + "/v1/patterns?limit=5")
        registry = server.api.registry
        _wait_until(
            lambda: registry.value(
                catalog.HTTP_REQUESTS, route="/patterns", status="200"
            )
            >= 1
        )
        status, headers, body = _get(server.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE_TEXT
        text = body.decode("utf-8")
        assert (
            f"# TYPE {catalog.HTTP_REQUESTS} counter" in text
        )
        assert (
            f'{catalog.HTTP_REQUESTS}{{route="/patterns",status="200"}}'
            in text
        )
        assert f"# TYPE {catalog.HTTP_REQUEST_SECONDS} histogram" in text
        assert f"{catalog.SNAPSHOT_VERSION} 1" in text
        assert f"# TYPE {catalog.CACHE_SIZE} gauge" in text
        assert f'{catalog.CACHE_SIZE}{{cache="query"}}' in text

    def test_json_format(self, server):
        status, _headers, body = _get(
            server.url + "/v1/metrics?format=json"
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["format"] == "repro.metrics"
        assert doc["version"] == 1
        names = {metric["name"] for metric in doc["metrics"]}
        assert catalog.HTTP_REQUESTS in names
        assert catalog.UPTIME_SECONDS in names

    def test_unknown_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + "/v1/metrics?format=xml")
        assert info.value.code == 400
        payload = json.loads(info.value.read())
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["detail"] == {"format": "xml"}

    def test_unknown_param_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + "/v1/metrics?verbose=1")
        info.value.close()
        assert info.value.code == 400

    def test_legacy_alias_carries_deprecation_header(self, server):
        status, headers, _body = _get(server.url + "/metrics")
        assert status == 200
        assert headers.get("Deprecation") == "true"

    def test_latency_histogram_accumulates(self, server):
        for _ in range(3):
            _get(server.url + "/v1/patterns?limit=1")
        registry = server.api.registry
        histogram = registry.get(catalog.HTTP_REQUEST_SECONDS)
        _wait_until(
            lambda: histogram.data(route="/patterns").total >= 3
        )
        assert histogram.quantile(0.5, route="/patterns") >= 0.0

    def test_route_template_folds_ids_and_unknowns(self, server):
        api = server.api
        assert api.route_template("/v1/patterns/abc123") == (
            "/patterns/{id}"
        )
        assert api.route_template("/patterns/abc123") == (
            "/patterns/{id}"
        )
        assert api.route_template("/v1/metrics?format=json") == "/metrics"
        assert api.route_template("/v1/wat") == "other"
        assert api.route_template("/") == "other"


class TestHealthzConsistency:
    def test_healthz_reads_the_registry_series(self, server):
        status, _headers, body = _get(server.url + "/v1/healthz")
        assert status == 200
        payload = json.loads(body)
        registry = server.api.registry
        assert payload["uptime_seconds"] == registry.value(
            catalog.UPTIME_SECONDS
        )
        assert payload["snapshot_age_seconds"] == registry.value(
            catalog.SNAPSHOT_AGE_SECONDS
        )
        assert payload["queue_depth"] == int(
            registry.value(catalog.UPDATE_QUEUE_DEPTH)
        )
        assert payload["uptime_seconds"] >= 0.0
        assert payload["snapshot_age_seconds"] >= 0.0

    def test_update_bumps_counter_and_snapshot_gauges(self, live_miner):
        registry = MetricsRegistry()
        store = PatternStore.build(live_miner.mine())
        with AsyncPatternServer(
            store, miner=live_miner, registry=registry
        ) as server:
            request = urllib.request.Request(
                server.url + "/v1/update",
                data=json.dumps(
                    {"transactions": [["a11", "b11"]]}
                ).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as resp:
                assert resp.status == 200
            assert registry.value(catalog.UPDATES) == 1
            text = _get(server.url + "/v1/metrics")[2].decode()
            assert f"{catalog.UPDATES} 1" in text
            assert f"{catalog.SNAPSHOT_VERSION} 2" in text


class TestStructuredLogs:
    def test_request_log_line_is_json(self, server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            _get(server.url + "/v1/patterns?limit=2")
            _wait_until(
                lambda: any(
                    record.message.startswith("{")
                    for record in caplog.records
                )
            )
        lines = [
            json.loads(record.message)
            for record in caplog.records
            if record.message.startswith("{")
        ]
        (entry,) = [
            line for line in lines if line["route"] == "/patterns"
        ]
        assert entry["event"] == "request"
        assert entry["method"] == "GET"
        assert entry["status"] == 200
        assert entry["latency_ms"] >= 0.0
        assert entry["store_version"] == 1
        assert entry["request_id"] >= 1
        assert entry["target"] == "/v1/patterns?limit=2"

    def test_async_server_logs_the_same_shape(self, toy_store, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            with AsyncPatternServer(
                toy_store, registry=MetricsRegistry()
            ) as server:
                _get(server.url + "/v1/patterns?limit=2")
                _wait_until(
                    lambda: any(
                        record.message.startswith("{")
                        for record in caplog.records
                    )
                )
        entries = [
            json.loads(record.message)
            for record in caplog.records
            if record.message.startswith("{")
        ]
        assert any(
            entry["route"] == "/patterns" and entry["status"] == 200
            for entry in entries
        )


class TestAsyncMetrics:
    def test_scrape_and_response_cache_series(self, toy_store):
        import http.client

        registry = MetricsRegistry()
        with AsyncPatternServer(
            toy_store, registry=registry
        ) as server:
            # whole-response caching only applies to keep-alive
            # connections, which urllib does not speak
            conn = http.client.HTTPConnection(server.host, server.port)
            try:
                for _ in range(2):
                    conn.request("GET", "/v1/patterns?limit=3")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()
            _wait_until(
                lambda: registry.value(
                    catalog.CACHE_HITS, cache="response"
                )
                >= 1
            )
            assert (
                registry.value(catalog.CACHE_MISSES, cache="response")
                >= 1
            )
            status, headers, body = _get(server.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE_TEXT
        text = body.decode("utf-8")
        assert f'{catalog.CACHE_HITS}{{cache="response"}}' in text


class TestFrozenClocks:
    """With the api and store clocks frozen, /v1/metrics reports zero
    uptime and snapshot age after a request history."""

    #: the request script driven before the scrape
    SCRIPT = (
        "/v1/patterns?limit=5",
        "/v1/patterns?signature=%2B-%2B",
        "/v1/healthz",
        "/v1/patterns/nope",
        "/v1/wat",
    )

    def _drive(self, server) -> bytes:
        for target in self.SCRIPT:
            _get_body(server.url + target)
        registry = server.api.registry
        counter = registry.get(catalog.HTTP_REQUESTS)
        _wait_until(
            lambda: sum(
                value for _labels, value in counter.samples()
            )
            >= len(self.SCRIPT)
        )
        return _get_body(server.url + "/v1/metrics")

    def test_metrics_body_reads_frozen_clocks(self, toy_result, monkeypatch):
        frozen = SimpleNamespace(
            monotonic=lambda: 1000.0, perf_counter=lambda: 500.0
        )
        # freeze the request/uptime/snapshot-age clocks in the api and
        # store modules only (the asyncio loop keeps the real clock)
        monkeypatch.setattr("repro.serve.api.time", frozen)
        monkeypatch.setattr("repro.serve.store.time", frozen)
        server = AsyncPatternServer(
            PatternStore.build(toy_result),
            response_cache_size=0,
            registry=MetricsRegistry(),
        )
        with server:
            body = self._drive(server)
        text = body.decode("utf-8")
        assert f"{catalog.UPTIME_SECONDS} 0" in text
        assert f"{catalog.SNAPSHOT_AGE_SECONDS} 0" in text
