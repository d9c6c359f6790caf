"""Flip lifecycle events: diffing, the bounded ring, the long poll.

The contract under test: every generation swap publishes the exact
transition set between the two snapshots (started / stopped /
level-changed, keyed by pattern id), the ring reports truncation
instead of silently skipping, and ``GET /v1/events`` exposes all of
it — versions in the payload are real store generations.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time

import pytest

from repro.bench.serve import synthetic_serve_result
from repro.core.labels import Label
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.stats import MiningStats
from repro.errors import ConfigError
from repro.obs import catalog
from repro.obs.metrics import default_registry
from repro.serve import (
    AsyncPatternServer,
    PatternAPI,
    PatternStore,
    QueryEngine,
)
from repro.serve.api import EventsIntent
from repro.serve.store import EVENT_TYPES, PatternEvent, pattern_id_of


def chain(leaf_items, signature, support=50):
    """A minimal hand-built pattern with the given label trajectory."""
    links = []
    for depth, symbol in enumerate(signature):
        leaf = depth == len(signature) - 1
        itemset = tuple(leaf_items) if leaf else (900 + depth,)
        links.append(
            ChainLink(
                level=depth + 1,
                itemset=itemset,
                names=tuple(f"n{item}" for item in itemset),
                support=support + len(signature) - depth,
                correlation=0.9 if symbol == "+" else 0.1,
                label=Label.POSITIVE if symbol == "+" else Label.NEGATIVE,
            )
        )
    return FlippingPattern(links=tuple(links))


def result_of(*patterns):
    return MiningResult(
        patterns=list(patterns),
        stats=MiningStats(
            method="test",
            measure="kulczynski",
            n_patterns=len(patterns),
        ),
    )


A = chain((1, 2), "+-")
A_FLIPPED = chain((1, 2), "-+")
B = chain((3, 4), "+-")
C = chain((5, 6), "-+")


class TestDiffing:
    def test_build_emits_started_for_every_pattern(self):
        store = PatternStore.build(result_of(A, B))
        events, truncated = store.events_since(0)
        assert not truncated
        assert [event.type for event in events] == [
            "flip_started",
            "flip_started",
        ]
        assert {event.pattern_id for event in events} == {
            pattern_id_of(A),
            pattern_id_of(B),
        }
        assert all(event.version == store.version for event in events)
        assert all(event.previous_signature is None for event in events)

    def test_new_pattern_starts_a_flip(self):
        store = PatternStore.build(result_of(A))
        since = store.version
        store.apply_result(result_of(A, B))
        events, _ = store.events_since(since)
        assert len(events) == 1
        event = events[0]
        assert event.type == "flip_started"
        assert event.pattern_id == pattern_id_of(B)
        assert event.signature == "+-"
        assert event.previous_signature is None
        assert event.version == store.version

    def test_vanished_pattern_stops_its_flip(self):
        store = PatternStore.build(result_of(A, B))
        since = store.version
        store.apply_result(result_of(B))
        events, _ = store.events_since(since)
        assert len(events) == 1
        event = events[0]
        assert event.type == "flip_stopped"
        assert event.pattern_id == pattern_id_of(A)
        assert event.signature is None
        assert event.previous_signature == "+-"

    def test_changed_signature_moves_the_level(self):
        store = PatternStore.build(result_of(A))
        since = store.version
        store.apply_result(result_of(A_FLIPPED))
        events, _ = store.events_since(since)
        assert len(events) == 1
        event = events[0]
        assert event.type == "flip_level_changed"
        assert event.pattern_id == pattern_id_of(A)
        assert event.previous_signature == "+-"
        assert event.signature == "-+"

    def test_support_drift_is_not_an_event(self):
        store = PatternStore.build(result_of(A))
        since = store.version
        store.apply_result(result_of(chain((1, 2), "+-", support=999)))
        assert store.version > since  # content did change
        events, _ = store.events_since(since)
        assert events == []

    def test_identical_result_publishes_nothing(self):
        store = PatternStore.build(result_of(A))
        version = store.version
        store.apply_result(result_of(A))
        assert store.version == version
        assert store.events_since(version) == ([], False)

    def test_events_sorted_by_pattern_id_within_a_generation(self):
        store = PatternStore.build(result_of(C, A, B))
        events, _ = store.events_since(0)
        assert [event.pattern_id for event in events] == sorted(
            event.pattern_id for event in events
        )


def _walk_every_id(old, new):
    """The brute-force diff: every id of both generations, sorted."""
    events = []
    for pid in sorted(set(old.ids()) | set(new.ids())):
        before, after = old.get(pid), new.get(pid)
        if before is None:
            events.append(
                PatternEvent(
                    "flip_started", pid, new.version, after.signature, None
                )
            )
        elif after is None:
            events.append(
                PatternEvent(
                    "flip_stopped", pid, new.version, None, before.signature
                )
            )
        elif before.signature != after.signature:
            events.append(
                PatternEvent(
                    "flip_level_changed",
                    pid,
                    new.version,
                    after.signature,
                    before.signature,
                )
            )
    return events


_OPPOSITE = {Label.POSITIVE: Label.NEGATIVE, Label.NEGATIVE: Label.POSITIVE}


def _flipped(pattern):
    """The same leaf itemset with every label inverted."""
    links = tuple(
        dataclasses.replace(link, label=_OPPOSITE[link.label])
        for link in pattern.links
    )
    return FlippingPattern(links=links)


def _bumped(pattern):
    """The same chain with a different leaf support (no new signature)."""
    leaf = dataclasses.replace(
        pattern.links[-1], support=pattern.links[-1].support + 1
    )
    return FlippingPattern(links=(*pattern.links[:-1], leaf))


class TestTouchedIds:
    def test_events_equal_a_walk_over_every_id(self):
        base = synthetic_serve_result(2000, seed=3)
        store = PatternStore(event_capacity=4096)
        store.apply_result(base)
        patterns = list(base.patterns)
        seen = set()
        for generation in range(6):
            rng = random.Random(generation)
            rng.shuffle(patterns)
            ids = {pattern_id_of(p) for p in patterns}
            variant = synthetic_serve_result(60, seed=900 + generation)
            fresh = [
                p for p in variant.patterns if pattern_id_of(p) not in ids
            ]
            # drop 40, flip 30 signatures, drift 50 supports, add ~60
            patterns = (
                [_flipped(p) for p in patterns[40:70]]
                + [_bumped(p) for p in patterns[70:120]]
                + patterns[120:]
                + fresh
            )
            old = store.snapshot()
            diff = store.apply_result(
                MiningResult(patterns=list(patterns), stats=base.stats)
            )
            assert (diff["removed"], diff["changed"]) == (40, 80)
            new = store.snapshot()
            events, truncated = store.events_since(old.version)
            expected = _walk_every_id(old, new)
            assert not truncated
            encoded = [json.dumps(e.to_dict()) for e in events]
            assert encoded == [json.dumps(e.to_dict()) for e in expected]
            seen.update(event.type for event in events)
        assert seen == set(EVENT_TYPES)


class _WholeRing:
    """The ring kept by building every transition's event and then
    dropping the overflow: the model the store's ring must match."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.events = []
        self.dropped_through = 0
        self.dropped = 0
        self.emitted = {kind: 0 for kind in EVENT_TYPES}

    def publish(self, events):
        if not events:
            return
        self.events.extend(events)
        overflow = len(self.events) - self.capacity
        if overflow > 0:
            self.dropped_through = self.events[overflow - 1].version
            del self.events[:overflow]
            self.dropped += overflow
        for event in events:
            self.emitted[event.type] += 1

    def since(self, version):
        return (
            [event for event in self.events if event.version > version],
            version < self.dropped_through,
        )


class TestRingBuildsOnlyWhatItKeeps:
    """A generation with more transitions than the ring holds builds
    events only for the newest ``event_capacity``; the ring, every
    counter and every ``/v1/events`` answer are those of a ring that
    built them all."""

    def _counters(self):
        registry = default_registry()
        emitted = registry.counter(catalog.EVENTS_EMITTED)
        dropped = registry.counter(catalog.EVENTS_DROPPED)
        return (
            {kind: emitted.value(type=kind) for kind in EVENT_TYPES},
            dropped.value(),
        )

    def test_first_build_and_overflowing_swaps_match_the_whole_ring(self):
        capacity = 100
        store = PatternStore(event_capacity=capacity)
        api = PatternAPI(QueryEngine(store))
        model = _WholeRing(capacity)
        emitted_before, dropped_before = self._counters()
        base = list(synthetic_serve_result(500, seed=5).patterns)
        generations = [
            base,  # first build: 500 flip_started
            [_flipped(p) for p in base[:30]] + base[30:],  # fits the ring
            base[:150],  # 350 flip_stopped: overflows the ring
            [_flipped(p) for p in base[:60]] + base[60:150],  # partly
            base[:150] + list(synthetic_serve_result(300, seed=6).patterns),
        ]
        for patterns in generations:
            old = store.snapshot()
            store.apply_result(
                MiningResult(patterns=list(patterns), stats=MiningStats())
            )
            new = store.snapshot()
            model.publish(_walk_every_id(old, new))

            events, truncated = store.events_since(0)
            assert len(events) <= capacity
            assert [e.to_dict() for e in events] == [
                e.to_dict() for e in model.events
            ]
            assert store.events_dropped == model.dropped
            emitted, dropped = self._counters()
            assert dropped - dropped_before == model.dropped
            assert {
                kind: emitted[kind] - emitted_before[kind]
                for kind in EVENT_TYPES
            } == model.emitted
            for since in range(store.version + 1):
                expected, expected_truncated = model.since(since)
                for limit in ("", "&limit=7"):
                    intent = api.dispatch(
                        "GET", f"/v1/events?since_version={since}{limit}"
                    )
                    payload = api.run_events(intent).payload
                    assert payload["truncated"] is expected_truncated
                    got = payload["events"]
                    shortest = (
                        min(7, len(expected)) if limit else len(expected)
                    )
                    assert len(got) >= shortest
                    assert got == [
                        e.to_dict() for e in expected[: len(got)]
                    ]
                    assert payload["next_since"] == (
                        got[-1]["version"] if got else since
                    )
        assert model.dropped > 0
        assert set(model.emitted.values()) != {0}


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="event_capacity"):
            PatternStore(event_capacity=0)

    def test_overflow_reports_truncation(self):
        store = PatternStore(event_capacity=2)
        store.apply_result(result_of(A, B))  # 2 started events
        first_version = store.version
        store.apply_result(result_of(C))  # 2 stopped + 1 started
        events, truncated = store.events_since(0)
        assert truncated  # the v1 events fell off the ring
        assert len(events) == 2  # capacity bound holds
        assert all(
            event.version == store.version for event in events
        )
        assert store.events_dropped == 3
        # the overflow ate into generation 2 as well, so even a v1
        # cursor missed events — truncation is reported, not hidden
        _, still_truncated = store.events_since(first_version)
        assert still_truncated
        # a cursor at the drop horizon itself is current again
        _, current = store.events_since(store.version)
        assert not current

    def test_limit_never_splits_a_generation(self):
        store = PatternStore.build(result_of(A, B))  # gen 1: 2 events
        first_version = store.version
        store.apply_result(result_of(A, B, C))  # gen 2: 1 event
        events, _ = store.events_since(0, limit=1)
        # the limit lands mid-generation: the whole generation comes
        # anyway, so resuming from its version is lossless
        assert len(events) == 2
        assert {event.version for event in events} == {first_version}
        rest, _ = store.events_since(events[-1].version)
        assert [event.type for event in rest] == ["flip_started"]
        assert rest[0].pattern_id == pattern_id_of(C)

    def test_resume_cursor_sees_each_event_exactly_once(self):
        store = PatternStore.build(result_of(A))
        store.apply_result(result_of(A, B))
        store.apply_result(result_of(B))
        seen = []
        cursor = 0
        while True:
            events, truncated = store.events_since(cursor, limit=1)
            assert not truncated
            if not events:
                break
            seen.extend(events)
            cursor = events[-1].version
        assert [event.type for event in seen] == [
            "flip_started",
            "flip_started",
            "flip_stopped",
        ]


class TestWaitForEvents:
    def test_timeout_returns_empty_not_truncated(self):
        store = PatternStore.build(result_of(A))
        started = time.monotonic()
        events, truncated = store.wait_for_events(store.version, 0.05)
        assert time.monotonic() - started < 5.0
        assert events == [] and not truncated

    def test_pending_events_return_without_waiting(self):
        store = PatternStore.build(result_of(A))
        started = time.monotonic()
        events, _ = store.wait_for_events(0, timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert len(events) == 1

    def test_publish_wakes_the_waiter(self):
        store = PatternStore.build(result_of(A))
        since = store.version
        woken: list = []

        def poll():
            woken.append(store.wait_for_events(since, timeout=30.0))

        waiter = threading.Thread(target=poll)
        waiter.start()
        time.sleep(0.05)
        store.apply_result(result_of(A, B))
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        events, truncated = woken[0]
        assert [event.type for event in events] == ["flip_started"]
        assert not truncated

    def test_truncated_cursor_returns_immediately(self):
        store = PatternStore(event_capacity=1)
        store.apply_result(result_of(A, B))  # overflows instantly
        started = time.monotonic()
        _, truncated = store.wait_for_events(0, timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert truncated


class TestEventsApi:
    @pytest.fixture
    def api(self):
        store = PatternStore.build(result_of(A, B))
        return PatternAPI(QueryEngine(store)), store

    def test_dispatch_returns_a_validated_intent(self, api):
        api_obj, _ = api
        intent = api_obj.dispatch("GET", "/v1/events")
        assert isinstance(intent, EventsIntent)
        assert intent.since_version == 0
        assert intent.timeout == 0.0
        assert intent.limit is None

    def test_payload_shape_names_real_generations(self, api):
        api_obj, store = api
        intent = api_obj.dispatch("GET", "/v1/events?since_version=0")
        response = api_obj.run_events(intent)
        assert response.status == 200
        payload = response.payload
        assert set(payload) == {
            "store_version",
            "since_version",
            "next_since",
            "truncated",
            "events",
        }
        assert payload["store_version"] == store.version
        assert payload["since_version"] == 0
        assert payload["next_since"] == store.version
        assert payload["truncated"] is False
        for event in payload["events"]:
            assert set(event) == {
                "type",
                "pattern_id",
                "version",
                "signature",
                "previous_signature",
            }
            assert event["version"] == store.version

    def test_empty_poll_keeps_the_cursor(self, api):
        api_obj, store = api
        intent = api_obj.dispatch(
            "GET", f"/v1/events?since_version={store.version}"
        )
        payload = api_obj.run_events(intent).payload
        assert payload["events"] == []
        assert payload["next_since"] == store.version

    @pytest.mark.parametrize(
        "query",
        [
            "since_version=abc",
            "since_version=-1",
            "timeout=abc",
            "timeout=-0.5",
            "timeout=61",
            "limit=abc",
            "limit=0",
            "nope=1",
        ],
    )
    def test_bad_parameters_are_400(self, api, query):
        api_obj, _ = api
        response = api_obj.dispatch("GET", f"/v1/events?{query}")
        assert response.status == 400
        assert json.loads(response.encode())["error"]["code"] == (
            "bad_request"
        )


class TestOverHttp:
    def _fetch(self, host, port, target):
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_async_server_serves_events(self):
        store = PatternStore.build(result_of(A, B))
        with AsyncPatternServer(store) as server:
            status, payload = self._fetch(
                server.host, server.port, "/v1/events?since_version=0"
            )
        assert status == 200
        assert len(payload["events"]) == 2
        assert payload["next_since"] == store.version

    def test_long_poll_wakes_on_publish_over_http(self):
        store = PatternStore.build(result_of(A))
        since = store.version
        with AsyncPatternServer(store) as server:
            answers: list = []

            def poll():
                answers.append(
                    self._fetch(
                        server.host,
                        server.port,
                        f"/v1/events?since_version={since}&timeout=30",
                    )
                )

            waiter = threading.Thread(target=poll)
            waiter.start()
            time.sleep(0.1)
            store.apply_result(result_of(A, B))
            waiter.join(timeout=15)
            assert not waiter.is_alive()
        status, payload = answers[0]
        assert status == 200
        assert [event["type"] for event in payload["events"]] == [
            "flip_started"
        ]
        assert payload["events"][0]["pattern_id"] == pattern_id_of(B)
