"""Snapshot semantics of the pattern store.

The serving tier's whole concurrency story rests on three properties
of :class:`~repro.serve.store.StoreSnapshot`:

* a published snapshot never changes — every index array is
  read-only, and readers that pinned it keep seeing exactly the world
  they pinned, however many updates land after;
* building the next generation reads and encodes only the added and
  changed patterns (per-pattern work is O(delta)); unchanged rows are
  gathered from the previous generation's arrays and keep their JSON
  texts, and an update that changes nothing shares every array;
* publication is a single reference swap, so concurrent readers only
  ever observe fully-built generations.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from urllib.parse import parse_qsl, urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.serve import synthetic_serve_result
from repro.core.patterns import FlippingPattern, MiningResult
from repro.core.serialize import _link_to_dict
from repro.core.stats import MiningStats
from repro.errors import ServeError
from repro.serve import (
    PatternAPI,
    PatternStore,
    Query,
    QueryEngine,
    encode_cursor,
    linear_scan,
    query_from_params,
)
from repro.serve.store import MEASURE_GETTERS, pattern_id_of


def _bumped(pattern):
    """The same pattern id with a different leaf support."""
    leaf = pattern.links[-1]
    links = pattern.links[:-1] + (
        dataclasses.replace(leaf, support=leaf.support - 1),
    )
    return dataclasses.replace(pattern, links=links)


def _variant(base: MiningResult, delta: int, seed: int) -> MiningResult:
    """A next corpus generation: ``delta`` patterns changed in place,
    ``delta`` fresh ones added, ``delta // 2`` dropped from the tail."""
    kept = base.patterns[: len(base.patterns) - delta // 2]
    patterns = [_bumped(p) if i < delta else p for i, p in enumerate(kept)]
    ids = {pattern_id_of(p) for p in patterns}
    patterns += [
        p
        for p in synthetic_serve_result(delta, seed=seed).patterns
        if pattern_id_of(p) not in ids
    ]
    return MiningResult(
        patterns=patterns,
        stats=base.stats,
        config=dict(base.config),
    )


class TestPinnedSnapshots:
    def test_old_snapshot_survives_update_unchanged(self, corpus_result):
        store = PatternStore.build(corpus_result)
        pinned = store.snapshot()
        before_ids = pinned.ids()
        before_version = pinned.version
        before_answer = linear_scan(pinned, Query(sort_by="support", limit=20))
        store.apply_result(_variant(corpus_result, 40, seed=77))
        # the store moved on...
        assert store.version == before_version + 1
        assert store.snapshot() is not pinned
        # ...but the pinned generation is exactly as it was
        assert pinned.version == before_version
        assert pinned.ids() == before_ids
        assert (
            linear_scan(pinned, Query(sort_by="support", limit=20)).ids
            == before_answer.ids
        )

    def test_pinned_pattern_keeps_its_old_measures(self, corpus_result):
        store = PatternStore.build(corpus_result)
        pinned = store.snapshot()
        update = _variant(corpus_result, 40, seed=77)
        changed = [
            pattern_id_of(p)
            for p in update.patterns
            if pinned.get(pattern_id_of(p)) is not None
            and pinned.get(pattern_id_of(p)).to_dict() != p.to_dict()
        ]
        assert changed, "variant must overlap the base corpus"
        store.apply_result(update)
        fresh = store.snapshot()
        pid = changed[0]
        assert pinned.get(pid).to_dict() != fresh.get(pid).to_dict()

    def test_apply_result_returns_incremental_diff(self, corpus_result):
        store = PatternStore.build(corpus_result)
        diff = store.apply_result(_variant(corpus_result, 40, seed=77))
        assert {"added", "changed", "removed", "unchanged"} <= set(diff)
        assert diff["changed"] == 40
        assert diff["removed"] == 20
        assert diff["added"] > 0
        assert diff["unchanged"] > 0
        assert diff["version"] == store.version

    def test_identical_result_does_not_bump_version(self, corpus_result):
        store = PatternStore.build(corpus_result)
        version = store.version
        diff = store.apply_result(corpus_result)
        assert store.version == version
        assert diff["added"] == diff["changed"] == diff["removed"] == 0

    def test_versions_are_monotonic(self, corpus_result):
        store = PatternStore.build(corpus_result)
        seen = [store.version]
        for i in range(4):
            store.apply_result(_variant(corpus_result, 25, seed=100 + i))
            seen.append(store.version)
        assert seen == sorted(set(seen))

    def test_stale_expect_version_raises(self, corpus_store):
        snap = corpus_store.snapshot()
        snap.require_version(snap.version)
        with pytest.raises(ServeError, match="stale store version"):
            snap.require_version(snap.version + 1)

    def test_duplicate_pattern_ids_rejected(self, corpus_result):
        doubled = MiningResult(
            patterns=list(corpus_result.patterns)
            + [corpus_result.patterns[0]],
            stats=corpus_result.stats,
            config=dict(corpus_result.config),
        )
        with pytest.raises(ServeError, match="two patterns"):
            PatternStore.build(doubled)


def _published_arrays(snapshot):
    """Every index array a snapshot publishes, by slot and key."""
    found = {}
    for slot in type(snapshot).__slots__:
        value = getattr(snapshot, slot)
        entries = value.items() if isinstance(value, dict) else [(None, value)]
        for key, entry in entries:
            if isinstance(entry, np.ndarray):
                found[slot, key] = entry
    return found


class TestStructuralSharing:
    def test_noop_update_shares_every_array(self, corpus_result):
        store = PatternStore.build(corpus_result)
        old = store.snapshot()
        # re-applying the same corpus keeps the version (cached query
        # results stay valid) and every index array is the same
        # object, not a rebuilt copy; the config is the result's
        store.apply_result(
            dataclasses.replace(corpus_result, config={"window": 2})
        )
        new = store.snapshot()
        assert new.version == old.version
        assert new.config == {"window": 2} != old.config
        before, after = _published_arrays(old), _published_arrays(new)
        assert before.keys() == after.keys()
        assert len(before) > 20
        for key, array in before.items():
            assert after[key] is array, key
        assert new._bodies is old._bodies

    def test_unchanged_rows_keep_their_texts(self, corpus_result):
        store = PatternStore.build(corpus_result)
        old = store.snapshot()
        update = _variant(corpus_result, 30, seed=91)
        store.apply_result(update)
        new = store.snapshot()
        kept = changed = 0
        for pattern in update.patterns:
            pid = pattern_id_of(pattern)
            before = old.get(pid)
            if before is None:
                continue
            if before.to_dict() == pattern.to_dict():
                assert new.body(pid) is old.body(pid), pid
                kept += 1
            else:
                assert new.body(pid) != old.body(pid), pid
                changed += 1
        assert changed == 30 and kept > 300

    def test_swap_encodes_only_added_and_changed_patterns(
        self, corpus_result, monkeypatch
    ):
        store = PatternStore.build(corpus_result)
        calls = []
        to_dict = FlippingPattern.to_dict

        def counted(pattern):
            calls.append(pattern)
            return to_dict(pattern)

        monkeypatch.setattr(FlippingPattern, "to_dict", counted)
        diff = store.apply_result(_variant(corpus_result, 30, seed=91))
        assert diff["added"] > 0 and diff["changed"] == 30
        assert len(calls) == diff["added"] + diff["changed"]
        calls.clear()
        store.apply_result(_variant(corpus_result, 30, seed=91))
        assert calls == []

    def test_published_arrays_are_read_only(self, corpus_result):
        built = PatternStore.build(corpus_result).snapshot()
        store = PatternStore.build(corpus_result)
        store.apply_result(_variant(corpus_result, 30, seed=91))
        for snapshot in (built, store.snapshot()):
            arrays = _published_arrays(snapshot)
            assert arrays
            for key, array in arrays.items():
                if not len(array):
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]
                assert not array.flags.writeable, key

    def test_swap_reads_only_added_and_changed_patterns(
        self, corpus_result, monkeypatch
    ):
        store = PatternStore.build(corpus_result)
        calls = dict.fromkeys(MEASURE_GETTERS, 0)

        def spy(name, getter):
            def counted(pattern):
                calls[name] += 1
                return getter(pattern)

            return counted

        for name, getter in list(MEASURE_GETTERS.items()):
            monkeypatch.setitem(MEASURE_GETTERS, name, spy(name, getter))
        diff = store.apply_result(_variant(corpus_result, 30, seed=91))
        touched = diff["added"] + diff["changed"]
        assert diff["changed"] == 30 and diff["unchanged"] > 300
        assert calls == dict.fromkeys(MEASURE_GETTERS, touched)

    def test_old_postings_survive_a_swap(self, corpus_result):
        store = PatternStore.build(corpus_result)
        old = store.snapshot()
        names = {
            name
            for _, pattern in old.items()
            for link in pattern.links
            for name in link.names
        }
        items = {name: old.item_postings(name) for name in names}
        nodes = {name: old.node_postings(name) for name in names}
        store.apply_result(_variant(corpus_result, 30, seed=91))
        new = store.snapshot()
        # the swap moved postings in the new generation...
        assert any(new.node_postings(name) != nodes[name] for name in names)
        # ...while the old one answers exactly as before
        assert {name: old.item_postings(name) for name in names} == items
        assert {name: old.node_postings(name) for name in names} == nodes


def _page_targets(result: MiningResult) -> list[str]:
    """One ``/v1/patterns`` read of each ``serve-read`` family, an
    unfiltered read, a height range and an ascending sort."""
    pair = next(p for p in result.patterns if p.k == 2 and p.height == 3)
    return [
        "/v1/patterns?items=item0007&limit=20",
        "/v1/patterns?items=item0042&sort=support&limit=50",
        "/v1/patterns?items=" + ",".join(pair.leaf_names),
        "/v1/patterns?under=grp007&min_corr=0.6&limit=20",
        "/v1/patterns?under=cat03&sort=support&limit=50&offset=30",
        "/v1/patterns?signature=%2B-%2B&min_support=300&max_support=800"
        "&sort=support&order=asc&limit=50",
        "/v1/patterns",
        "/v1/patterns?min_height=3&max_height=3&sort=min_gap&limit=40",
        "/v1/patterns?sort=mean_gap&order=asc&offset=15&limit=25",
    ]


def _query_of(target: str) -> Query:
    return query_from_params(dict(parse_qsl(urlsplit(target).query)))


class TestPinnedParity:
    def test_engine_equals_scan_on_every_pinned_generation(self):
        result = synthetic_serve_result(2000, seed=5)
        queries = [_query_of(target) for target in _page_targets(result)]
        store = PatternStore.build(result)
        engine = QueryEngine(store, cache_size=0)
        pinned = [store.snapshot()]
        matched = dict.fromkeys(queries, 0)
        for swap in range(5):
            result = _variant(result, 120, seed=400 + swap)
            store.apply_result(result)
            pinned.append(store.snapshot())
            # the newest generation and every older one still pinned
            for snap in pinned:
                for query in queries:
                    got = engine.execute(query, snapshot=snap)
                    expected = linear_scan(snap, query)
                    context = (swap, snap.version, query)
                    assert got.store_version == snap.version
                    assert got.ids == expected.ids, context
                    assert got.total == expected.total, context
                    matched[query] += expected.total
        assert [snap.version for snap in pinned] == list(range(1, 7))
        assert all(matched.values()), matched


def _served(api, snap, target, monkeypatch) -> bytes:
    """The bytes ``api`` sends for ``target`` from the pinned ``snap``
    (its store hands ``dispatch`` that generation)."""
    with monkeypatch.context() as patched:
        patched.setattr(api.store, "snapshot", lambda: snap)
        response = api.dispatch("GET", target)
    assert response.status == 200, (target, response.encode())
    return response.encode()


def _rendered(snap, query) -> bytes:
    """``json.dumps`` of the answer rendered afresh, with the cursor
    ``/v1/patterns`` adds to a page that has a next one."""
    result = QueryEngine(snap, cache_size=0).execute(query)
    payload = result.to_dict()
    stop = query.offset + len(result.ids)
    if query.limit is not None and stop < result.total:
        payload["next_cursor"] = encode_cursor(snap.version, stop)
    return json.dumps(payload).encode()


def _rendered_one(snap, pid) -> bytes:
    pattern = dict(snap.get(pid).to_dict(), id=pid)
    payload = {"store_version": snap.version, "pattern": pattern}
    return json.dumps(payload).encode()


class TestStoredBodies:
    """``/v1`` splices each pattern's stored JSON text into the
    answer; the bytes equal ``json.dumps`` of the answer rendered
    afresh (:meth:`QueryResult.to_dict`)."""

    def test_served_bytes_equal_rendered_on_every_pinned_generation(
        self, monkeypatch
    ):
        result = synthetic_serve_result(2000, seed=5)
        targets = _page_targets(result)
        store = PatternStore.build(result)
        # cached answers carry the texts too: revisiting an older
        # generation hits the query cache
        api = PatternAPI(QueryEngine(store))
        pinned = [store.snapshot()]
        totals = dict.fromkeys(targets, 0)
        for swap in range(5):
            result = _variant(result, 120, seed=400 + swap)
            store.apply_result(result)
            pinned.append(store.snapshot())
            # the newest generation and every older one still pinned
            for snap in pinned:
                for target in targets:
                    query = _query_of(target)
                    body = _served(api, snap, target, monkeypatch)
                    assert body == _rendered(snap, query), (swap, target)
                    totals[target] += json.loads(body)["total"]
                cursor = encode_cursor(snap.version, 60)
                target = f"/v1/patterns?sort=support&limit=30&cursor={cursor}"
                body = _served(api, snap, target, monkeypatch)
                query = Query(sort_by="support", limit=30, offset=60)
                assert body == _rendered(snap, query), (swap, "cursor")
                # changed rows lead the ids (see _variant), so the
                # stride meets old, changed and added texts
                for pid in snap.ids()[::150]:
                    target = f"/v1/patterns/{pid}"
                    body = _served(api, snap, target, monkeypatch)
                    assert body == _rendered_one(snap, pid), (swap, pid)
        assert [snap.version for snap in pinned] == list(range(1, 7))
        assert all(totals.values()), totals
        assert api.engine.cache_info()["hits"] > 0

    def test_empty_pages(self, corpus_store, monkeypatch):
        api = PatternAPI(QueryEngine(corpus_store))
        snap = corpus_store.snapshot()
        for target in ("/v1/patterns?items=nope", "/v1/patterns?limit=0"):
            body = _served(api, snap, target, monkeypatch)
            assert body == _rendered(snap, _query_of(target)), target
            assert json.loads(body)["patterns"] == []

    def test_non_ascii_names_are_escaped(self, monkeypatch):
        pattern = synthetic_serve_result(1, seed=3).patterns[0]
        names = tuple(f"caf\u00e9-{i}" for i in range(pattern.k))
        leaf = dataclasses.replace(pattern.leaf_link, names=names)
        links = (*pattern.links[:-1], leaf)
        renamed = dataclasses.replace(pattern, links=links)
        stats = MiningStats("t", "k")
        store = PatternStore.build(MiningResult([renamed], stats))
        api = PatternAPI(QueryEngine(store))
        snap = store.snapshot()
        (pid,) = snap.ids()
        assert "\\u00e9" in snap.body(pid)
        target = "/v1/patterns?items=caf%C3%A9-0"
        body = _served(api, snap, target, monkeypatch)
        assert body == _rendered(snap, Query(contains_items=names[:1]))
        assert body.isascii() and b"caf\\u00e9-0" in body
        body = _served(api, snap, f"/v1/patterns/{pid}", monkeypatch)
        assert body == _rendered_one(snap, pid)
        assert body.isascii() and b"caf\\u00e9-0" in body

    def test_nan_correlation_text_survives_a_swap(self, monkeypatch):
        first, second = synthetic_serve_result(2, seed=3).patterns
        nan_row = _with_top_link(first, math.nan, first.links[0].support)
        stats = MiningStats("t", "k")
        store = PatternStore.build(MiningResult([nan_row, second], stats))
        api = PatternAPI(QueryEngine(store))
        old = store.snapshot()
        # an equal NaN row (a new object) beside a changed one
        nan_again = _with_top_link(first, math.nan, first.links[0].support)
        patterns = [nan_again, _bumped(second)]
        diff = store.apply_result(MiningResult(patterns, stats))
        assert diff["changed"] == 1 and diff["unchanged"] == 1
        new = store.snapshot()
        pid = pattern_id_of(first)
        assert new.body(pid) is old.body(pid)
        assert '"correlation": NaN' in new.body(pid)
        for snap in (old, new):
            body = _served(api, snap, f"/v1/patterns/{pid}", monkeypatch)
            assert body == _rendered_one(snap, pid)
            body = _served(api, snap, "/v1/patterns", monkeypatch)
            assert body == _rendered(snap, Query())

    def test_int_to_float_correlation_re_encodes_the_row(self, monkeypatch):
        pattern = synthetic_serve_result(1, seed=3).patterns[0]
        support = pattern.links[0].support
        stats = MiningStats("t", "k")
        as_int = _with_top_link(pattern, 1, support)
        store = PatternStore.build(MiningResult([as_int], stats))
        api = PatternAPI(QueryEngine(store))
        old = store.snapshot()
        as_float = _with_top_link(pattern, 1.0, support)
        diff = store.apply_result(MiningResult([as_float], stats))
        assert diff["changed"] == 1
        new = store.snapshot()
        pid = pattern_id_of(pattern)
        assert '"correlation": 1,' in old.body(pid)
        assert '"correlation": 1.0,' in new.body(pid)
        for snap in (old, new):
            body = _served(api, snap, f"/v1/patterns/{pid}", monkeypatch)
            assert body == _rendered_one(snap, pid)


def _chain_json(pattern) -> str:
    """A pattern's stored links as JSON text, the form a saved store
    holds."""
    return json.dumps(
        [_link_to_dict(link) for link in pattern.links], sort_keys=True
    )


def _with_top_link(pattern, correlation, support):
    top = dataclasses.replace(
        pattern.links[0], correlation=correlation, support=support
    )
    return dataclasses.replace(pattern, links=(top, *pattern.links[1:]))


_NUMBERS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1, 1.0]


class TestChangeDetection:
    """A pattern counts as changed exactly when its links, written as
    JSON, differ: NaN equals NaN, ``-0.0`` differs from ``0.0``, and
    ``1`` differs from ``1.0``."""

    @given(
        correlations=st.tuples(
            st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS)
        ),
        supports=st.sampled_from([(7, 7), (7, 8), (7, 7.0)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_changed_exactly_when_the_json_differs(
        self, correlations, supports
    ):
        pattern = synthetic_serve_result(1, seed=3).patterns[0]
        before, after = (
            _with_top_link(pattern, correlation, support)
            for correlation, support in zip(correlations, supports)
        )
        store = PatternStore.build(
            MiningResult(patterns=[before], stats=MiningStats("t", "k"))
        )
        diff = store.apply_result(
            MiningResult(patterns=[after], stats=MiningStats("t", "k"))
        )
        differs = _chain_json(before) != _chain_json(after)
        assert diff["changed"] == int(differs)
        assert diff["unchanged"] == int(not differs)
        assert store.version == 1 + differs


class TestConcurrentSwaps:
    def test_readers_never_observe_a_torn_generation(self, corpus_result):
        """Hammer snapshot() from reader threads while a writer swaps
        generations: every pinned snapshot must be internally
        consistent (ids, postings, and measures all from the same
        generation)."""
        store = PatternStore.build(corpus_result)
        generations = [
            _variant(corpus_result, 30, seed=200 + i) for i in range(6)
        ]
        expected = {}
        probe = Query(sort_by="correlation", limit=15)
        for generation in [corpus_result] + generations:
            reference = PatternStore.build(generation)
            expected[len(reference)] = {
                "ids": set(reference.ids()),
                "answer": linear_scan(reference, probe).ids,
            }
        errors: list[AssertionError] = []
        stop = threading.Event()

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    ids = snap.ids()
                    assert len(ids) == len(snap)
                    reference = expected.get(len(snap))
                    if reference is not None and set(ids) == reference["ids"]:
                        assert (
                            linear_scan(snap, probe).ids
                            == reference["answer"]
                        )
                    for pid in ids[:5]:
                        assert pid in snap
                        assert snap.get(pid) is not None
            except AssertionError as exc:  # pragma: no cover - failure
                errors.append(exc)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(3):
                for generation in generations:
                    store.apply_result(generation)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        assert errors == []

    def test_many_generations_stay_independent(self, corpus_result):
        store = PatternStore.build(corpus_result)
        pinned = [store.snapshot()]
        for i in range(5):
            store.apply_result(_variant(corpus_result, 20, seed=300 + i))
            pinned.append(store.snapshot())
        versions = [snap.version for snap in pinned]
        assert versions == sorted(set(versions))
        # each pinned generation still answers for itself
        for snap in pinned:
            assert len(snap.ids()) == len(snap)
            assert snap.stats()["version"] == snap.version
