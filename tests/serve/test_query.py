"""Unit tests for the query dataclass, plans, cache, and engine."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError, ServeError
from repro.serve import (
    PatternStore,
    Query,
    QueryEngine,
    linear_scan,
    matches,
)


class TestQueryValidation:
    def test_items_normalized(self):
        a = Query(contains_items=("b", "a", "b"))
        b = Query(contains_items=("a", "b"))
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_sort_measure(self):
        with pytest.raises(ConfigError, match="unknown sort measure"):
            Query(sort_by="velocity")

    def test_bad_signature(self):
        with pytest.raises(ConfigError, match="signature"):
            Query(signature="+?")
        with pytest.raises(ConfigError, match="signature"):
            Query(signature="")

    def test_bad_pagination(self):
        with pytest.raises(ConfigError, match="offset"):
            Query(offset=-1)
        with pytest.raises(ConfigError, match="limit"):
            Query(limit=-5)
        with pytest.raises(ConfigError, match="min_height"):
            Query(min_height=0)

    @pytest.mark.parametrize("field", ["min_correlation", "max_correlation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_correlation_bound(self, field, value):
        # a NaN bound would echo as bare NaN (not JSON) and, compared
        # as arrays, match differently from matches()
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            Query(**{field: value})

    def test_to_dict_round_trip_defaults(self):
        assert Query().to_dict() == {}
        payload = Query(
            contains_items=("x",), min_correlation=0.5, limit=3
        ).to_dict()
        assert payload == {
            "contains_items": ["x"],
            "min_correlation": 0.5,
            "limit": 3,
        }


class TestFilters:
    def test_each_filter_matches_scan(self, corpus_store):
        engine = QueryEngine(corpus_store)
        queries = [
            Query(contains_items=("item0001",)),
            Query(contains_items=("item0001", "item0002")),
            Query(under_node="grp001"),
            Query(under_node="cat01"),
            Query(signature="+-+"),
            Query(signature="-+"),
            Query(min_height=3),
            Query(max_height=2),
            Query(min_correlation=0.25, max_correlation=0.75),
            Query(min_support=100, max_support=900),
            Query(
                under_node="cat02",
                signature="-+-",
                min_support=50,
                sort_by="support",
                descending=False,
            ),
        ]
        for query in queries:
            indexed = engine.execute(query, use_cache=False)
            scanned = linear_scan(corpus_store, query)
            assert indexed.ids == scanned.ids, query
            assert indexed.total == scanned.total, query

    def test_unfiltered_returns_everything(self, corpus_store):
        result = QueryEngine(corpus_store).execute(Query())
        assert result.total == len(corpus_store)

    def test_match_predicate_is_leaf_scoped(self, corpus_store):
        # an internal node name never matches contains_items on a
        # 3-level pattern, but does match under_node
        tall = next(p for _, p in corpus_store.items() if p.height == 3)
        group_name = tall.links[1].names[0]
        assert not matches(tall, Query(contains_items=(group_name,)))
        assert matches(tall, Query(under_node=group_name))


class TestOrderingAndPagination:
    def test_descending_with_id_tiebreak(self, corpus_store):
        result = QueryEngine(corpus_store).execute(Query(sort_by="support"))
        keyed = [
            (-corpus_store.measure_value("support", pid), pid)
            for pid in result.ids
        ]
        assert keyed == sorted(keyed)

    def test_pagination_partitions_results(self, corpus_store):
        engine = QueryEngine(corpus_store)
        full = engine.execute(Query(sort_by="min_gap"))
        paged: list[str] = []
        page = 0
        while True:
            chunk = engine.execute(
                Query(sort_by="min_gap", offset=page * 37, limit=37)
            )
            assert chunk.total == full.total
            if not chunk.ids:
                break
            paged.extend(chunk.ids)
            page += 1
        assert paged == full.ids

    def test_offset_past_end(self, corpus_store):
        result = QueryEngine(corpus_store).execute(
            Query(offset=10_000, limit=5)
        )
        assert result.ids == []
        assert result.total == len(corpus_store)


class TestPlan:
    def test_seed_is_smallest_source(self, corpus_store):
        engine = QueryEngine(corpus_store)
        plan = engine.plan(
            Query(contains_items=("item0001",), under_node="cat01")
        )
        assert plan.steps[0].action == "seed"
        assert plan.steps[0].source == "item:item0001"
        assert plan.steps[0].estimate <= plan.steps[1].estimate

    def test_unfiltered_plan_is_scan(self, corpus_store):
        plan = QueryEngine(corpus_store).plan(Query())
        assert plan.steps == ()
        assert "full scan" in plan.describe()

    def test_describe_mentions_actions(self, corpus_store):
        plan = QueryEngine(corpus_store).plan(
            Query(signature="+-+", min_support=10)
        )
        text = plan.describe()
        assert "seed" in text


class TestCache:
    def test_hit_after_miss(self, corpus_store):
        engine = QueryEngine(corpus_store, cache_size=8)
        query = Query(under_node="cat01", limit=5)
        first = engine.execute(query)
        second = engine.execute(query)
        assert not first.cached and second.cached
        assert first.ids == second.ids
        assert engine.cache_info()["hits"] == 1
        assert engine.cache_info()["misses"] == 1

    def test_version_bump_invalidates(self, corpus_result):
        store = PatternStore.build(corpus_result)
        engine = QueryEngine(store)
        query = Query(limit=10, sort_by="support")
        engine.execute(query)
        # shrink the corpus: version bumps, cache key changes
        from tests.serve.test_store import _result_with

        store.apply_result(_result_with(corpus_result.patterns[:50]))
        fresh = engine.execute(query)
        assert not fresh.cached
        assert fresh.ids == linear_scan(store, query).ids

    def test_lru_eviction(self, corpus_store):
        engine = QueryEngine(corpus_store, cache_size=2)
        q1, q2, q3 = (
            Query(limit=1),
            Query(limit=2),
            Query(limit=3),
        )
        engine.execute(q1)
        engine.execute(q2)
        engine.execute(q3)  # evicts q1
        assert engine.cache_info()["size"] == 2
        assert not engine.execute(q1).cached

    def test_cache_disabled(self, corpus_store):
        engine = QueryEngine(corpus_store, cache_size=0)
        query = Query(limit=1)
        assert not engine.execute(query).cached
        assert not engine.execute(query).cached

    def test_cached_result_is_a_copy(self, corpus_store):
        engine = QueryEngine(corpus_store)
        query = Query(limit=5)
        first = engine.execute(query)
        first.ids.clear()  # a rude caller
        assert engine.execute(query).ids != []


class TestVersionPinning:
    def test_expect_version_matches(self, corpus_store):
        engine = QueryEngine(corpus_store)
        result = engine.execute(
            Query(limit=1), expect_version=corpus_store.version
        )
        assert result.store_version == corpus_store.version

    def test_stale_reader_fails_loudly(self, corpus_store):
        engine = QueryEngine(corpus_store)
        with pytest.raises(ServeError, match="stale store version"):
            engine.execute(Query(limit=1), expect_version=999)


class TestResultPayload:
    def test_to_dict_shape(self, corpus_store):
        result = QueryEngine(corpus_store).execute(
            Query(signature="+-+", limit=2)
        )
        payload = result.to_dict()
        assert payload["store_version"] == corpus_store.version
        assert payload["count"] == len(payload["patterns"]) == 2
        assert payload["query"] == {"signature": "+-+", "limit": 2}
        for entry in payload["patterns"]:
            assert {"id", "items", "signature", "chain"} <= set(entry)
