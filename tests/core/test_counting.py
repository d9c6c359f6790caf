"""Unit tests for repro.core.counting: all backends must agree."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.counting import (
    BitmapBackend,
    HorizontalBackend,
    make_backend,
)
from repro.errors import ConfigError


class TestFactory:
    def test_known_names(self, example3_db):
        assert isinstance(make_backend("bitmap", example3_db), BitmapBackend)
        assert isinstance(
            make_backend("Horizontal", example3_db), HorizontalBackend
        )

    def test_unknown_rejected(self, example3_db):
        with pytest.raises(ConfigError, match="unknown counting backend"):
            make_backend("gpu", example3_db)
        with pytest.raises(ConfigError, match="unknown counting backend"):
            make_backend("numpy", example3_db)


class TestAgreement:
    @pytest.mark.parametrize("other_cls", [HorizontalBackend])
    def test_node_supports_agree(self, example3_db, other_cls):
        bitmap = BitmapBackend(example3_db)
        other = other_cls(example3_db)
        for level in (1, 2, 3):
            assert bitmap.node_supports(level) == other.node_supports(level)

    @pytest.mark.parametrize("other_cls", [HorizontalBackend])
    def test_itemset_supports_agree(self, example3_db, other_cls):
        bitmap = BitmapBackend(example3_db)
        other = other_cls(example3_db)
        tax = example3_db.taxonomy
        for level in (1, 2, 3):
            nodes = tax.nodes_at_level(level)
            candidates = np.array(
                [
                    tuple(sorted(pair))
                    for pair in itertools.combinations(nodes, 2)
                ]
            )
            assert (
                bitmap.supports(level, candidates).tolist()
                == other.supports(level, candidates).tolist()
            )

    @pytest.mark.parametrize("other_cls", [HorizontalBackend])
    def test_triple_supports_agree(self, random_db, other_cls):
        bitmap = BitmapBackend(random_db)
        other = other_cls(random_db)
        tax = random_db.taxonomy
        nodes = tax.nodes_at_level(2)
        candidates = np.array(
            [tuple(sorted(t)) for t in itertools.combinations(nodes, 3)]
        )
        assert (
            bitmap.supports(2, candidates).tolist()
            == other.supports(2, candidates).tolist()
        )


class TestScanAccounting:
    def test_horizontal_counts_scans(self, example3_db):
        backend = HorizontalBackend(example3_db)
        assert backend.scans == 0
        backend.node_supports(1)
        assert backend.scans == 1
        nodes = example3_db.taxonomy.nodes_at_level(1)
        backend.supports(1, np.array([tuple(sorted(nodes))]))
        backend.supports(1, np.zeros((0, len(nodes)), dtype=np.int64))
        assert backend.scans == 3

    @pytest.mark.parametrize("backend_cls", [BitmapBackend])
    def test_index_backends_single_build_scan(self, example3_db, backend_cls):
        backend = backend_cls(example3_db)
        backend.node_supports(1)
        backend.supports(1, np.zeros((0, 2), dtype=np.int64))
        assert backend.scans == 1


class TestMinerIntegration:
    @pytest.mark.parametrize("name", ["bitmap", "horizontal"])
    def test_all_backends_find_the_toy_pattern(
        self, example3_db, example3_thresholds, name
    ):
        from repro import mine_flipping_patterns

        result = mine_flipping_patterns(
            example3_db, example3_thresholds, backend=name
        )
        assert [p.leaf_names for p in result.patterns] == [("a11", "b11")]


# ---------------------------------------------------------------------------
# DeltaCounter: incremental SON counting over a growing store
# ---------------------------------------------------------------------------


class TestDeltaCounter:
    @pytest.fixture
    def store(self, random_db, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        return ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )

    def test_refresh_is_noop_without_growth(self, store):
        from repro.core.counting import DeltaCounter

        counter = DeltaCounter(store)
        assert counter.refresh() == []
        counter.node_supports(1)
        assert counter.refresh() == []
        assert counter.refreshes == 0

    def test_node_supports_track_appends(self, store, random_db):
        from repro.core.counting import BitmapBackend, DeltaCounter

        counter = DeltaCounter(store)
        before = dict(counter.node_supports(2))
        delta = [random_db.transaction_names(index) for index in range(40)]
        store.append_batch(delta)
        after = counter.node_supports(2)
        oracle = BitmapBackend(store.to_database()).node_supports(2)
        assert after == oracle
        assert after != before
        assert counter.counted_shards == store.n_shards

    def test_supports_include_delta_counts(self, store, random_db):
        from repro.core.counting import BitmapBackend, DeltaCounter

        counter = DeltaCounter(store)
        nodes = sorted(store.taxonomy.nodes_at_level(2))
        itemsets = np.array(
            [
                (nodes[i], nodes[j])
                for i in range(len(nodes))
                for j in range(i + 1, len(nodes))
            ][:12]
        )
        first = counter.supports(2, itemsets)
        delta = [random_db.transaction_names(index) for index in range(25)]
        store.append_batch(delta)
        second = counter.supports(2, itemsets)
        oracle = BitmapBackend(store.to_database()).supports(2, itemsets)
        assert second.tolist() == oracle.tolist()
        assert any(second[i] > first[i] for i in range(len(itemsets)))
        # no itemset support is cached
        assert counter.cached_itemsets == 0

    def test_supports_preserve_request_order(self, store):
        from repro.core.counting import DeltaCounter

        counter = DeltaCounter(store)
        nodes = sorted(store.taxonomy.nodes_at_level(1))
        itemsets = np.array([(nodes[1], nodes[2]), (nodes[0], nodes[1])])
        out = counter.supports(1, itemsets)
        assert out.tolist() == [
            counter.supports(1, row[None, :]).tolist()[0] for row in itemsets
        ]

    def test_empty_delta_shard_contributes_zero(self, store):
        from repro.core.counting import DeltaCounter

        counter = DeltaCounter(store)
        before = dict(counter.node_supports(1))
        assert store.append_batch([]) == []
        assert counter.refresh() == []
        assert counter.node_supports(1) == before


class TestShardPoolResidency:
    """Regression: a budget smaller than one shard must neither starve
    the pool nor evict the shard currently being counted."""

    @pytest.fixture
    def store(self, random_db, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        return ShardedTransactionStore.partition_database(
            random_db, tmp_path, 4
        )

    def test_tiny_budget_always_keeps_one_resident(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, memory_budget_mb=0.0001)
        for index in range(store.n_shards):
            backend = pool.backend(index)
            assert backend is not None
            assert pool.resident_shards == [index]

    def test_counted_shard_is_not_evicted_by_nested_access(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, memory_budget_mb=0.0001)
        for index, backend in pool.iter_backends():
            # nested accesses mid-count (as a re-entrant consumer
            # would trigger) must not evict the pinned shard ...
            other = (index + 1) % store.n_shards
            pool.backend(other)
            again = pool.backend(index)
            # ... so re-asking for it returns the very same object
            assert again is backend
            assert index in pool.resident_shards

    def test_tiny_budget_counts_are_exact(self, store, random_db):
        from repro.core.counting import BitmapBackend, DeltaCounter

        budgeted = DeltaCounter(store, memory_budget_mb=0.0001)
        oracle = BitmapBackend(random_db)
        assert budgeted.node_supports(1) == oracle.node_supports(1)
        nodes = sorted(store.taxonomy.nodes_at_level(1))
        itemsets = np.array([(nodes[0], nodes[1]), (nodes[1], nodes[2])])
        assert budgeted.supports(1, itemsets).tolist() == (
            oracle.supports(1, itemsets).tolist()
        )

    def test_unpinned_lru_eviction_still_happens(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, memory_budget_mb=0.0001)
        pool.backend(0)
        pool.backend(1)
        assert pool.resident_shards == [1]
        pool.backend(0)
        # the evicted shard was re-admitted: either rebuilt from rows
        # or (columnar default) mapped back from its persisted image
        assert pool.rebuilds + pool.image_admits == 1

    def test_eviction_without_image_persistence_rebuilds(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(
            store, memory_budget_mb=0.0001, persist_images=False
        )
        pool.backend(0)
        pool.backend(1)
        pool.backend(0)
        assert pool.rebuilds == 1
        assert pool.image_admits == 0


class TestBackendImageAdmits:
    """Persisted backend images: zero-parse re-admits, staleness."""

    @pytest.fixture
    def store(self, random_db, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        return ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )

    def _imaged_store(self, store, inner="bitmap"):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, inner=inner)
        height = store.taxonomy.height
        for index in range(store.n_shards):
            backend = pool.backend(index)
            for level in range(1, height + 1):
                backend.node_supports(level)
        assert pool.save_images() == store.n_shards
        return pool

    @pytest.mark.parametrize("inner", ["bitmap"])
    def test_image_admit_counts_match_build(self, store, random_db, inner):
        from repro.core.counting import ShardBackendPool, make_backend

        self._imaged_store(store, inner)
        warm = ShardBackendPool(store, inner=inner)
        oracle = make_backend(inner, random_db)
        height = random_db.taxonomy.height
        for level in range(1, height + 1):
            merged: dict[int, int] = {}
            for index in range(store.n_shards):
                backend = warm.backend(index)
                for node, count in backend.node_supports(level).items():
                    merged[node] = merged.get(node, 0) + count
            assert merged == oracle.node_supports(level)
        assert warm.image_admits == store.n_shards
        assert warm.rebuilds == 0
        assert warm.scans == 0  # no shard was ever re-parsed

    def test_stale_taxonomy_fingerprint_forces_rebuild(
        self, store, grocery_taxonomy, tmp_path
    ):
        from repro.core.counting import ShardBackendPool
        from repro.data.shards import ShardedTransactionStore
        from repro.taxonomy.tree import Taxonomy

        self._imaged_store(store)
        # same leaves, different grouping: images written under the
        # original taxonomy must not be served under this one
        regrouped = Taxonomy.from_dict(
            {
                "drinks": {
                    "beer": ["canned beer", "bottled beer"],
                    "soda": ["cola", "lemonade"],
                },
                "non-food": {
                    "cosmetics": ["baby cosmetics", "soap"],
                    "cleaning": ["detergent", "sponges"],
                },
                "fresh": {
                    "fruit": ["apples", "milk"],  # swapped pair
                    "dairy": ["bananas", "yogurt"],
                },
            }
        )
        reopened = ShardedTransactionStore.open(tmp_path, regrouped)
        pool = ShardBackendPool(reopened)
        backend = pool.backend(0)
        assert pool.image_admits == 0  # stale image was never served
        assert backend is not None
        # counts reflect the *new* taxonomy: "milk" sits under fruit
        fruit = regrouped.node_by_name("fruit").node_id
        rows = reopened.shard_transactions(0)
        expected = sum(
            1
            for row in rows
            if any(item in ("apples", "milk") for item in row)
        )
        assert backend.node_supports(2)[fruit] == expected

    def test_corrupt_image_falls_back_to_rebuild(self, store):
        from repro.core.counting import ShardBackendPool

        self._imaged_store(store)
        image = store.image_path(0, "bitmap")
        image.write_bytes(b"FLIPIMG1" + b"\x00" * 32)
        pool = ShardBackendPool(store)
        assert pool.backend(0) is not None
        assert pool.image_admits == 0

    def test_truncated_image_falls_back_to_rebuild(self, store):
        from repro.core.counting import ShardBackendPool

        self._imaged_store(store)
        image = store.image_path(0, "bitmap")
        raw = image.read_bytes()
        image.write_bytes(raw[: len(raw) // 2])
        pool = ShardBackendPool(store)
        backend = pool.backend(0)
        assert pool.image_admits == 0
        assert backend.node_supports(1)  # still serves exact counts

    def test_image_admits_count_separately_from_rebuilds(self, store):
        from repro.core.counting import ShardBackendPool

        self._imaged_store(store)
        pool = ShardBackendPool(store, memory_budget_mb=0.0001)
        pool.backend(0)
        pool.backend(1)  # evicts 0
        pool.backend(0)  # re-admit: from image, not rebuild
        assert pool.image_admits >= 2
        assert pool.rebuilds == 0

    def test_horizontal_inner_never_persists_images(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, inner="horizontal")
        for index in range(store.n_shards):
            pool.backend(index)
        assert pool.save_images() == 0
        assert store.shard_images(0) == []


class TestBudgetRespected:
    """S1: truthful estimates keep the resident set within budget."""

    @pytest.fixture
    def store(self, random_db, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        return ShardedTransactionStore.partition_database(
            random_db, tmp_path, 4
        )

    def test_resident_bytes_track_budget_within_ten_percent(self, store):
        from repro.core.counting import ShardBackendPool

        probe = ShardBackendPool(store)
        largest = max(
            probe._estimate_bytes(index)
            for index in range(store.n_shards)
        )
        budget_bytes = int(largest * 1.6)
        pool = ShardBackendPool(
            store, memory_budget_mb=budget_bytes / (1024 * 1024)
        )
        for index in list(range(store.n_shards)) * 3:
            pool.backend(index)
            # the pool may run over only for the single shard it is
            # admitting; steady-state residency honours the budget
            assert pool.resident_bytes <= budget_bytes * 1.1

    def test_columnar_estimate_is_truthful(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store)
        for index in range(store.n_shards):
            pool.backend(index)
        pool.save_images()
        estimate = pool._estimate_bytes(0)
        actual = store.shard_bytes(0) + store.image_bytes(0)
        # estimate equals mapped shard + image bytes once on disk
        assert estimate == actual

    def test_build_admit_charged_shard_plus_plane_bytes(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, persist_images=False)
        height = store.taxonomy.height
        for index in range(store.n_shards):
            backend = pool.backend(index)
            planes = sum(
                backend._plane(level).nbytes
                for level in range(1, height + 1)
            )
            assert pool._resident_bytes[index] == (
                store.shard_bytes(index) + planes
            )

    def test_horizontal_estimate_keeps_expansion_heuristic(self, store):
        from repro.core.counting import ShardBackendPool

        pool = ShardBackendPool(store, inner="horizontal")
        assert pool._estimate_bytes(0) == (
            store.shard_bytes(0) * ShardBackendPool.RESIDENCY_FACTOR
        )
