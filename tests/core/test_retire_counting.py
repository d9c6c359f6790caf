"""Exact count subtraction: DeltaCounter.retire and pool drops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.counting import BitmapBackend, DeltaCounter
from repro.data.shards import ShardedTransactionStore
from repro.errors import DataError


@pytest.fixture
def store(random_db, tmp_path):
    return ShardedTransactionStore.partition_database(random_db, tmp_path, 4)


def _oracle(store):
    """A monolithic backend over the store's current rows: it shares
    no SON or pool code with the counter under test."""
    return BitmapBackend(store.to_database())


def _some_itemsets(store, level, limit=12):
    nodes = sorted(store.taxonomy.nodes_at_level(level))
    return np.array(
        [
            (nodes[i], nodes[j])
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        ][:limit]
    )


class TestRetire:
    def test_subtraction_is_exact(self, store):
        counter = DeltaCounter(store)
        itemsets = _some_itemsets(store, 2)
        counter.node_supports(2)
        counter.supports(2, itemsets)
        rows = counter.retire([0, 2])
        assert rows > 0
        oracle = _oracle(store)
        assert counter.node_supports(2) == oracle.node_supports(2)
        assert counter.supports(2, itemsets).tolist() == (
            oracle.supports(2, itemsets).tolist()
        )

    def test_retire_updates_counted_generations(self, store):
        counter = DeltaCounter(store)
        assert list(counter.counted_generations) == [0, 1, 2, 3]
        counter.retire([0, 1])
        assert list(counter.counted_generations) == [2, 3]
        assert counter.counted_shards == 2

    def test_retire_then_append_then_refresh(self, store, random_db):
        counter = DeltaCounter(store)
        counter.node_supports(1)
        counter.retire([0])
        delta = [random_db.transaction_names(index) for index in range(30)]
        store.append_batch(delta)
        counter.refresh()
        oracle = _oracle(store)
        assert counter.node_supports(1) == oracle.node_supports(1)

    def test_uncounted_generation_is_skipped(self, store, random_db):
        counter = DeltaCounter(store)
        counter.node_supports(1)
        # appended but never refreshed: nothing cached to subtract
        delta = [random_db.transaction_names(index) for index in range(10)]
        new = store.append_batch(delta)
        rows = counter.retire(new)
        assert rows == len(delta)
        oracle = _oracle(store)
        assert counter.node_supports(1) == oracle.node_supports(1)

    def test_retire_counts_instrumented(self, store):
        counter = DeltaCounter(store)
        rows = counter.retire([0, 1])
        assert counter.retired_shards == 2
        assert counter.retired_rows == rows

    def test_retire_pinned_shard_raises(self, store):
        counter = DeltaCounter(store)
        iterator = counter.pool.iter_backends()
        next(iterator)
        with pytest.raises(DataError, match="pinned"):
            counter.retire([0])
        iterator.close()
        assert counter.retire([0]) > 0

    def test_retire_bad_index_raises(self, store):
        counter = DeltaCounter(store)
        with pytest.raises(DataError):
            counter.retire([9])

    def test_failed_retire_changes_nothing(self, store, random_db):
        """A retire that raises — one bad index among good ones, or a
        pinned shard — leaves the counted generations, the node
        supports and the store exactly as they were."""
        counter = DeltaCounter(store)
        store.append_batch(
            [random_db.transaction_names(index) for index in range(15)]
        )
        counter.retire([0])
        nodes = {level: dict(counter.node_supports(level)) for level in (1, 2)}
        generations = counter.counted_generations
        assert generations == [1, 2, 3, 4]
        sizes = store.shard_sizes
        with pytest.raises(DataError, match="99"):
            counter.retire([0, 99])
        iterator = counter.pool.iter_backends()
        next(iterator)
        with pytest.raises(DataError, match="pinned"):
            counter.retire([0, 1])
        iterator.close()
        assert counter.counted_generations == generations
        assert store.shard_generations == generations
        assert store.shard_sizes == sizes
        for level, counts in nodes.items():
            assert counter._node_supports[level] == counts
            assert counts == _oracle(store).node_supports(level)


class TestRefreshGuard:
    def test_shrunk_store_raises_loudly(self, store):
        counter = DeltaCounter(store)
        counter.node_supports(1)
        # shrinking behind the counter's back must not silently
        # poison the caches
        store.retire_shards([0])
        with pytest.raises(DataError) as excinfo:
            counter.refresh()
        message = str(excinfo.value)
        assert "4" in message and "3" in message
        assert "retire()" in message

    def test_retire_through_counter_keeps_refresh_legal(self, store):
        counter = DeltaCounter(store)
        counter.node_supports(1)
        counter.retire([0])
        assert counter.refresh() == []


class TestPoolDrop:
    def test_drop_remaps_surviving_indexes(self, store, random_db):
        from repro.core.counting import BitmapBackend
        from repro.data.database import TransactionDatabase

        counter = DeltaCounter(store)
        keep_rows = store.shard_transactions(3)
        counter.retire([0, 2])
        # index 1 now addresses the shard formerly at 3
        backend = counter.pool.backend(1)
        oracle = BitmapBackend(
            TransactionDatabase(keep_rows, store.taxonomy)
        )
        assert backend.node_supports(1) == oracle.node_supports(1)

    def test_drop_folds_scans_into_total(self, store):
        counter = DeltaCounter(store)
        counter.node_supports(1)
        scans_before = counter.pool.scans
        counter.retire([0])
        assert counter.pool.scans == scans_before
