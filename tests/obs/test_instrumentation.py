"""The instrumented hot paths feed the registry (pool, caches, I/O).

The pool takes an injected registry, so its assertions are exact.
The delta-counter and columnar call sites meter into the
process-global default registry (they have no construction-time
injection point), so those tests assert deltas around the operation.
"""

from __future__ import annotations

import pytest

from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry, default_registry


@pytest.fixture
def store(random_db, tmp_path):
    from repro.data.shards import ShardedTransactionStore

    return ShardedTransactionStore.partition_database(
        random_db, tmp_path, 3
    )


class TestPoolMetrics:
    def test_builds_and_resident_bytes(self, store):
        from repro.core.counting import ShardBackendPool

        registry = MetricsRegistry()
        pool = ShardBackendPool(store, registry=registry)
        for index in range(store.n_shards):
            pool.backend(index)
        assert (
            registry.value(catalog.POOL_ADMITS, kind="build")
            == store.n_shards
        )
        assert registry.value(catalog.POOL_EVICTIONS) == 0
        assert registry.value(catalog.POOL_RESIDENT_BYTES) > 0

    def test_eviction_and_readmit_are_metered(self, store):
        from repro.core.counting import ShardBackendPool

        registry = MetricsRegistry()
        pool = ShardBackendPool(
            store, memory_budget_mb=0.0001, registry=registry
        )
        pool.backend(0)
        pool.backend(1)
        pool.backend(0)
        assert registry.value(catalog.POOL_EVICTIONS) >= 1
        readmits = registry.value(
            catalog.POOL_ADMITS, kind="rebuild"
        ) + registry.value(catalog.POOL_ADMITS, kind="image")
        assert readmits >= 1
        # the registry mirrors the pool's own attribute counters
        assert (
            registry.value(catalog.POOL_ADMITS, kind="rebuild")
            == pool.rebuilds
        )
        assert (
            registry.value(catalog.POOL_ADMITS, kind="image")
            == pool.image_admits
        )
        assert (
            registry.value(catalog.POOL_IMAGES_SAVED)
            == pool.images_saved
        )

    def test_registries_are_isolated_per_pool(self, store):
        from repro.core.counting import ShardBackendPool

        first, second = MetricsRegistry(), MetricsRegistry()
        ShardBackendPool(store, registry=first).backend(0)
        ShardBackendPool(store, registry=second)
        assert first.value(catalog.POOL_ADMITS, kind="build") == 1
        assert second.value(catalog.POOL_ADMITS, kind="build") == 0


class TestDeltaCounterMetrics:
    def test_retirements_mirrored(self, store):
        from repro.core.counting import DeltaCounter

        registry = default_registry()
        shards0 = registry.value(catalog.RETIRED_SHARDS)
        rows0 = registry.value(catalog.RETIRED_ROWS)
        counter = DeltaCounter(store)
        rows = counter.retire([0])
        assert registry.value(catalog.RETIRED_SHARDS) - shards0 == 1
        assert registry.value(catalog.RETIRED_ROWS) - rows0 == rows
        assert counter.retired_rows == rows > 0


class TestColumnarMetrics:
    def test_decode_and_map_counters_advance(self, random_db, tmp_path):
        from repro.data.columnar import ColumnarShard
        from repro.data.shards import ShardedTransactionStore

        registry = default_registry()
        mapped0 = registry.value(catalog.COLUMNAR_MAPPED_BYTES)
        decoded0 = registry.value(catalog.COLUMNAR_SHARDS_DECODED)
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        shard = ColumnarShard(store.shard_path(0))
        assert shard.rows()
        assert (
            registry.value(catalog.COLUMNAR_SHARDS_DECODED) > decoded0
        )
        assert registry.value(catalog.COLUMNAR_MAPPED_BYTES) > mapped0
