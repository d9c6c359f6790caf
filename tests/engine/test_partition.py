"""Partition parity: N-shard mining must equal 1-shard mining.

The acceptance bar for the out-of-core path: for every counting
backend, mining through N disk shards produces *byte-identical*
pattern sets to the monolithic single-partition path — including the
empty-shard and single-transaction-shard edge cases.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core.counting import (
    DeltaCounter,
    ShardBackendPool,
    make_backend,
)
from repro.core.flipper import FlipperMiner
from repro.data.shards import ShardedTransactionStore
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.errors import ConfigError

BACKENDS = ["bitmap", "horizontal"]


@pytest.fixture(scope="module")
def planted_db():
    """The groceries simulator: planted flipping chains."""
    return generate_groceries(scale=0.2)


@pytest.fixture(scope="module")
def planted_store(planted_db, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    return ShardedTransactionStore.partition_database(planted_db, directory, 4)


def _fingerprint(result) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


def _mine(database, **kwargs):
    with FlipperMiner(database, GROCERIES_THRESHOLDS, **kwargs) as miner:
        return miner.mine()


class TestCountingParity:
    """DeltaCounter counts == monolithic backend counts."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_merged_counts_exact(
        self, planted_db, tmp_path, backend_name, n_shards
    ):
        store = ShardedTransactionStore.partition_database(
            planted_db, tmp_path, n_shards
        )
        partitioned = DeltaCounter(store, inner=backend_name)
        monolithic = make_backend(backend_name, planted_db)
        level = 2
        candidates = np.array(
            [
                tuple(sorted(pair))
                for pair in itertools.combinations(
                    planted_db.taxonomy.nodes_at_level(level), 2
                )
            ]
        )
        assert (
            partitioned.supports(level, candidates).tolist()
            == monolithic.supports(level, candidates).tolist()
        )
        assert partitioned.node_supports(level) == monolithic.node_supports(
            level
        )

    def test_empty_shards_contribute_zero(self, example3_db, tmp_path):
        n = example3_db.n_transactions
        store = ShardedTransactionStore.partition_database(
            example3_db, tmp_path, n + 3
        )
        partitioned = DeltaCounter(store)
        monolithic = make_backend("bitmap", example3_db)
        assert partitioned.node_supports(1) == monolithic.node_supports(1)


class TestFormatParity:
    """Byte-parity of the columnar store's warm path: a store serving
    persisted backend images mines what the monolithic path mines."""

    def test_warm_image_serving_parity(self, planted_db, tmp_path):
        """Mining a store whose backends come entirely from persisted
        images equals mining the monolithic database."""
        base = _mine(planted_db)
        store = ShardedTransactionStore.partition_database(
            planted_db, tmp_path, 4
        )
        pool = ShardBackendPool(store)
        for index in range(store.n_shards):
            pool.backend(index)
        assert pool.save_images() == store.n_shards

        warm_store = ShardedTransactionStore.open(
            tmp_path, planted_db.taxonomy
        )
        warm_miner = FlipperMiner(warm_store, GROCERIES_THRESHOLDS)
        warm = warm_miner.mine()
        assert _fingerprint(base) == _fingerprint(warm)
        pool = warm_miner.context.backend.pool
        assert pool.image_admits == store.n_shards
        assert pool.rebuilds == 0

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_ingested_store_parity(self, planted_db, tmp_path, backend_name):
        """A store streamed in by ``ingest`` (names encoded through the
        taxonomy, widths stamped as each shard is written) mines what
        the monolithic database mines."""
        n = planted_db.n_transactions
        store = ShardedTransactionStore.ingest(
            (planted_db.transaction_names(row) for row in range(n)),
            planted_db.taxonomy,
            tmp_path,
            rows_per_shard=-(-n // 4),
        )
        assert store.n_shards == 4
        base = _mine(planted_db, backend=backend_name)
        assert len(base.patterns) > 0
        ingested = _mine(store, backend=backend_name)
        assert _fingerprint(base) == _fingerprint(ingested)


class TestMiningParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_partitioned_equals_monolithic(
        self, planted_db, planted_store, backend_name
    ):
        base = _mine(planted_db, backend=backend_name)
        part = _mine(planted_store, backend=backend_name)
        assert len(base.patterns) > 0
        assert _fingerprint(base) == _fingerprint(part)
        assert part.config["partitions"] == 4

    def test_backend_name_resolves_alike_on_every_substrate(
        self, planted_db, tmp_path
    ):
        """One spelling of a backend name picks the same backend in
        memory and per shard."""
        base = _mine(planted_db, backend=" Bitmap ")
        part = _mine(
            planted_db, backend=" Bitmap ", partitions=2, shard_dir=tmp_path
        )
        assert len(base.patterns) > 0
        assert _fingerprint(base) == _fingerprint(part)
        assert ShardedTransactionStore.open(
            tmp_path, planted_db.taxonomy
        ).n_shards == 2

    def test_partitions_argument_builds_temporary_store(self, planted_db):
        base = _mine(planted_db)
        part = _mine(planted_db, partitions=3, memory_budget_mb=8)
        assert _fingerprint(base) == _fingerprint(part)
        assert part.config["partitions"] == 3
        assert part.config["memory_budget_mb"] == 8

    def test_empty_shard_edge_case(self, example3_db, tmp_path):
        """More shards than transactions: surplus shards are empty."""
        n = example3_db.n_transactions
        from repro.core.thresholds import Thresholds

        thresholds = Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        base = FlipperMiner(example3_db, thresholds).mine()
        store = ShardedTransactionStore.partition_database(
            example3_db, tmp_path, n + 4
        )
        part = FlipperMiner(store, thresholds).mine()
        assert len(base.patterns) > 0
        assert _fingerprint(base) == _fingerprint(part)

    def test_single_transaction_shards(self, example3_db, tmp_path):
        """Exactly one transaction per shard."""
        from repro.core.thresholds import Thresholds

        thresholds = Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        base = FlipperMiner(example3_db, thresholds).mine()
        part = FlipperMiner(
            example3_db,
            thresholds,
            partitions=example3_db.n_transactions,
            shard_dir=tmp_path,
        ).mine()
        assert _fingerprint(base) == _fingerprint(part)

    def test_memory_budget_bounds_residency(self, planted_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            planted_db, tmp_path, 4
        )
        # budget for ~1.5 shards, measured in the pool's own truthful
        # per-shard estimate (S1: actual mapped/built bytes)
        probe = ShardBackendPool(store)
        budget_mb = (probe._estimate_bytes(0) * 1.5) / (1024 * 1024)
        miner = FlipperMiner(
            store, GROCERIES_THRESHOLDS, memory_budget_mb=budget_mb
        )
        result = miner.mine()
        backend = miner.context.backend
        assert isinstance(backend, DeltaCounter)
        # at most one full-size shard resident at a time under this
        # budget, and the pool paid for evictions — with rebuilds or
        # with zero-parse image re-admits
        assert len(backend.pool.resident_shards) <= 2
        assert backend.pool.rebuilds + backend.pool.image_admits > 0
        assert len(result.patterns) > 0

    def test_mine_twice_on_temporary_shards(self, planted_db):
        """Repeated mine() must still find the temp shard files (the
        monolithic path supports repeated runs; the partitioned path
        must too, even with evictions forcing shard re-reads)."""
        with FlipperMiner(
            planted_db,
            GROCERIES_THRESHOLDS,
            partitions=3,
            memory_budget_mb=0.1,
        ) as miner:
            first = miner.mine()
            second = miner.mine()
        assert len(first.patterns) > 0
        assert _fingerprint(first) == _fingerprint(second)

    def test_basic_mode_parity(self, planted_db, planted_store):
        from repro.core.flipper import PruningConfig

        base = _mine(planted_db, pruning=PruningConfig.basic(), max_k=3)
        part = _mine(planted_store, pruning=PruningConfig.basic(), max_k=3)
        assert _fingerprint(base) == _fingerprint(part)


class TestConfigErrors:
    def test_partitions_conflicts_with_store(self, planted_store):
        with pytest.raises(ConfigError, match="conflicts"):
            FlipperMiner(planted_store, GROCERIES_THRESHOLDS, partitions=2)

    def test_backend_from_other_store_rejected(
        self, planted_db, planted_store, tmp_path
    ):
        other = ShardedTransactionStore.partition_database(
            planted_db, tmp_path, 2
        )
        with pytest.raises(ConfigError, match="different store"):
            FlipperMiner(
                planted_store,
                GROCERIES_THRESHOLDS,
                backend=DeltaCounter(other),
            )

    def test_budget_with_instance_backend_rejected(self, planted_store):
        backend = DeltaCounter(planted_store, memory_budget_mb=4)
        with pytest.raises(ConfigError, match="memory_budget_mb"):
            FlipperMiner(
                planted_store,
                GROCERIES_THRESHOLDS,
                backend=backend,
                memory_budget_mb=8,
            )

    def test_config_reports_instance_backend_budget(self, planted_store):
        backend = DeltaCounter(planted_store, memory_budget_mb=4)
        result = FlipperMiner(
            planted_store, GROCERIES_THRESHOLDS, backend=backend
        ).mine()
        assert result.config["memory_budget_mb"] == 4

    def test_shard_dir_with_store_rejected(self, planted_store, tmp_path):
        with pytest.raises(ConfigError, match="shard_dir"):
            FlipperMiner(
                planted_store, GROCERIES_THRESHOLDS, shard_dir=tmp_path
            )

    def test_budget_requires_partitions(self, planted_db):
        with pytest.raises(ConfigError, match="memory_budget_mb"):
            FlipperMiner(planted_db, GROCERIES_THRESHOLDS, memory_budget_mb=64)

    def test_shard_dir_requires_partitions(self, planted_db, tmp_path):
        with pytest.raises(ConfigError, match="shard_dir"):
            FlipperMiner(planted_db, GROCERIES_THRESHOLDS, shard_dir=tmp_path)
