"""Incremental delta mining: exactness, reuse, and wiring tests.

The contract under test: after any sequence of ``append_batch`` /
``update`` calls, the mined patterns are **byte-identical** to a
fresh full mine of the concatenated database — across both inner
backends, including empty deltas and deltas that introduce a
previously unseen leaf item.
"""

from __future__ import annotations

import json

import pytest

from repro.core.counting import DeltaCounter
from repro.core.flipper import FlipperMiner, mine_flipping_patterns
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.engine.incremental import IncrementalMiner
from repro.errors import ConfigError
from tests.conftest import make_random_database


def fingerprint(result) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


@pytest.fixture
def thresholds() -> Thresholds:
    # absolute counts: growth never shifts the resolved thresholds,
    # so updates stay on the incremental path
    return Thresholds(gamma=0.55, epsilon=0.35, min_support=[8, 4, 2])


@pytest.fixture
def rows(grocery_taxonomy):
    database = make_random_database(
        grocery_taxonomy, 260, seed=13, max_width=6
    )
    return [
        database.transaction_names(index)
        for index in range(database.n_transactions)
    ]


def batches_of(rows):
    """base + three delta batches (uneven on purpose)."""
    return rows[:170], [rows[170:200], rows[200:215], rows[215:]]


class TestUpdateMatchesFullMine:
    @pytest.mark.parametrize("backend", ["bitmap", "horizontal"])
    def test_n_appends_byte_identical_to_full_mine(
        self, grocery_taxonomy, rows, thresholds, tmp_path, backend
    ):
        base, deltas = batches_of(rows)
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store = ShardedTransactionStore.partition_database(
            base_db, tmp_path, 3
        )
        miner = IncrementalMiner(store, thresholds, backend=backend)
        result = miner.mine()
        seen = list(base)
        for delta in deltas:
            result = miner.update(delta)
            seen.extend(delta)
            fresh = mine_flipping_patterns(
                TransactionDatabase(seen, grocery_taxonomy),
                thresholds,
                backend=backend,
            )
            assert fingerprint(result) == fingerprint(fresh)
            assert result.config["incremental"]["mode"] == "incremental"
        assert seen == rows

    def test_empty_delta_returns_previous_result(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, _ = batches_of(rows)
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store = ShardedTransactionStore.partition_database(
            base_db, tmp_path, 2
        )
        miner = IncrementalMiner(store, thresholds)
        first = miner.mine()
        updated = miner.update([])
        assert updated.patterns is first.patterns  # nothing re-mined
        assert updated.config["incremental"]["mode"] == "noop"
        # the result the caller already holds keeps its own metadata
        assert first.config["incremental"]["mode"] == "initial"
        assert store.n_shards == 2  # no delta shard was written
        fresh = mine_flipping_patterns(base_db, thresholds)
        assert fingerprint(updated) == fingerprint(fresh)

    def test_delta_introducing_a_new_leaf(
        self, grocery_taxonomy, thresholds, tmp_path
    ):
        # base transactions never mention "sponges"; the delta does.
        names = [
            grocery_taxonomy.name_of(item)
            for item in grocery_taxonomy.item_ids
        ]
        assert "sponges" in names
        base = [
            tuple(name for name in row if name != "sponges")
            for row in (
                make_random_database(
                    grocery_taxonomy, 150, seed=5, max_width=6
                ).transaction_names(index)
                for index in range(150)
            )
        ]
        base = [row for row in base if row]
        delta = [
            ("sponges", "detergent", "milk"),
            ("sponges", "cola"),
            ("sponges", "apples", "canned beer"),
        ] * 4
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store = ShardedTransactionStore.partition_database(
            base_db, tmp_path, 3
        )
        miner = IncrementalMiner(store, thresholds)
        miner.mine()
        updated = miner.update(delta)
        fresh = mine_flipping_patterns(
            TransactionDatabase(base + delta, grocery_taxonomy), thresholds
        )
        assert fingerprint(updated) == fingerprint(fresh)

    def test_fractional_thresholds_fall_back_to_full_mode(
        self, grocery_taxonomy, rows, tmp_path
    ):
        fractional = Thresholds(
            gamma=0.55, epsilon=0.35, min_support=[0.05, 0.02, 0.01]
        )
        base, deltas = batches_of(rows)
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store = ShardedTransactionStore.partition_database(
            base_db, tmp_path, 2
        )
        miner = IncrementalMiner(store, fractional)
        miner.mine()
        updated = miner.update(deltas[0])
        # N grew, fractions re-resolved to different counts -> full
        assert updated.config["incremental"]["mode"] == "full"
        fresh = mine_flipping_patterns(
            TransactionDatabase(base + deltas[0], grocery_taxonomy),
            fractional,
        )
        assert fingerprint(updated) == fingerprint(fresh)


class TestFlipperMinerUpdate:
    def test_update_through_the_miner_facade(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, deltas = batches_of(rows)
        miner = FlipperMiner(
            TransactionDatabase(base, grocery_taxonomy),
            thresholds,
            partitions=2,
            shard_dir=tmp_path,
        )
        miner.mine()
        result = miner.update(deltas[0])
        fresh = mine_flipping_patterns(
            TransactionDatabase(base + deltas[0], grocery_taxonomy),
            thresholds,
        )
        assert fingerprint(result) == fingerprint(fresh)
        # the facade reuses the run's own DeltaCounter: the update
        # builds the delta shard only, not every shard again
        incremental = result.config["incremental"]
        assert result.stats.db_scans == incremental["delta_shards"] == 1

    def test_update_requires_the_partitioned_path(
        self, grocery_taxonomy, rows, thresholds
    ):
        base, deltas = batches_of(rows)
        miner = FlipperMiner(
            TransactionDatabase(base, grocery_taxonomy), thresholds
        )
        with pytest.raises(ConfigError, match="partitions"):
            miner.update(deltas[0])

    def test_update_before_mine_works(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, deltas = batches_of(rows)
        miner = FlipperMiner(
            TransactionDatabase(base, grocery_taxonomy),
            thresholds,
            partitions=2,
            shard_dir=tmp_path,
        )
        result = miner.update(deltas[0])
        fresh = mine_flipping_patterns(
            TransactionDatabase(base + deltas[0], grocery_taxonomy),
            thresholds,
        )
        assert fingerprint(result) == fingerprint(fresh)


class TestIncrementalMinerConfig:
    def test_in_memory_database_is_partitioned(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, _ = batches_of(rows)
        miner = IncrementalMiner(
            TransactionDatabase(base, grocery_taxonomy),
            thresholds,
            partitions=3,
            shard_dir=tmp_path,
        )
        assert miner.store.n_shards == 3
        assert miner.store.n_transactions == len(base)

    def test_adopting_a_foreign_counter_is_rejected(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, _ = batches_of(rows)
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store_a = ShardedTransactionStore.partition_database(
            base_db, tmp_path / "a", 2
        )
        store_b = ShardedTransactionStore.partition_database(
            base_db, tmp_path / "b", 2
        )
        counter = DeltaCounter(store_a)
        with pytest.raises(ConfigError, match="different store"):
            IncrementalMiner(store_b, thresholds, backend=counter)

    def test_budget_with_adopted_counter_is_rejected(
        self, grocery_taxonomy, rows, thresholds, tmp_path
    ):
        base, _ = batches_of(rows)
        base_db = TransactionDatabase(base, grocery_taxonomy)
        store = ShardedTransactionStore.partition_database(
            base_db, tmp_path, 2
        )
        counter = DeltaCounter(store)
        with pytest.raises(ConfigError, match="memory_budget_mb"):
            IncrementalMiner(
                store, thresholds, backend=counter, memory_budget_mb=8.0
            )


class TestRepeatedMineAfterUpdate:
    def test_outer_mine_after_update_matches_fresh_mine(
        self, grocery_taxonomy, rows, tmp_path
    ):
        """Regression: re-running the facade miner's own mine() after
        update() must rebind fractional thresholds to the grown N and
        drop cells/pair-supports counted over the smaller store."""
        fractional = Thresholds(
            gamma=0.55, epsilon=0.35, min_support=[0.05, 0.02, 0.01]
        )
        base, deltas = batches_of(rows)
        miner = FlipperMiner(
            TransactionDatabase(base, grocery_taxonomy),
            fractional,
            partitions=2,
            shard_dir=tmp_path,
        )
        miner.mine()
        miner.update(deltas[0])
        again = miner.mine()
        fresh = mine_flipping_patterns(
            TransactionDatabase(base + deltas[0], grocery_taxonomy),
            fractional,
        )
        assert fingerprint(again) == fingerprint(fresh)
        assert again.config["n_transactions"] == len(base) + len(deltas[0])
        assert again.config["min_counts"] == fresh.config["min_counts"]
