"""Stateful property test: the shard-store counter under churn.

A hypothesis state machine appends random batches to a shard store,
retires its oldest shards through the :class:`DeltaCounter` and asks
the counter for node supports and for the supports of random pairs
and triples at random levels.  After every step the answers must
equal a monolithic :class:`BitmapBackend` over the store's current
rows — an oracle that shares no SON or pool code with the counter —
every shard must be counted, and the pool may hold no shard the store
no longer has.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Taxonomy, TransactionDatabase
from repro.core.counting import BitmapBackend, DeltaCounter
from repro.data.shards import ShardedTransactionStore
from tests.conftest import _random_rows, taxonomy_trees


class DeltaCounterMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-delta-machine-")

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    @initialize(
        tree=taxonomy_trees(),
        seed=st.integers(min_value=0, max_value=9999),
        n_rows=st.integers(min_value=1, max_value=40),
        n_shards=st.integers(min_value=1, max_value=3),
        inner=st.sampled_from(["bitmap", "horizontal"]),
        budget_mb=st.sampled_from([None, 0.0001]),
    )
    def build(self, tree, seed, n_rows, n_shards, inner, budget_mb):
        tree, self.leaves = tree
        database = TransactionDatabase(
            _random_rows(self.leaves, seed, n_rows), Taxonomy.from_dict(tree)
        )
        self.store = ShardedTransactionStore.partition_database(
            database, self.directory, n_shards
        )
        # the database's taxonomy: balanced, rebalancing copies included
        self.taxonomy = self.store.taxonomy
        self.counter = DeltaCounter(
            self.store, inner=inner, memory_budget_mb=budget_mb
        )

    def expected(self, level, itemsets=()):
        """Node and itemset supports of a monolithic count of the
        store's current rows (all 0 once only empty shards are left:
        an empty database has no backend)."""
        if self.store.n_transactions == 0:
            nodes = self.taxonomy.nodes_at_level(level)
            return dict.fromkeys(nodes, 0), dict.fromkeys(itemsets, 0)
        oracle = BitmapBackend(self.store.to_database())
        return oracle.node_supports(level), oracle.supports(level, itemsets)

    @rule(
        n_rows=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=9999),
    )
    def append(self, n_rows, seed):
        self.store.append_batch(_random_rows(self.leaves, seed, n_rows))

    @precondition(lambda self: self.store.n_shards > 1)
    @rule(k=st.integers(min_value=1, max_value=3))
    def retire_oldest(self, k):
        k = min(k, self.store.n_shards - 1)
        rows = sum(self.store.shard_sizes[:k])
        assert self.counter.retire(range(k)) == rows

    @rule(data=st.data())
    def query(self, data):
        level = data.draw(
            st.integers(min_value=1, max_value=self.taxonomy.height)
        )
        nodes = self.taxonomy.nodes_at_level(level)
        size = min(len(nodes), data.draw(st.sampled_from([2, 3])))
        itemsets = data.draw(
            st.lists(
                st.lists(
                    st.sampled_from(nodes),
                    min_size=size,
                    max_size=size,
                    unique=True,
                ).map(lambda picked: tuple(sorted(picked))),
                max_size=6,
            )
        )
        nodes_expected, itemsets_expected = self.expected(level, itemsets)
        assert self.counter.supports(level, itemsets) == itemsets_expected
        assert self.counter.node_supports(level) == nodes_expected

    @invariant()
    def matches_a_monolithic_count(self):
        for level in range(1, self.taxonomy.height + 1):
            nodes_expected, _ = self.expected(level)
            assert self.counter.node_supports(level) == nodes_expected
        assert self.counter.counted_shards == self.store.n_shards
        assert len(self.counter.pool.resident_shards) <= self.store.n_shards


TestDeltaCounterMachine = DeltaCounterMachine.TestCase
TestDeltaCounterMachine.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
