"""Stateful property test: the shard-store counter under churn.

A hypothesis state machine appends random batches to a shard store,
retires its oldest shards through the :class:`DeltaCounter`, alone
or in one commit with a delta batch, and asks the counter for node
supports and for the supports of random pairs and triples at random
levels, as ``(n, k)`` row matrices with repeated rows and, now and
then, an empty ``(0, k)`` batch.  After every step the answers must
equal a monolithic :class:`BitmapBackend` over the store's current
rows, row for row — an oracle that shares no SON or pool code with
the counter — every shard must be counted, and the pool may hold no
shard the store no longer has.  The store's per-level widths (kept
per shard across retirements) must equal a row walk over the same
rows.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
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

NO_ROWS = np.zeros((0, 2), dtype=np.int64)


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

    def expected(self, level, rows=NO_ROWS):
        """Node and row supports of a monolithic count of the store's
        current rows (all 0 once only empty shards are left: an empty
        database has no backend)."""
        if self.store.n_transactions == 0:
            nodes = self.taxonomy.nodes_at_level(level)
            return dict.fromkeys(nodes, 0), [0] * len(rows)
        oracle = BitmapBackend(self.store.to_database())
        return (
            oracle.node_supports(level),
            oracle.supports(level, rows).tolist(),
        )

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

    @rule(
        n_rows=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=0, max_value=3),
    )
    def append_and_retire(self, n_rows, seed, k):
        """One commit: the delta in, the oldest ``k`` shards out (all
        of them when the delta brings a shard to keep)."""
        delta = _random_rows(self.leaves, seed, n_rows)
        k = min(k, self.store.n_shards - (0 if delta else 1))
        rows = sum(self.store.shard_sizes[:k])
        survivors = self.store.shard_generations[k:]
        first_new = self.store.next_generation
        assert self.counter.retire(range(k), delta) == rows
        expected = survivors + ([first_new] if delta else [])
        assert self.store.shard_generations == expected
        if delta:
            assert self.store.shard_sizes[-1] == len(delta)

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
        repeats = (
            data.draw(st.lists(st.sampled_from(itemsets), max_size=4))
            if itemsets
            else []
        )
        rows = np.array(itemsets + repeats, dtype=np.int64).reshape(-1, size)
        nodes_expected, rows_expected = self.expected(level, rows)
        assert self.counter.supports(level, rows).tolist() == rows_expected
        assert self.counter.node_supports(level) == nodes_expected

    @invariant()
    def matches_a_monolithic_count(self):
        for level in range(1, self.taxonomy.height + 1):
            nodes_expected, _ = self.expected(level)
            assert self.counter.node_supports(level) == nodes_expected
        assert self.counter.counted_shards == self.store.n_shards
        assert len(self.counter.pool.resident_shards) <= self.store.n_shards

    @invariant()
    def widths_match_a_row_walk(self):
        for level in range(1, self.taxonomy.height + 1):
            expected = (
                self.store.to_database().width_at_level(level)
                if self.store.n_transactions
                else 0
            )
            assert self.store.width_at_level(level) == expected


TestDeltaCounterMachine = DeltaCounterMachine.TestCase
TestDeltaCounterMachine.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
