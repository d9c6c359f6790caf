"""The k bound reads the widest level-1 row from the counting substrate.

``FlipperMiner._k_bound`` caps the itemset size by the most distinct
level-1 nodes one transaction holds.  Every counting substrate answers
that through ``width_at_level`` from what it already keeps: the
bitmap backend from its level-1 plane (built in memory, from a
columnar shard or admitted from an image), the horizontal backend from
its level projection and a :class:`DeltaCounter` from the store's
per-shard widths.  :meth:`TransactionDatabase.width_at_level`, a walk
over every row, stays the reference they are compared with; a mine no
longer calls it.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counting
from repro.core.counting import DeltaCounter, HorizontalBackend
from repro.core.flipper import FlipperMiner
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.taxonomy.tree import Taxonomy

from tests.conftest import taxonomy_trees
from tests.core.test_packed_kernel import ROW_COUNTS, _three_backends


def _rows(leaves: list[str], seed: int, n: int) -> list[list[str]]:
    """Rows of zero to four leaves plus unknown names, which
    ``strict=False`` drops: some rows end up empty."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = rng.sample(leaves, rng.randint(0, min(4, len(leaves))))
        row += ["unknown"] * rng.randint(0, 1)
        rows.append(row)
    return rows


def _substrates(database: TransactionDatabase, directory: Path):
    """Every substrate the miner can count through, over ``database``."""
    backends = dict(_three_backends(database, directory / "one"))
    backends["horizontal"] = HorizontalBackend(database)
    store = ShardedTransactionStore.partition_database(
        database, directory / "three", 3
    )
    backends["delta"] = DeltaCounter(store)
    return backends


@given(
    tree=taxonomy_trees(),
    n_rows=st.sampled_from(ROW_COUNTS),
    seed=st.integers(0, 9999),
    block_bytes=st.sampled_from([8, counting._BLOCK_BYTES]),
)
@settings(max_examples=30, deadline=None)
def test_every_substrate_width_equals_the_row_walk(
    tree, n_rows, seed, block_bytes
):
    """At every level, on row counts on both sides of a word boundary
    and with planes read one word per block."""
    taxonomy = Taxonomy.from_dict(tree[0])
    database = TransactionDatabase(
        _rows(tree[1], seed, n_rows), taxonomy, strict=False
    )
    levels = range(1, database.taxonomy.height + 1)
    expected = [database.width_at_level(level) for level in levels]
    patch = mock.patch.object(counting, "_BLOCK_BYTES", block_bytes)
    with tempfile.TemporaryDirectory() as tmp, patch:
        for name, backend in _substrates(database, Path(tmp)).items():
            widths = [backend.width_at_level(level) for level in levels]
            assert widths == expected, name


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_empty_transactions_have_width_zero(
    n_rows, grocery_taxonomy, tmp_path
):
    database = TransactionDatabase(
        [["unknown"]] * n_rows, grocery_taxonomy, strict=False
    )
    assert database.width_at_level(1) == 0
    for name, backend in _substrates(database, tmp_path).items():
        assert backend.width_at_level(1) == 0, name


@pytest.mark.parametrize(
    "backend, partitions",
    [("bitmap", None), ("horizontal", None), ("bitmap", 3)],
    ids=["bitmap", "horizontal", "delta"],
)
def test_a_mine_never_walks_the_rows(backend, partitions, random_db):
    """The k bound equals the walk's, and a mine calls the walk zero
    times."""
    expected = min(
        len(random_db.taxonomy.nodes_at_level(1)),
        random_db.width_at_level(1),
    )
    thresholds = Thresholds(gamma=0.3, epsilon=0.1, min_support=1)
    walk = mock.patch.object(
        TransactionDatabase,
        "width_at_level",
        autospec=True,
        side_effect=TransactionDatabase.width_at_level,
    )
    with walk as walked, FlipperMiner(
        random_db, thresholds, backend=backend, partitions=partitions
    ) as miner:
        miner.mine()
        assert miner._k_bound() == expected
    assert walked.call_count == 0
