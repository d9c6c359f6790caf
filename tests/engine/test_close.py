"""Miners remove the temporary shard stores they create.

:class:`~repro.core.flipper.FlipperMiner` (``partitions=N``, or
``sample_rate`` on an in-memory database),
:class:`~repro.engine.incremental.IncrementalMiner` and
:class:`~repro.approx.miner.ApproxMiner` materialize an in-memory
database as shards in a temporary directory.  ``close()`` (or leaving
a ``with`` block) removes it, a second ``close()`` does nothing, and
a store or shard directory the caller supplied is never touched.
"""

from __future__ import annotations

import tempfile

import pytest

from repro import FlipperMiner, mine_flipping_patterns
from repro.approx import ApproxMiner, mine_approximate
from repro.data.shards import ShardedTransactionStore
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.engine.incremental import IncrementalMiner

MINERS = {
    "partitions": lambda db: FlipperMiner(
        db, GROCERIES_THRESHOLDS, partitions=2
    ),
    "sample_rate": lambda db: FlipperMiner(
        db, GROCERIES_THRESHOLDS, sample_rate=0.5
    ),
    "incremental": lambda db: IncrementalMiner(db, GROCERIES_THRESHOLDS),
    "approx": lambda db: ApproxMiner(
        db, GROCERIES_THRESHOLDS, sample_rate=0.5
    ),
}


@pytest.fixture(scope="module")
def groceries():
    return generate_groceries(scale=0.1)


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """Point the tempfile module at an empty directory of our own."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def test_facades_leave_no_directory_behind(groceries, temp_root):
    mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS, partitions=2)
    mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS, sample_rate=0.5)
    mine_approximate(groceries, GROCERIES_THRESHOLDS, sample_rate=0.5)
    assert list(temp_root.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(MINERS))
def test_close_removes_the_miners_own_directory(groceries, temp_root, kind):
    miner = MINERS[kind](groceries)
    assert len(list(temp_root.iterdir())) == 1
    miner.mine()
    miner.close()
    assert list(temp_root.iterdir()) == []
    miner.close()  # a second close is harmless
    assert list(temp_root.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(MINERS))
def test_with_block_closes(groceries, temp_root, kind):
    with MINERS[kind](groceries) as miner:
        miner.mine()
    assert list(temp_root.iterdir()) == []


def test_close_leaves_a_callers_store(groceries, tmp_path):
    store = ShardedTransactionStore.partition_database(
        groceries, tmp_path / "store", 2
    )
    expected = mine_flipping_patterns(store, GROCERIES_THRESHOLDS).patterns
    for make in (
        lambda: FlipperMiner(store, GROCERIES_THRESHOLDS),
        lambda: IncrementalMiner(store, GROCERIES_THRESHOLDS),
        lambda: ApproxMiner(store, GROCERIES_THRESHOLDS, sample_rate=0.5),
    ):
        with make() as miner:
            miner.mine()
        miner.close()
        assert (tmp_path / "store" / "manifest.json").is_file()
    assert mine_flipping_patterns(store, GROCERIES_THRESHOLDS).patterns == (
        expected
    )


def test_close_leaves_a_callers_shard_dir(groceries, tmp_path):
    shard_dir = tmp_path / "shards"
    with FlipperMiner(
        groceries, GROCERIES_THRESHOLDS, partitions=2, shard_dir=shard_dir
    ) as miner:
        miner.mine()
    assert (shard_dir / "manifest.json").is_file()
