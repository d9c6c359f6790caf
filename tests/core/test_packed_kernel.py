"""The packed-word bitmap kernel against the pure-Python reference.

:class:`~repro.core.counting.BitmapBackend` counts over ``uint64``
word planes; :class:`~repro.data.vertical.VerticalIndex` counts the
same supports with Python bigints and shares no code with it.  Every
way a bitmap backend comes to exist — built from an in-memory
database, built from a columnar shard, admitted from a persisted
image — must count exactly like the reference, at row counts on both
sides of a word boundary and with batches that span several kernel
blocks.  The image bytes themselves are pinned: stores written before
the word planes existed keep their images.  The ``supports`` contract
(malformed batches raise) holds on every backend.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counting
from repro.core.counting import (
    BitmapBackend,
    DeltaCounter,
    HorizontalBackend,
    ShardBackendPool,
)
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.data.vertical import VerticalIndex
from repro.errors import DataError
from repro.taxonomy.tree import Taxonomy

from tests.conftest import taxonomy_trees

#: 1 row, a word short of full, exactly one word, one bit into the
#: second word; the image byte widths are 1, 8, 8 and 9
ROW_COUNTS = (1, 63, 64, 65)
#: kernel block sizes: one itemset per block, a few per block, and
#: the real constant (a whole small batch in one block)
BLOCK_BYTES = (8, 40, counting._BLOCK_BYTES)


def _rows(leaves: list[str], seed: int, n: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        rng.sample(leaves, rng.randint(1, min(4, len(leaves))))
        for _ in range(n)
    ]


def _database(
    taxonomy: Taxonomy, n_rows: int, seed: int
) -> TransactionDatabase:
    leaves = [taxonomy.name_of(item) for item in taxonomy.item_ids]
    return TransactionDatabase(_rows(leaves, seed, n_rows), taxonomy)


def _three_backends(
    database: TransactionDatabase, directory: Path
) -> dict[str, BitmapBackend]:
    """The backend built in memory, the one a pool builds from a
    one-shard columnar store, and the one a second pool admits from
    the image the first pool saved."""
    store = ShardedTransactionStore.partition_database(database, directory, 1)
    cold = ShardBackendPool(store)
    columnar = cold.backend(0)
    assert cold.save_images() == 1
    warm = ShardBackendPool(store)
    imaged = warm.backend(0)
    assert warm.image_admits == 1 and warm.rebuilds == 0
    return {
        "memory": BitmapBackend(database),
        "columnar": columnar,
        "image": imaged,
    }


def _by_size(batch: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The batch's itemsets as one row matrix per itemset size, each
    in batch order."""
    sizes = sorted({len(itemset) for itemset in batch})
    return [
        np.array([i for i in batch if len(i) == size], dtype=np.int64)
        for size in sizes
    ]


def _dirty_heap(nbytes: int) -> None:
    """Free a 0xFF-filled buffer of ``nbytes``, so that an allocation
    of that size which is not cleared holds set bits."""
    np.full(nbytes, 0xFF, dtype=np.uint8)


def _batch(data, nodes: list[int]) -> list[tuple[int, ...]]:
    """Itemsets of 2-4 distinct nodes (one size or mixed), with
    repeats of earlier itemsets mixed in."""
    top = min(4, len(nodes))
    if data.draw(st.booleans(), label="one size"):
        size = data.draw(st.integers(2, top), label="size")
        sizes = {"min_size": size, "max_size": size}
    else:
        sizes = {"min_size": 2, "max_size": top}
    itemsets = st.lists(st.sampled_from(nodes), unique=True, **sizes)
    batch = data.draw(st.lists(itemsets.map(tuple), min_size=1, max_size=30))
    repeats = data.draw(st.lists(st.sampled_from(batch), max_size=5))
    return batch + repeats


@given(
    tree=taxonomy_trees(),
    n_rows=st.sampled_from(ROW_COUNTS),
    seed=st.integers(0, 9999),
    block_bytes=st.sampled_from(BLOCK_BYTES),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_packed_kernel_equals_bigint_reference(
    tree, n_rows, seed, block_bytes, data
):
    database = _database(Taxonomy.from_dict(tree[0]), n_rows, seed)
    taxonomy = database.taxonomy
    reference = VerticalIndex(database)
    patch = mock.patch.object(counting, "_BLOCK_BYTES", block_bytes)
    with tempfile.TemporaryDirectory() as tmp, patch:
        backends = _three_backends(database, Path(tmp))
        batches = {
            level: _batch(data, taxonomy.nodes_at_level(level))
            for level in range(1, taxonomy.height + 1)
            if len(taxonomy.nodes_at_level(level)) >= 2
        }
        n_words = (n_rows + 63) // 64
        for name, backend in backends.items():
            for level in range(1, taxonomy.height + 1):
                nodes = reference.node_supports(level)
                # an image admit makes its padded word plane right here
                _dirty_heap(len(nodes) * n_words * 8)
                assert backend.node_supports(level) == nodes, (name, level)
            for level, batch in batches.items():
                # a batch holds one itemset size: one call per size
                for rows in _by_size(batch):
                    counts = backend.supports(level, rows)
                    expected = [
                        reference.support(level, tuple(itemset))
                        for itemset in rows.tolist()
                    ]
                    assert counts.tolist() == expected, (name, level)


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_image_admit_views_words_in_place_when_width_allows(
    n_rows, grocery_taxonomy, tmp_path
):
    """A plane whose byte width is a multiple of 8 is counted straight
    from the mapped image; any other is copied once, zero-padded."""
    database = _database(grocery_taxonomy, n_rows, seed=n_rows)
    imaged = _three_backends(database, tmp_path)["image"]
    in_place = (n_rows + 7) // 8 % 8 == 0
    for level in range(1, grocery_taxonomy.height + 1):
        plane = imaged._plane(level)
        assert plane.shape[1] == (n_rows + 63) // 64
        assert plane.flags.owndata is not in_place
        assert plane.flags.writeable is not in_place


def test_batch_spanning_several_real_blocks(grocery_taxonomy, tmp_path):
    """At 70,000 rows a 256 KiB block holds 29 itemsets, so a batch of
    100 itemsets spans four blocks, the last one partial; one batch
    per itemset size."""
    database = _database(grocery_taxonomy, 70_000, seed=3)
    reference = VerticalIndex(database)
    n_words = (70_000 + 63) // 64
    assert 100 > 3 * (counting._BLOCK_BYTES // (8 * n_words))
    rng = random.Random(11)
    for name, backend in _three_backends(database, tmp_path).items():
        for level in (2, 3):
            nodes = grocery_taxonomy.nodes_at_level(level)
            for size in (2, 3, 4):
                batch = [
                    tuple(sorted(rng.sample(nodes, size)))
                    for _ in range(100)
                ]
                expected = [
                    reference.support(level, itemset) for itemset in batch
                ]
                counts = backend.supports(level, np.array(batch))
                assert counts.tolist() == expected, (name, level, size)


class TestSupportsContract:
    """ARCHITECTURE.md's "Counting" contract: an empty itemset, an
    unknown level, a node off the level or unknown, and a batch that
    is not an integer matrix raise :class:`DataError`.  Here on the
    bitmap backend; :class:`TestSupportsContractOnEveryBackend` runs
    the same tests on the other three."""

    @pytest.fixture
    def backend(self, example3_db):
        return BitmapBackend(example3_db)

    def test_node_not_at_level_rejected(self, backend, example3_db):
        leaf = example3_db.taxonomy.node_by_name("a11").node_id
        top = example3_db.taxonomy.nodes_at_level(1)
        with pytest.raises(DataError, match="not at taxonomy level 1"):
            backend.supports(1, np.array([tuple(top), (top[0], leaf)]))

    @pytest.mark.parametrize("node_id", [-1, 10**6])
    def test_unknown_node_id_rejected(self, backend, node_id):
        with pytest.raises(DataError, match=f"node {node_id} "):
            backend.supports(2, np.array([(node_id, node_id)]))

    def test_empty_itemset_rejected(self, backend, example3_db):
        with pytest.raises(DataError, match="empty itemset"):
            backend.supports(1, np.zeros((1, 0), dtype=np.int64))

    def test_unknown_level_rejected(self, backend, example3_db):
        top = tuple(example3_db.taxonomy.nodes_at_level(1))
        scans = backend.scans
        with pytest.raises(DataError, match="no taxonomy level 9"):
            backend.supports(9, np.array([top]))
        assert backend.scans == scans

    @pytest.mark.parametrize("method", ["node_supports", "width_at_level"])
    @pytest.mark.parametrize(
        "level", [0, -1, None], ids=["0", "-1", "height+1"]
    )
    def test_level_out_of_range_rejected_before_any_scan(
        self, backend, example3_db, method, level
    ):
        if level is None:
            level = example3_db.taxonomy.height + 1
        scans = backend.scans
        with pytest.raises(
            DataError, match=f"^no taxonomy level {level} in this index$"
        ):
            getattr(backend, method)(level)
        assert backend.scans == scans

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 2)],
            np.array([1, 2]),
            np.array([[[1, 2]]]),
            np.array([[1.0, 2.0]]),
        ],
        ids=["list", "1-d", "3-d", "float"],
    )
    def test_rows_must_be_an_integer_matrix(self, backend, rows):
        with pytest.raises(DataError, match="integer matrix"):
            backend.supports(1, rows)


class TestSupportsContractOnEveryBackend(TestSupportsContract):
    """The horizontal backend, and a :class:`DeltaCounter` over two
    shards with either inner, keep the contract too: the horizontal
    backend is the oracle of the bitmap arithmetic, so a malformed
    batch must not come back from it as a plausible count."""

    @pytest.fixture(params=["horizontal", "delta-bitmap", "delta-horizontal"])
    def backend(self, request, example3_db, tmp_path):
        if request.param == "horizontal":
            return HorizontalBackend(example3_db)
        store = ShardedTransactionStore.partition_database(
            example3_db, tmp_path, 2
        )
        return DeltaCounter(store, inner=request.param.split("-")[1])


def test_foreign_item_id_rejected(example3_db):
    bogus = max(example3_db.item_ids) + 999
    example3_db._transactions[3] = example3_db._transactions[3] + (bogus,)
    message = f"transaction 3: item id {bogus}"
    with pytest.raises(DataError, match=message):
        BitmapBackend(example3_db)


# ---------------------------------------------------------------------------
# the FLIPIMG1 bytes do not change
# ---------------------------------------------------------------------------

#: SHA-256 of the three images ``pool.save_images()`` writes for
#: ``generate_synthetic(bench_config(n_transactions=1001))`` in three
#: shards, as written by the bigint bitsets the word planes replaced
PINNED_IMAGE_SHA256 = (
    "8a034081e7fcc57da5cba7c19a84eb75aa9c6914106d40a3254215b19685f389",
    "d5bc46a62874a9066bc1625206a266ed1525b83e638bda80bef7eca02a0f2bf0",
    "439c572e708e00cd8b3e53382a1dcb75be197ee26032ceaa57cb922ee7ae3b82",
)


@pytest.fixture(scope="module")
def synthetic_1001():
    from repro.bench.profiles import bench_config
    from repro.datasets.synthetic import generate_synthetic

    return generate_synthetic(bench_config(n_transactions=1001))


@pytest.fixture
def imaged_store(synthetic_1001, tmp_path):
    store = ShardedTransactionStore.partition_database(
        synthetic_1001, tmp_path, 3
    )
    pool = ShardBackendPool(store)
    for index in range(store.n_shards):
        pool.backend(index)
    assert pool.save_images() == 3
    return store


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestImageFormatUnchanged:
    def test_save_writes_the_pinned_bytes(self, imaged_store):
        from repro.data.columnar import read_backend_image

        for index, pinned in enumerate(PINNED_IMAGE_SHA256):
            path = imaged_store.image_path(index, "bitmap")
            assert path.stat().st_size == 60_992
            assert _sha256(path) == pinned
            _, arrays = read_backend_image(path)
            assert {plane.shape[1] for plane in arrays} == {42}

    def test_pinned_images_admit_and_count_like_reference(
        self, imaged_store, synthetic_1001
    ):
        for index, pinned in enumerate(PINNED_IMAGE_SHA256):
            assert _sha256(imaged_store.image_path(index, "bitmap")) == pinned
        pool = ShardBackendPool(imaged_store)
        backends = [pool.backend(index) for index in range(3)]
        assert pool.image_admits == 3
        assert pool.rebuilds == 0
        assert pool.scans == 0
        reference = VerticalIndex(synthetic_1001)
        taxonomy = synthetic_1001.taxonomy
        rng = random.Random(5)
        for level in range(1, taxonomy.height + 1):
            merged = dict.fromkeys(taxonomy.nodes_at_level(level), 0)
            for backend in backends:
                for node_id, count in backend.node_supports(level).items():
                    merged[node_id] += count
            assert merged == reference.node_supports(level)
            nodes = taxonomy.nodes_at_level(level)
            batch = [
                tuple(sorted(rng.sample(nodes, rng.choice((2, 3)))))
                for _ in range(200)
            ]
            for rows in _by_size(batch):
                totals = np.zeros(len(rows), dtype=np.int64)
                for backend in backends:
                    totals += backend.supports(level, rows)
                assert totals.tolist() == [
                    reference.support(level, tuple(itemset))
                    for itemset in rows.tolist()
                ]
