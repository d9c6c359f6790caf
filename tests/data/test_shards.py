"""Unit tests for the sharded on-disk transaction store."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.core.counting import ShardBackendPool
from repro.data.columnar import write_columnar_shard
from repro.data.database import TransactionDatabase
from repro.data.shards import (
    ShardedTransactionStore,
    estimate_transaction_bytes,
)
from repro.errors import DataError


def _reference_columnar(rows):
    """The ``FLIPCOL1`` bytes of ``rows`` as the name-by-name writer
    laid them out: local ids in first-occurrence order, a compact
    sorted-key JSON header, the header and the offsets padded to 64
    bytes."""
    table: dict[str, int] = {}
    encoded = [
        [table.setdefault(name, len(table)) for name in row] for row in rows
    ]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in encoded], out=offsets[1:])
    items = np.array(
        [local for row in encoded for local in row], dtype=np.int32
    )
    header = json.dumps(
        {
            "format": 1,
            "item_names": list(table),
            "n_rows": len(rows),
            "n_values": int(offsets[-1]),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()

    def padded(raw):
        return raw + b"\x00" * (-len(raw) % 64)

    head = b"FLIPCOL1" + len(header).to_bytes(4, "little") + header
    return padded(head) + padded(offsets.tobytes()) + items.tobytes()


def _hand_written_manifest(directory, shards, sizes):
    """A version-1 manifest naming ``shards``, written by hand."""
    (directory / "manifest.json").write_text(
        json.dumps(
            {
                "version": 1,
                "shards": shards,
                "shard_sizes": sizes,
                "n_transactions": sum(sizes),
            }
        ),
        encoding="utf-8",
    )


NOT_A_ROW = "expected a list of item names, got"

#: malformed rows and the message naming the first bad one (after
#: "delta transaction " from append_batch, "transaction " from ingest)
MALFORMED = [
    ([("milk",), None], f"1: {NOT_A_ROW} NoneType"),
    ([("milk",), "milk"], f"1: {NOT_A_ROW} str"),
    ([b"milk"], f"0: {NOT_A_ROW} bytes"),
    ([{"milk": 1}], f"0: {NOT_A_ROW} dict"),
    ([("milk",), 7], f"1: {NOT_A_ROW} int"),
    ([("milk", 1)], "0: item 1 is not a string"),
    ([("cola",), ("milk", None)], "1: item None is not a string"),
    ([("milk", b"cola")], "0: item b'cola' is not a string"),
    ([("milk", ["cola"])], "0: item ['cola'] is not a string"),
]

#: a delta with repeated names and empty rows
DELTA = [
    ("milk", "cola", "milk"),
    (),
    ("apples", "milk"),
    ("cola",),
    (),
    ("apples", "apples"),
]


class TestPartitionDatabase:
    def test_round_trips_all_transactions(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 4
        )
        assert store.n_shards == 4
        assert store.n_transactions == random_db.n_transactions
        assert sum(store.shard_sizes) == random_db.n_transactions
        rebuilt = store.to_database()
        assert list(rebuilt) == list(random_db)

    def test_shards_are_contiguous_and_near_equal(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        sizes = store.shard_sizes
        assert max(sizes) - min(sizes) <= 1
        # contiguity: concatenated shard rows == original order
        rows = []
        for index in range(store.n_shards):
            rows.extend(store.shard_transactions(index))
        expected = [
            random_db.transaction_names(i)
            for i in range(random_db.n_transactions)
        ]
        assert rows == expected

    def test_more_shards_than_transactions(self, example3_db, tmp_path):
        n = example3_db.n_transactions
        store = ShardedTransactionStore.partition_database(
            example3_db, tmp_path, n + 5
        )
        assert store.n_shards == n + 5
        assert store.shard_sizes.count(0) == 5
        assert store.shard_database(store.n_shards - 1) is None
        assert store.shard_transactions(store.n_shards - 1) == []

    def test_single_transaction_shards(self, example3_db, tmp_path):
        n = example3_db.n_transactions
        store = ShardedTransactionStore.partition_database(
            example3_db, tmp_path, n
        )
        assert store.shard_sizes == [1] * n
        db = store.shard_database(0)
        assert db is not None and db.n_transactions == 1

    def test_rejects_bad_shard_count(self, example3_db, tmp_path):
        with pytest.raises(DataError, match="n_shards"):
            ShardedTransactionStore.partition_database(
                example3_db, tmp_path, 0
            )

    def test_shard_databases_share_balanced_taxonomy(
        self, random_db, tmp_path
    ):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        for _index, db in store.iter_shard_databases():
            assert db is not None
            assert db.taxonomy is store.taxonomy


class TestIngest:
    def test_rows_per_shard_cut(self, grocery_taxonomy, tmp_path):
        rows = [["cola"], ["milk", "soap"], ["apples"], ["cola", "milk"]]
        store = ShardedTransactionStore.ingest(
            rows, grocery_taxonomy, tmp_path, rows_per_shard=3
        )
        assert store.shard_sizes == [3, 1]
        assert store.to_database().n_transactions == 4

    def test_memory_budget_cut(self, grocery_taxonomy, tmp_path):
        rows = [["cola", "milk"] for _ in range(100)]
        per_row = estimate_transaction_bytes(rows[0])
        budget_mb = (per_row * 10) / (1024 * 1024)
        store = ShardedTransactionStore.ingest(
            rows, grocery_taxonomy, tmp_path, memory_budget_mb=budget_mb
        )
        assert store.n_shards == 10
        assert all(size == 10 for size in store.shard_sizes)

    def test_unbounded_ingest_is_one_shard(self, grocery_taxonomy, tmp_path):
        rows = [["cola"], ["milk"]]
        store = ShardedTransactionStore.ingest(
            rows, grocery_taxonomy, tmp_path
        )
        assert store.n_shards == 1

    def test_empty_stream_rejected(self, grocery_taxonomy, tmp_path):
        with pytest.raises(DataError, match="empty"):
            ShardedTransactionStore.ingest([], grocery_taxonomy, tmp_path)

    def test_bad_bounds_rejected(self, grocery_taxonomy, tmp_path):
        with pytest.raises(DataError, match="rows_per_shard"):
            ShardedTransactionStore.ingest(
                [["cola"]], grocery_taxonomy, tmp_path, rows_per_shard=0
            )
        with pytest.raises(DataError, match="memory_budget_mb"):
            ShardedTransactionStore.ingest(
                [["cola"]], grocery_taxonomy, tmp_path, memory_budget_mb=0
            )

    @pytest.mark.parametrize(
        "rows, message",
        [
            *MALFORMED,
            (
                [("milk",), ("milk", "no-such-item")],
                "1: unknown item 'no-such-item'",
            ),
        ],
    )
    def test_malformed_rows_rejected(
        self, grocery_taxonomy, tmp_path, rows, message
    ):
        with pytest.raises(DataError) as raised:
            ShardedTransactionStore.ingest(rows, grocery_taxonomy, tmp_path)
        assert str(raised.value) == f"transaction {message}"
        assert not (tmp_path / "manifest.json").exists()

    def test_rows_of_any_iterable_are_accepted(
        self, grocery_taxonomy, tmp_path
    ):
        store = ShardedTransactionStore.ingest(
            iter([iter(["milk", "cola"]), ("apples",), ["milk"]]),
            grocery_taxonomy,
            tmp_path,
            rows_per_shard=2,
        )
        assert store.shard_transactions(0) == [("milk", "cola"), ("apples",)]
        assert store.shard_transactions(1) == [("milk",)]

    def test_writes_what_partition_database_writes(self, random_db, tmp_path):
        """The same rows cut the same way give byte-identical shards,
        manifest and widths, whichever writer wrote them."""
        partitioned = ShardedTransactionStore.partition_database(
            random_db, tmp_path / "partitioned", 4
        )
        rows = [random_db.transaction_names(i) for i in range(len(random_db))]
        ingested = ShardedTransactionStore.ingest(
            rows,
            random_db.taxonomy,
            tmp_path / "ingested",
            rows_per_shard=partitioned.shard_sizes[0],
        )
        assert ingested.shard_sizes == partitioned.shard_sizes
        for name in ["manifest.json"] + [
            partitioned.shard_path(index).name
            for index in range(partitioned.n_shards)
        ]:
            assert (tmp_path / "ingested" / name).read_bytes() == (
                tmp_path / "partitioned" / name
            ).read_bytes(), name
        levels = range(1, random_db.taxonomy.height + 1)
        assert [ingested.width_at_level(level) for level in levels] == [
            partitioned.width_at_level(level) for level in levels
        ]

    def test_bad_row_named_by_stream_position(
        self, grocery_taxonomy, tmp_path
    ):
        rows = [("milk",), ("cola",), ("apples",), ("milk", "no-such-item")]
        with pytest.raises(DataError, match="^transaction 3: unknown item"):
            ShardedTransactionStore.ingest(
                rows, grocery_taxonomy, tmp_path, rows_per_shard=2
            )
        assert not (tmp_path / "manifest.json").exists()

    def test_failed_ingest_removes_the_shards_it_wrote(
        self, example3_tax, tmp_path
    ):
        # the first shard is cut before the bad row is read
        (tmp_path / "notes.txt").write_text("not ours")
        rows = [["a11"], ["b11"], ["a12"], ["nope"]]
        with pytest.raises(
            DataError, match="^transaction 3: unknown item 'nope'$"
        ):
            ShardedTransactionStore.ingest(
                rows, example3_tax, tmp_path, rows_per_shard=2
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]


class TestOpenAndManifest:
    def test_reopen_sees_same_data(self, random_db, tmp_path):
        created = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        reopened = ShardedTransactionStore.open(tmp_path, random_db.taxonomy)
        assert reopened.n_shards == created.n_shards
        assert reopened.shard_sizes == created.shard_sizes
        assert list(reopened.to_database()) == list(random_db)

    def test_missing_manifest_rejected(self, random_db, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            ShardedTransactionStore.open(tmp_path, random_db.taxonomy)

    def test_corrupt_counts_rejected(self, random_db, tmp_path):
        ShardedTransactionStore.partition_database(random_db, tmp_path, 2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n_transactions"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="count"):
            ShardedTransactionStore.open(tmp_path, random_db.taxonomy)

    def test_missing_shard_file_rejected(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        store.shard_path(1).unlink()
        with pytest.raises(DataError, match="missing shard"):
            ShardedTransactionStore.open(tmp_path, random_db.taxonomy)


class TestShapeQueries:
    def test_width_at_level_matches_database(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        height = random_db.taxonomy.height
        for level in range(1, height + 1):
            assert store.width_at_level(level) == random_db.width_at_level(
                level
            )

    def test_describe_mentions_shards(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        assert "2 shard(s)" in store.describe()

    def test_unbalanced_taxonomy_rebalanced_consistently(self, tmp_path):
        from repro.taxonomy.tree import Taxonomy

        unbalanced = Taxonomy.from_dict(
            {"a": {"a1": ["a11", "a12"]}, "b": ["b1"]}
        )
        database = TransactionDatabase(
            [["a11", "b1"], ["a12"], ["b1"]], unbalanced
        )
        store = ShardedTransactionStore.partition_database(
            database, tmp_path, 2
        )
        assert store.taxonomy.is_balanced
        assert list(store.to_database()) == list(database)


class TestFormats:
    def test_default_format_is_columnar(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        assert all(
            store.shard_path(index).suffix == ".col"
            for index in range(store.n_shards)
        )

    def test_transactions_at_matches_full_read(self, random_db, tmp_path):
        """Random row access (the sampler's path) agrees with the
        full decode."""
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        for index in range(store.n_shards):
            rows = store.shard_transactions(index)
            picks = list(range(0, len(rows), 2))
            assert store.shard_transactions_at(index, picks) == [
                rows[row] for row in picks
            ]
        assert store.shard_transactions_at(0, []) == []

    def test_unknown_format_rejected(self, grocery_taxonomy, tmp_path):
        (tmp_path / "shard-00000.parquet").write_bytes(b"PAR1")
        _hand_written_manifest(tmp_path, ["shard-00000.parquet"], [1])
        manifest = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(DataError) as raised:
            ShardedTransactionStore.open(tmp_path, grocery_taxonomy)
        assert str(raised.value).startswith(
            "shard file shard-00000.parquet is not a columnar (.col) shard"
        )
        assert (tmp_path / "manifest.json").read_bytes() == manifest

    def test_open_with_format_filter(self, grocery_taxonomy, tmp_path):
        """One jsonl shard among columnar ones (a legacy store grown by
        columnar delta shards) refuses the whole store, naming only the
        jsonl shard."""
        (tmp_path / "shard-00000.jsonl").write_text(
            '["milk", "cola"]\n', encoding="utf-8"
        )
        write_columnar_shard(tmp_path / "shard-00001.col", [("apples",)])
        _hand_written_manifest(
            tmp_path, ["shard-00000.jsonl", "shard-00001.col"], [1, 1]
        )
        with pytest.raises(DataError, match="columnar") as raised:
            ShardedTransactionStore.open(tmp_path, grocery_taxonomy)
        assert "shard-00000.jsonl" in str(raised.value)
        assert "shard-00001.col" not in str(raised.value)

    def test_describe_reports_bytes_and_images(self, random_db, tmp_path):
        from repro.core.counting import ShardBackendPool

        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        pool = ShardBackendPool(store)
        for index in range(store.n_shards):
            pool.backend(index)
        pool.save_images()
        text = store.describe()
        assert "2 shard(s)" in text
        assert "bytes" in text
        assert "images: bitmap" in text
        assert store.image_bytes(0) > 0
        assert store.shard_images(0) == ["bitmap"]


class TestLegacyStore:
    """A manifest naming a jsonl shard is refused, and nothing on disk
    changes."""

    @pytest.fixture
    def legacy(self, grocery_taxonomy, tmp_path):
        (tmp_path / "shard-00000.jsonl").write_text(
            '["milk", "cola"]\n["apples"]\n', encoding="utf-8"
        )
        _hand_written_manifest(tmp_path, ["shard-00000.jsonl"], [2])
        return tmp_path

    def test_open_refuses_and_names_the_file(self, legacy, grocery_taxonomy):
        manifest = (legacy / "manifest.json").read_bytes()
        files = sorted(path.name for path in legacy.iterdir())
        with pytest.raises(DataError) as raised:
            ShardedTransactionStore.open(legacy, grocery_taxonomy)
        message = str(raised.value)
        assert "shard-00000.jsonl" in message
        assert "jsonl shard encoding is no longer read" in message
        assert "repro store migrate --to columnar" in message
        assert (legacy / "manifest.json").read_bytes() == manifest
        assert sorted(path.name for path in legacy.iterdir()) == files


class TestAppendBatch:
    def test_appends_new_shard_and_extends_manifest(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        delta = [random_db.transaction_names(index) for index in range(20)]
        new = store.append_batch(delta)
        assert new == [3]
        assert store.n_shards == 4
        assert store.n_transactions == random_db.n_transactions + 20
        manifest = json.loads(
            (tmp_path / "manifest.json").read_text(encoding="utf-8")
        )
        assert len(manifest["shards"]) == 4
        assert manifest["n_transactions"] == store.n_transactions
        assert store.shard_transactions(3) == [tuple(t) for t in delta]

    def test_existing_shard_files_are_untouched(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        before = [store.shard_path(index).read_bytes() for index in range(2)]
        store.append_batch([("milk", "cola")])
        after = [store.shard_path(index).read_bytes() for index in range(2)]
        assert before == after

    def test_rows_per_shard_splits_the_delta(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        delta = [random_db.transaction_names(index) for index in range(25)]
        new = store.append_batch(delta, rows_per_shard=10)
        assert new == [2, 3, 4]
        assert store.shard_sizes[2:] == [10, 10, 5]

    def test_empty_batch_is_a_noop(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        assert store.append_batch([]) == []
        assert store.n_shards == 2

    def test_unknown_item_rejected_before_writing(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        before = store.n_shards
        with pytest.raises(DataError, match="delta transaction 1"):
            store.append_batch([("milk",), ("milk", "no-such-item")])
        assert store.n_shards == before
        manifest = json.loads(
            (tmp_path / "manifest.json").read_text(encoding="utf-8")
        )
        assert len(manifest["shards"]) == before

    def test_reopened_store_sees_the_delta(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        store.append_batch([("milk", "cola"), ("apples",)])
        reopened = ShardedTransactionStore.open(tmp_path, random_db.taxonomy)
        assert reopened.n_transactions == store.n_transactions
        assert reopened.shard_sizes == store.shard_sizes

    def test_width_cache_stays_exact_after_append(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        width_before = store.width_at_level(1)  # populates the cache
        assert width_before == random_db.width_at_level(1)
        wide = tuple(
            random_db.taxonomy.name_of(item)
            for item in random_db.taxonomy.item_ids
        )
        store.append_batch([wide])
        assert store.width_at_level(1) == store.to_database().width_at_level(1)

    def test_invalid_rows_per_shard(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        with pytest.raises(DataError, match="rows_per_shard"):
            store.append_batch([("milk",)], rows_per_shard=0)

    @pytest.mark.parametrize("delta, message", MALFORMED)
    def test_malformed_delta_rejected_before_writing(
        self, random_db, tmp_path, delta, message
    ):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        manifest = (tmp_path / "manifest.json").read_bytes()
        files = sorted(path.name for path in tmp_path.iterdir())
        with pytest.raises(DataError) as raised:
            store.append_batch(delta)
        assert str(raised.value) == f"delta transaction {message}"
        assert store.n_shards == 2
        assert (tmp_path / "manifest.json").read_bytes() == manifest
        assert sorted(path.name for path in tmp_path.iterdir()) == files

    def test_rows_of_any_iterable_are_accepted(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        store.append_batch(iter([iter(["milk", "cola"]), ("apples",)]))
        assert store.shard_transactions(2) == [("milk", "cola"), ("apples",)]


class TestWidths:
    """Per-shard widths: stamped on write, kept across retirements."""

    def _levels(self, store):
        return range(1, store.taxonomy.height + 1)

    def test_retire_reads_no_surviving_shard(
        self, random_db, tmp_path, monkeypatch
    ):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 4
        )
        store.append_batch(DELTA)
        for level in self._levels(store):
            store.width_at_level(level)
        store.retire_shards([0, 2])

        def no_read(*args, **kwargs):
            raise AssertionError("a width query read a shard")

        monkeypatch.setattr(store, "columnar_reader", no_read)
        monkeypatch.setattr(store, "shard_transactions", no_read)
        widths = [store.width_at_level(level) for level in self._levels(store)]
        monkeypatch.undo()
        expected = store.to_database()
        assert widths == [
            expected.width_at_level(level) for level in self._levels(store)
        ]

    def test_reopened_store_measures_each_shard_once(
        self, random_db, tmp_path, monkeypatch
    ):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        store.append_batch(DELTA, rows_per_shard=4)
        reopened = ShardedTransactionStore.open(tmp_path, random_db.taxonomy)
        reads: Counter[int] = Counter()
        reader = reopened.columnar_reader

        def counted(index):
            reads[index] += 1
            return reader(index)

        monkeypatch.setattr(reopened, "columnar_reader", counted)
        for _ in range(2):
            widths = [
                reopened.width_at_level(level) for level in self._levels(store)
            ]
        assert reads == {index: 1 for index in range(reopened.n_shards)}
        assert widths == [
            store.width_at_level(level) for level in self._levels(store)
        ]

    def test_ingested_store_reads_no_shard(
        self, random_db, tmp_path, monkeypatch
    ):
        rows = [random_db.transaction_names(i) for i in range(len(random_db))]
        store = ShardedTransactionStore.ingest(
            rows, random_db.taxonomy, tmp_path, rows_per_shard=40
        )
        assert store.n_shards > 1

        def no_read(*args, **kwargs):
            raise AssertionError("a width query read a shard")

        monkeypatch.setattr(store, "columnar_reader", no_read)
        monkeypatch.setattr(store, "shard_transactions", no_read)
        levels = self._levels(store)
        widths = [store.width_at_level(level) for level in levels]
        monkeypatch.undo()
        assert widths == [random_db.width_at_level(level) for level in levels]


class TestDeltaShardBytes:
    """Encoded delta shards keep the bytes of the name-by-name writer."""

    def test_columnar_delta_with_splits(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        new = store.append_batch(DELTA, rows_per_shard=4)
        written = [store.shard_path(index).read_bytes() for index in new]
        assert written == [
            _reference_columnar(DELTA[:4]),
            _reference_columnar(DELTA[4:]),
        ]

    def test_ingested_shards_with_splits(self, grocery_taxonomy, tmp_path):
        store = ShardedTransactionStore.ingest(
            DELTA, grocery_taxonomy, tmp_path, rows_per_shard=4
        )
        written = [
            store.shard_path(index).read_bytes()
            for index in range(store.n_shards)
        ]
        assert written == [
            _reference_columnar(DELTA[:4]),
            _reference_columnar(DELTA[4:]),
        ]

    def test_partitioned_shards(self, random_db, tmp_path):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 3
        )
        start = 0
        for index, size in enumerate(store.shard_sizes):
            rows = [
                random_db.transaction_names(row)
                for row in range(start, start + size)
            ]
            expected = _reference_columnar(rows)
            assert store.shard_path(index).read_bytes() == expected
            start += size

    def test_write_columnar_shard(self, tmp_path):
        path = tmp_path / "rows.col"
        write_columnar_shard(path, DELTA)
        assert path.read_bytes() == _reference_columnar(DELTA)

    def test_backend_image_still_admitted_after_append(
        self, random_db, tmp_path
    ):
        store = ShardedTransactionStore.partition_database(
            random_db, tmp_path, 2
        )
        pool = ShardBackendPool(store)
        for _ in pool.iter_backends():
            pass
        assert pool.save_images() == 2
        store.append_batch(DELTA)
        reopened = ShardedTransactionStore.open(tmp_path, random_db.taxonomy)
        fresh = ShardBackendPool(reopened)
        for index in range(2):
            fresh.backend(index)
        assert fresh.image_admits == 2
