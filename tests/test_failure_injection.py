"""Failure injection: the library must fail loudly and specifically.

Every user-facing entry point is fed malformed input; the assertion is
always twofold — the right exception type, and a message that names
the actual problem (not a bare KeyError three frames deep).
"""

from __future__ import annotations

import pytest

from repro import (
    FlipperMiner,
    PruningConfig,
    Taxonomy,
    Thresholds,
    TransactionDatabase,
    mine_flipping_patterns,
)
from repro.errors import ConfigError, DataError, ReproError, TaxonomyError


@pytest.fixture
def flat_taxonomy():
    return Taxonomy.from_dict({"x": None, "y": None})


@pytest.fixture
def small_db(example3_tax):
    return TransactionDatabase([["a11", "b11"]], example3_tax)


class TestTaxonomyFailures:
    def test_flat_taxonomy_cannot_flip(self, flat_taxonomy):
        database = TransactionDatabase([["x", "y"]], flat_taxonomy)
        with pytest.raises(ConfigError, match="height"):
            mine_flipping_patterns(
                database, Thresholds(gamma=0.5, epsilon=0.1)
            )

    def test_unbalanced_rejected_when_rebalance_off(self):
        taxonomy = Taxonomy.from_dict(
            {"deep": {"mid": ["leaf"]}, "shallow": None}
        )
        with pytest.raises(TaxonomyError, match="rebalance"):
            TransactionDatabase([["leaf"]], taxonomy, rebalance=False)

    def test_unknown_node_lookup(self, example3_tax):
        with pytest.raises(TaxonomyError):
            example3_tax.node_by_name("no-such-node")


class TestDatabaseFailures:
    def test_unknown_item_strict(self, example3_tax):
        with pytest.raises(DataError, match="unknown item 'mystery'"):
            TransactionDatabase([["a11", "mystery"]], example3_tax)

    def test_unknown_item_lenient_drops(self, example3_tax):
        database = TransactionDatabase(
            [["a11", "mystery"]], example3_tax, strict=False
        )
        assert database.transaction_names(0) == ("a11",)

    def test_empty_database_rejected(self, example3_tax):
        with pytest.raises(DataError, match="empty"):
            TransactionDatabase([], example3_tax)

    def test_unknown_item_id(self, small_db):
        with pytest.raises(DataError, match="unknown item"):
            small_db.item_id("nothing")


class TestThresholdFailures:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(gamma=0.0, epsilon=0.0), "gamma"),
            (dict(gamma=1.5, epsilon=0.1), "gamma"),
            (dict(gamma=0.5, epsilon=-0.1), "epsilon"),
            (dict(gamma=0.3, epsilon=0.5), "below gamma"),
            (dict(gamma=0.5, epsilon=0.1, min_support=[0.1, 2]), "mixes"),
            (dict(gamma=0.5, epsilon=0.1, min_support=0), ">= 1"),
            (
                dict(gamma=0.5, epsilon=0.1, min_support=[1, 2]),
                "non-increasing",
            ),
            (dict(gamma=0.5, epsilon=0.1, min_support=[]), "empty"),
            (dict(gamma=0.5, epsilon=0.1, min_support=True), "bool"),
        ],
    )
    def test_invalid_thresholds(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            Thresholds(**kwargs)

    def test_wrong_level_count_at_resolve(self, small_db):
        thresholds = Thresholds(
            gamma=0.5, epsilon=0.1, min_support=[4, 3, 2, 1]
        )
        with pytest.raises(ConfigError, match="levels"):
            mine_flipping_patterns(small_db, thresholds)


class TestMinerConfigFailures:
    def test_tpg_without_flipping(self):
        with pytest.raises(ConfigError, match="flipping"):
            PruningConfig(flipping=False, tpg=True, sibp=False)

    def test_unknown_measure(self, small_db):
        with pytest.raises(ConfigError, match="unknown measure"):
            mine_flipping_patterns(
                small_db,
                Thresholds(gamma=0.5, epsilon=0.1),
                measure="pearson",
            )

    def test_unknown_backend(self, small_db):
        with pytest.raises(ConfigError, match="unknown counting backend"):
            mine_flipping_patterns(
                small_db, Thresholds(gamma=0.5, epsilon=0.1), backend="gpu"
            )

    def test_max_k_too_small(self, small_db):
        with pytest.raises(ConfigError, match="max_k"):
            FlipperMiner(small_db, Thresholds(gamma=0.5, epsilon=0.1), max_k=1)


class TestCrashSafeAppend:
    """S6: ``append_batch`` must commit via the manifest replace only.

    A crash (simulated by failing the manifest write) after the shard
    files hit disk must leave the store exactly as before: the old
    manifest intact, the in-memory view unchanged, and a reopened
    store seeing only the pre-append data.  A retried append then
    succeeds and adopts the orphaned shard files.
    """

    @pytest.fixture
    def store(self, example3_tax, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        database = TransactionDatabase(
            [["a11", "b11"], ["a12"], ["b12", "a11"], ["b11"]],
            example3_tax,
        )
        return ShardedTransactionStore.partition_database(
            database, tmp_path, 2
        )

    def test_manifest_crash_leaves_old_state(
        self, store, example3_tax, tmp_path, monkeypatch
    ):
        import repro.data.shards as shards_module

        before_files = store.n_shards
        before_rows = store.n_transactions
        manifest_before = (tmp_path / "manifest.json").read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(shards_module, "_write_manifest", explode)
        with pytest.raises(OSError, match="disk full"):
            store.append_batch([("a11", "b12")])
        monkeypatch.undo()

        # in-memory view never advanced past the failed commit
        assert store.n_shards == before_files
        assert store.n_transactions == before_rows
        # on-disk manifest is byte-identical to the pre-append one
        assert (tmp_path / "manifest.json").read_bytes() == manifest_before
        # a reopened store sees only the committed data, even though
        # an orphaned shard file may exist on disk
        from repro.data.shards import ShardedTransactionStore

        reopened = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert reopened.n_transactions == before_rows

        # the retry overwrites the orphan and commits cleanly
        new = store.append_batch([("a11", "b12")])
        assert new == [before_files]
        assert store.n_transactions == before_rows + 1
        retried = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert retried.n_transactions == before_rows + 1
        assert retried.shard_transactions(before_files) == [("a11", "b12")]

    def test_shard_write_crash_leaves_old_state(
        self, store, example3_tax, tmp_path, monkeypatch
    ):
        import repro.data.columnar as columnar_module

        before_rows = store.n_transactions

        def explode(*args, **kwargs):
            raise OSError("no space")

        monkeypatch.setattr(columnar_module, "_atomic_write", explode)
        with pytest.raises(OSError, match="no space"):
            store.append_batch([("a11",)])
        monkeypatch.undo()

        from repro.data.shards import ShardedTransactionStore

        reopened = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert reopened.n_transactions == before_rows
        # no torn shard file is visible to the reopened store
        for index in range(reopened.n_shards):
            assert len(
                reopened.shard_transactions(index)
            ) == reopened.shard_sizes[index]


class TestCrashSafeRetire:
    """Retirement commits via the manifest replace, like append.

    A crash before the replace leaves the store untouched (every
    shard file and the manifest intact); a crash after it leaves at
    worst orphaned files on disk, which ``gc_orphans`` reclaims.
    """

    @pytest.fixture
    def store(self, example3_tax, tmp_path):
        from repro.data.shards import ShardedTransactionStore

        database = TransactionDatabase(
            [["a11", "b11"], ["a12"], ["b12", "a11"], ["b11"]],
            example3_tax,
        )
        return ShardedTransactionStore.partition_database(
            database, tmp_path, 2
        )

    def test_retire_crash_leaves_old_state(
        self, store, example3_tax, tmp_path, monkeypatch
    ):
        import repro.data.shards as shards_module

        before_rows = store.n_transactions
        names = [store.shard_path(i).name for i in range(store.n_shards)]
        manifest_before = (tmp_path / "manifest.json").read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(shards_module, "_write_manifest", explode)
        with pytest.raises(OSError, match="disk full"):
            store.retire_shards([0])
        monkeypatch.undo()

        # nothing was unlinked and nothing committed
        assert store.n_shards == len(names)
        assert store.n_transactions == before_rows
        assert (tmp_path / "manifest.json").read_bytes() == manifest_before
        for name in names:
            assert (tmp_path / name).exists()

        from repro.data.shards import ShardedTransactionStore

        reopened = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert reopened.n_transactions == before_rows

    def test_slide_crash_leaves_old_state(
        self, store, example3_tax, tmp_path, monkeypatch
    ):
        """A slide (``append_batch(delta, retire=...)``) commits once:
        a failed manifest write keeps every old shard and leaves the
        delta out, and a retry lands it exactly once."""
        import repro.data.shards as shards_module
        from repro.data.shards import ShardedTransactionStore

        names = [store.shard_path(i).name for i in range(store.n_shards)]
        manifest_before = (tmp_path / "manifest.json").read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(shards_module, "_write_manifest", explode)
        with pytest.raises(OSError, match="disk full"):
            store.append_batch([("a11", "b12")], retire=[0])
        monkeypatch.undo()

        assert store.shard_generations == [0, 1]
        assert (tmp_path / "manifest.json").read_bytes() == manifest_before
        for name in names:
            assert (tmp_path / name).exists()
        reopened = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert reopened.shard_generations == [0, 1]

        assert store.append_batch([("a11", "b12")], retire=[0]) == [1]
        retried = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert retried.shard_generations == [1, 2]
        assert retried.shard_transactions(1) == [("a11", "b12")]
        assert retried.gc_orphans(dry_run=True) == []

    def test_leaked_append_orphan_is_reclaimed_by_gc(
        self, store, example3_tax, tmp_path, monkeypatch
    ):
        import repro.data.shards as shards_module

        live = {store.shard_path(i).name for i in range(store.n_shards)}

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(shards_module, "_write_manifest", explode)
        with pytest.raises(OSError, match="disk full"):
            store.append_batch([("a11", "b12")])
        monkeypatch.undo()

        # the crash leaked a fully written but uncommitted shard file
        on_disk = {
            p.name
            for p in tmp_path.glob("shard-*")
            if not p.name.endswith(".img")
        }
        leaked = on_disk - live
        assert leaked

        from repro.data.shards import ShardedTransactionStore

        reopened = ShardedTransactionStore.open(tmp_path, example3_tax)
        assert sorted(reopened.gc_orphans(dry_run=True)) == sorted(leaked)
        assert sorted(reopened.gc_orphans()) == sorted(leaked)
        for name in leaked:
            assert not (tmp_path / name).exists()
        # the live shards were untouched
        assert {
            reopened.shard_path(i).name for i in range(reopened.n_shards)
        } == live


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (ConfigError, DataError, TaxonomyError):
            assert issubclass(exc, ReproError)

    def test_callers_can_catch_one_type(self, example3_tax):
        with pytest.raises(ReproError):
            TransactionDatabase([], example3_tax)
