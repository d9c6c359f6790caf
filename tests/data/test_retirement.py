"""Shard retirement, generation stamps and orphan gc."""

from __future__ import annotations

import json
import os

import pytest

import repro.core.atomicio as atomicio
import repro.data.shards as shards_module
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.errors import DataError


def _store(db: TransactionDatabase, tmp_path, n_shards: int = 4):
    return ShardedTransactionStore.partition_database(db, tmp_path, n_shards)


class TestGenerations:
    def test_fresh_store_generations(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        assert store.shard_generations == [0, 1, 2, 3]
        assert store.next_generation == 4

    def test_append_extends_generations(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        store.append_batch([["milk", "cola"], ["soap"]])
        assert store.shard_generations == [0, 1, 2, 3, 4]
        assert store.next_generation == 5

    def test_generations_survive_reopen(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        store.retire_shards([0, 2])
        reopened = ShardedTransactionStore.open(
            tmp_path, random_db.taxonomy
        )
        assert reopened.shard_generations == [1, 3]
        assert reopened.next_generation == 4

    def test_legacy_manifest_defaults(self, random_db, tmp_path):
        _store(random_db, tmp_path)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["generations"]
        del payload["next_generation"]
        manifest.write_text(json.dumps(payload))
        reopened = ShardedTransactionStore.open(
            tmp_path, random_db.taxonomy
        )
        assert reopened.shard_generations == [0, 1, 2, 3]
        assert reopened.next_generation == 4

    def test_retired_names_never_reused(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        retired_names = [store.shard_path(i).name for i in range(4)]
        store.retire_shards(range(4))
        new_shards = store.append_batch([["milk"], ["cola"]])
        fresh = [store.shard_path(i).name for i in new_shards]
        assert not set(fresh) & set(retired_names)


class TestRetireShards:
    def test_retire_drops_rows_and_files(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        sizes = list(store.shard_sizes)
        doomed = store.shard_path(0)
        rows = store.retire_shards([0])
        assert rows == sizes[0]
        assert store.n_shards == 3
        assert store.n_transactions == sum(sizes[1:])
        assert not doomed.exists()

    def test_surviving_rows_are_exact(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        expected = []
        for index in (1, 3):
            expected.extend(store.shard_transactions(index))
        store.retire_shards([0, 2])
        survivors = []
        for index in range(store.n_shards):
            survivors.extend(store.shard_transactions(index))
        assert survivors == expected

    def test_retire_all_leaves_legal_empty_store(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        store.retire_shards(range(4))
        assert store.n_shards == 0
        assert store.n_transactions == 0
        reopened = ShardedTransactionStore.open(
            tmp_path, random_db.taxonomy
        )
        assert reopened.n_transactions == 0
        # the store revives through append
        reopened.append_batch([["milk", "cola"]])
        assert reopened.n_transactions == 1
        assert reopened.shard_generations == [4]

    def test_retire_before_generation(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        retired = store.retire_before(2)
        assert retired == [0, 1]
        assert store.shard_generations == [2, 3]

    def test_retire_rejects_bad_index(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        with pytest.raises(DataError):
            store.retire_shards([7])

    def test_retire_nothing_is_noop(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        assert store.retire_shards([]) == 0
        assert store.n_shards == 4

    def test_retire_drops_backend_images(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        image = tmp_path / f"{store.shard_path(0).name}.bitmap.img"
        image.write_bytes(b"stale image bytes")
        store.retire_shards([0])
        assert not image.exists()

    def test_size_cache_purged(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        # warm the per-name size cache, then retire: stale entries
        # must not survive for a revived name
        for index in range(store.n_shards):
            store.shard_bytes(index)
        store.retire_shards([0])
        assert store.shard_bytes(0) == store.shard_path(0).stat().st_size


class TestSlideCommit:
    """``append_batch(delta, retire=...)``: one manifest replace adds
    the delta shards and drops the retired ones."""

    def test_one_manifest_write(self, random_db, tmp_path, monkeypatch):
        store = _store(random_db, tmp_path, 3)
        retired_name = store.shard_path(0).name
        writes = []
        real = shards_module._write_manifest

        def counting(*args, **kwargs):
            writes.append(args)
            real(*args, **kwargs)

        monkeypatch.setattr(shards_module, "_write_manifest", counting)
        new = store.append_batch([["milk", "cola"], ["soap"]], retire=[0])
        assert len(writes) == 1
        assert new == [2]
        assert store.shard_generations == [1, 2, 3]
        assert store.next_generation == 4
        assert store.shard_transactions(2) == [("milk", "cola"), ("soap",)]
        assert not (tmp_path / retired_name).exists()
        reopened = ShardedTransactionStore.open(tmp_path, random_db.taxonomy)
        assert reopened.shard_generations == [1, 2, 3]
        expected = [store.shard_transactions(i) for i in range(3)]
        assert [reopened.shard_transactions(i) for i in range(3)] == expected

    def test_retire_only_commit(self, random_db, tmp_path):
        store = _store(random_db, tmp_path, 3)
        sizes = store.shard_sizes
        assert store.append_batch([], retire=[0, 1]) == []
        assert store.shard_generations == [2]
        assert store.n_transactions == sizes[2]

    def test_bad_retire_index_writes_nothing(self, random_db, tmp_path):
        store = _store(random_db, tmp_path, 3)
        listing = sorted(os.listdir(tmp_path))
        manifest = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(DataError, match="cannot retire shard 5"):
            store.append_batch([["milk"]], retire=[0, 5])
        assert sorted(os.listdir(tmp_path)) == listing
        assert (tmp_path / "manifest.json").read_bytes() == manifest
        assert store.shard_generations == [0, 1, 2]

    @pytest.mark.skipif(os.name != "posix", reason="pinning is POSIX-only")
    def test_frees_are_handed_off_after_the_names_go(
        self, random_db, tmp_path, monkeypatch
    ):
        store = _store(random_db, tmp_path, 3)
        old_manifest = (tmp_path / "manifest.json").read_bytes()
        retired_bytes = store.shard_path(0).read_bytes()
        handed: list[int] = []
        monkeypatch.setattr(atomicio, "_release", handed.append)
        try:
            store.append_batch([["milk", "cola"]], retire=[0])
            # the old manifest and the retired shard, both nameless
            assert len(handed) == 2
            assert [os.fstat(fd).st_nlink for fd in handed] == [0, 0]
            contents = sorted(
                os.pread(fd, os.fstat(fd).st_size, 0) for fd in handed
            )
            assert contents == sorted([old_manifest, retired_bytes])
            live = {store.shard_path(i).name for i in range(store.n_shards)}
            assert set(os.listdir(tmp_path)) == {"manifest.json"} | live
        finally:
            for fd in handed:
                os.close(fd)


class TestGcOrphans:
    def test_gc_removes_only_orphans(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        keep = {store.shard_path(i).name for i in range(4)}
        (tmp_path / "shard-07777.col").write_bytes(b"orphan")
        (tmp_path / "shard-07777.col.bitmap.img").write_bytes(b"img")
        removed = store.gc_orphans()
        assert sorted(removed) == [
            "shard-07777.col",
            "shard-07777.col.bitmap.img",
        ]
        assert {p.name for p in tmp_path.glob("shard-*")} == keep

    def test_dry_run_deletes_nothing(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        orphan = tmp_path / "shard-07777.col"
        orphan.write_bytes(b"orphan")
        removed = store.gc_orphans(dry_run=True)
        assert removed == ["shard-07777.col"]
        assert orphan.exists()

    def test_live_images_survive(self, random_db, tmp_path):
        store = _store(random_db, tmp_path)
        image = tmp_path / f"{store.shard_path(0).name}.bitmap.img"
        image.write_bytes(b"live image")
        assert store.gc_orphans() == []
        assert image.exists()

    def test_images_no_backend_can_admit_are_orphans(
        self, random_db, tmp_path
    ):
        """A live shard's ``.bitmap.img`` stays; an image of a backend
        the shard pool cannot admit (e.g. ``.numpy.img``) is swept."""
        store = _store(random_db, tmp_path)
        shard = store.shard_path(0).name
        bitmap = tmp_path / f"{shard}.bitmap.img"
        numpy_image = tmp_path / f"{shard}.numpy.img"
        bitmap.write_bytes(b"live image")
        numpy_image.write_bytes(b"unreadable image")
        assert store.gc_orphans(dry_run=True) == [numpy_image.name]
        assert bitmap.exists() and numpy_image.exists()
        assert store.gc_orphans() == [numpy_image.name]
        assert bitmap.exists()
        assert not numpy_image.exists()
