"""Windowed streaming mining: parity, retirement wiring, regressions.

The windowed contract under test: after any ``update``, the mined
patterns are **byte-identical** to a cold mine of only the in-window
rows — across both inner backends.  Retirement is exact subtraction,
never an approximation, so the assertion is equality of serialized
patterns, not set overlap.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.atomicio as atomicio
import repro.data.shards as shards_module
from repro import Taxonomy
from repro.core.atomicio import drain_releases
from repro.core.flipper import mine_flipping_patterns
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.engine.incremental import IncrementalMiner
from repro.errors import ConfigError
from tests.conftest import (
    _random_rows,
    make_random_database,
    taxonomy_trees,
)


def fingerprint(result) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


@pytest.fixture
def thresholds() -> Thresholds:
    # absolute counts: the window holds N roughly constant anyway,
    # but absolute supports make the windowed mode unconditional
    return Thresholds(gamma=0.55, epsilon=0.35, min_support=[4, 2, 2])


@pytest.fixture
def segments(grocery_taxonomy):
    """Six 30-row segments; each one becomes exactly one shard."""
    database = make_random_database(
        grocery_taxonomy, 180, seed=29, max_width=6
    )
    rows = [
        database.transaction_names(index)
        for index in range(database.n_transactions)
    ]
    return [rows[step * 30 : (step + 1) * 30] for step in range(6)]


def seed_store(segments, taxonomy, directory, n_segments=3):
    """A store whose shards align 1:1 with the first segments."""
    store = ShardedTransactionStore.partition_database(
        TransactionDatabase(segments[0], taxonomy), directory, 1
    )
    for segment in segments[1:n_segments]:
        store.append_batch(segment)
    return store


class TestWindowedParity:
    @pytest.mark.parametrize("backend", ["bitmap", "horizontal"])
    def test_slides_byte_identical_to_cold_mine(
        self, grocery_taxonomy, segments, thresholds, tmp_path, backend
    ):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(
            store,
            thresholds,
            backend=backend,
            window_shards=3,
        )
        miner.mine()
        for step in range(3, 6):
            result = miner.update(segments[step])
            window = [
                row
                for segment in segments[step - 2 : step + 1]
                for row in segment
            ]
            fresh = mine_flipping_patterns(
                TransactionDatabase(window, grocery_taxonomy),
                thresholds,
                backend=backend,
            )
            assert fingerprint(result) == fingerprint(fresh)
            incremental = result.config["incremental"]
            assert incremental["mode"] == "windowed"
            assert incremental["retired_shards"] == 1
            assert incremental["retired_rows"] == 30
            assert incremental["window_shards"] == 3
            assert store.n_shards == 3

    def test_window_rows_keeps_at_least_r_rows(
        self, grocery_taxonomy, segments, thresholds, tmp_path
    ):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, thresholds, window_rows=70)
        miner.mine()
        result = miner.update(segments[3])
        # 4 x 30 rows; dropping one leaves 90 >= 70, dropping two
        # would leave 60 < 70 — so exactly one shard retires
        assert store.n_transactions == 90
        assert store.n_shards == 3
        incremental = result.config["incremental"]
        assert incremental["mode"] == "windowed"
        assert incremental["window_rows"] == 70
        window = [
            row for segment in segments[1:4] for row in segment
        ]
        fresh = mine_flipping_patterns(
            TransactionDatabase(window, grocery_taxonomy), thresholds
        )
        assert fingerprint(result) == fingerprint(fresh)

    def test_newest_shard_always_survives(
        self, grocery_taxonomy, segments, thresholds, tmp_path
    ):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        # window_rows=1 retires as aggressively as the rule allows
        miner = IncrementalMiner(store, thresholds, window_rows=1)
        miner.mine()
        result = miner.update(segments[3])
        assert store.n_shards == 1
        assert store.shard_transactions(0) == [
            tuple(row) for row in segments[3]
        ]
        fresh = mine_flipping_patterns(
            TransactionDatabase(segments[3], grocery_taxonomy), thresholds
        )
        assert fingerprint(result) == fingerprint(fresh)


class TestWindowedEdges:
    def test_empty_delta_with_nothing_to_retire_is_noop(
        self, grocery_taxonomy, segments, thresholds, tmp_path
    ):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, thresholds, window_shards=3)
        first = miner.mine()
        updated = miner.update([])
        assert updated.patterns is first.patterns
        assert updated.config["incremental"]["mode"] == "noop"
        assert store.n_shards == 3

    def test_empty_delta_can_still_retire(
        self, grocery_taxonomy, segments, thresholds, tmp_path
    ):
        # the store starts over the window bound: the first update
        # shrinks it even though the delta is empty
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, thresholds, window_shards=2)
        miner.mine()
        result = miner.update([])
        assert store.n_shards == 2
        incremental = result.config["incremental"]
        assert incremental["mode"] == "windowed"
        assert incremental["retired_shards"] == 1
        window = [
            row for segment in segments[1:3] for row in segment
        ]
        fresh = mine_flipping_patterns(
            TransactionDatabase(window, grocery_taxonomy), thresholds
        )
        assert fingerprint(result) == fingerprint(fresh)

    def test_fractional_thresholds_stay_windowed_at_constant_n(
        self, grocery_taxonomy, segments, tmp_path
    ):
        # equal-size segments keep N at 90 across slides, so the
        # fractions re-resolve to identical counts and windowed mode
        # survives even fractional thresholds
        fractional = Thresholds(
            gamma=0.55, epsilon=0.35, min_support=[0.05, 0.03, 0.02]
        )
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, fractional, window_shards=3)
        miner.mine()
        result = miner.update(segments[3])
        assert result.config["incremental"]["mode"] == "windowed"

    def test_fractional_thresholds_fall_back_when_n_shifts(
        self, grocery_taxonomy, segments, tmp_path
    ):
        fractional = Thresholds(
            gamma=0.55, epsilon=0.35, min_support=[0.05, 0.03, 0.02]
        )
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, fractional, window_shards=3)
        miner.mine()
        # an uneven delta shifts the post-retirement N (30+30+12)
        result = miner.update(segments[3][:12])
        assert result.config["incremental"]["mode"] == "full"
        window = segments[1] + segments[2] + segments[3][:12]
        fresh = mine_flipping_patterns(
            TransactionDatabase(window, grocery_taxonomy), fractional
        )
        assert fingerprint(result) == fingerprint(fresh)

    def test_update_resolves_thresholds_exactly_once(
        self, grocery_taxonomy, segments, thresholds, tmp_path,
        monkeypatch,
    ):
        # regression: _run used to re-resolve after the mine to record
        # _last_resolved, racing any append that landed in between —
        # the update path must resolve once and thread that value
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, thresholds, window_shards=3)
        miner.mine()
        calls = 0
        original = miner._resolve

        def counting_resolve():
            nonlocal calls
            calls += 1
            return original()

        monkeypatch.setattr(miner, "_resolve", counting_resolve)
        miner.update(segments[3])
        assert calls == 1
        assert miner._last_resolved == original()

    def test_update_reports_its_own_scans(self, tmp_path):
        # regression: an update used to report the counter's lifetime
        # scans (4, 5, 6, 7 here); each one builds exactly one shard
        database = generate_groceries(scale=0.2)
        store = ShardedTransactionStore.partition_database(
            database, tmp_path, 3
        )
        miner = IncrementalMiner(store, GROCERIES_THRESHOLDS, window_shards=3)
        assert miner.mine().stats.db_scans == 3
        for step in range(4):
            delta = [
                database.transaction_names(row)
                for row in range(step * 15, (step + 1) * 15)
            ]
            result = miner.update(delta)
            assert result.config["incremental"]["delta_shards"] == 1
            assert result.stats.db_scans == 1

    @pytest.mark.parametrize(
        "kwargs", [{"window_shards": 0}, {"window_rows": 0}]
    )
    def test_invalid_window_bounds_rejected(
        self, grocery_taxonomy, segments, thresholds, tmp_path, kwargs
    ):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        with pytest.raises(ConfigError, match=">= 1"):
            IncrementalMiner(store, thresholds, **kwargs)


class TestOneCommitSlide:
    """A slide appends the delta and retires the oldest shard in one
    manifest commit, so a failure anywhere changes nothing and a retry
    lands the delta exactly once."""

    @pytest.fixture
    def miner(self, grocery_taxonomy, segments, thresholds, tmp_path):
        store = seed_store(segments, grocery_taxonomy, tmp_path)
        miner = IncrementalMiner(store, thresholds, window_shards=3)
        miner.mine()
        return miner

    @staticmethod
    def fail_the_retiring_commit(miner, monkeypatch):
        """Fail the manifest write that drops the oldest shard: the
        one commit of a slide (a second commit, after the delta's own,
        would leave the delta in and the window over-full)."""
        oldest = miner.store.shard_path(0).name
        real = shards_module._write_manifest

        def write(directory, shard_files, *args, **kwargs):
            if oldest not in shard_files:
                raise OSError("disk full")
            real(directory, shard_files, *args, **kwargs)

        monkeypatch.setattr(shards_module, "_write_manifest", write)

    def test_a_slide_writes_the_manifest_once(
        self, miner, segments, monkeypatch
    ):
        writes = []
        real = shards_module._write_manifest

        def counting(*args, **kwargs):
            writes.append(args)
            real(*args, **kwargs)

        monkeypatch.setattr(shards_module, "_write_manifest", counting)
        result = miner.update(segments[3])
        assert result.config["incremental"]["mode"] == "windowed"
        assert len(writes) == 1

    def test_manifest_failure_changes_nothing(
        self, miner, segments, tmp_path, monkeypatch
    ):
        store, counter = miner.store, miner.counter
        height = store.taxonomy.height
        manifest = (tmp_path / "manifest.json").read_bytes()
        shards = [store.shard_path(i).name for i in range(store.n_shards)]
        nodes = {
            level: dict(counter.node_supports(level))
            for level in range(1, height + 1)
        }
        last = miner.last_result

        self.fail_the_retiring_commit(miner, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            miner.update(segments[3])
        monkeypatch.undo()

        assert (tmp_path / "manifest.json").read_bytes() == manifest
        names = [store.shard_path(i).name for i in range(store.n_shards)]
        assert names == shards
        for name in shards:
            assert (tmp_path / name).is_file()
        for level in range(1, height + 1):
            assert counter.node_supports(level) == nodes[level]
        assert miner.last_result is last

    def test_retry_after_a_failure_lands_the_delta_once(
        self, miner, segments, grocery_taxonomy, thresholds, monkeypatch
    ):
        self.fail_the_retiring_commit(miner, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            miner.update(segments[3])
        monkeypatch.undo()

        result = miner.update(segments[3])
        store = miner.store
        assert store.n_shards == 3
        window = [row for segment in segments[1:4] for row in segment]
        rows = [row for i in range(3) for row in store.shard_transactions(i)]
        assert rows == [tuple(row) for row in window]
        fresh = mine_flipping_patterns(
            TransactionDatabase(window, grocery_taxonomy), thresholds
        )
        assert fingerprint(result) == fingerprint(fresh)
        # the retry overwrote the uncommitted delta file
        assert store.gc_orphans(dry_run=True) == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize("bound", [None, 0])
    def test_slides_leave_no_descriptor_and_no_orphan(
        self, miner, segments, tmp_path, monkeypatch, bound
    ):
        if bound is not None:
            # every free happens inline: the same end state
            monkeypatch.setattr(atomicio, "_RELEASE_BOUND", bound)
        drain_releases()
        gc.collect()  # mmaps other tests left to the collector
        before = len(os.listdir("/proc/self/fd"))
        for step in range(10):
            result = miner.update(segments[step % len(segments)])
            assert result.config["incremental"]["mode"] == "windowed"
        drain_releases()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before
        store = miner.store
        assert store.gc_orphans(dry_run=True) == []
        live = {store.shard_path(i).name for i in range(store.n_shards)}
        assert set(os.listdir(tmp_path)) == {"manifest.json"} | live
        assert store.n_shards == 3


class TestWindowedProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_windowed_always_equals_cold_mine(self, data):
        tree, leaves = data.draw(taxonomy_trees())
        taxonomy = Taxonomy.from_dict(tree)
        seed = data.draw(st.integers(min_value=0, max_value=9999))
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=8),
                min_size=3,
                max_size=5,
            )
        )
        rows = _random_rows(leaves, seed, sum(sizes))
        segments, cursor = [], 0
        for size in sizes:
            segments.append(rows[cursor : cursor + size])
            cursor += size
        thresholds = Thresholds(gamma=0.5, epsilon=0.3, min_support=1)
        with tempfile.TemporaryDirectory(
            prefix="repro-test-windowed-"
        ) as tmp:
            store = ShardedTransactionStore.partition_database(
                TransactionDatabase(segments[0], taxonomy), tmp, 1
            )
            miner = IncrementalMiner(
                store, thresholds, window_shards=2
            )
            miner.mine()
            for step in range(1, len(segments)):
                result = miner.update(segments[step])
                window = [
                    row
                    for segment in segments[step - 1 : step + 1]
                    for row in segment
                ]
                fresh = mine_flipping_patterns(
                    TransactionDatabase(window, taxonomy), thresholds
                )
                assert fingerprint(result) == fingerprint(fresh)
                assert store.n_shards <= 2
