#!/usr/bin/env python3
"""Quickstart for the columnar shard store and persisted backend images.

Walks the on-disk mining path end to end: partition a dataset into
binary columnar shards, mine it out-of-core, persist the built
counting backends as memory-mappable images, and show that a warm
re-mine serves every shard from its image (zero rebuilds) with
byte-identical patterns.

Run:  python examples/columnar_store_images.py
"""

import json
import tempfile
from pathlib import Path

from repro.core.counting import DeltaCounter
from repro.core.flipper import FlipperMiner
from repro.data.shards import ShardedTransactionStore
from repro.datasets import GROCERIES_THRESHOLDS, generate_groceries


def fingerprint(result) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


def main() -> None:
    database = generate_groceries(scale=0.3)
    print(database.describe())
    print()

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "store"

        # 1. Partition into binary columnar shards.  Each
        #    shard-NNNNN.col is a CSR block: int64 row offsets + int32
        #    item ids, mmap-served without parsing.
        store = ShardedTransactionStore.partition_database(
            database, directory, 4
        )
        print(store.describe())
        print()

        # 2. Cold out-of-core mine: every shard backend is built from
        #    its rows.
        miner = FlipperMiner(store, GROCERIES_THRESHOLDS)
        cold = miner.mine()
        backend = miner.context.backend
        assert isinstance(backend, DeltaCounter)
        pool = backend.pool
        print(
            f"cold mine: {len(cold.patterns)} pattern(s), "
            f"{pool.rebuilds} backend rebuild(s), "
            f"{pool.image_admits} image admit(s)"
        )

        # 3. Persist the built backends next to their shards as
        #    FLIPIMG1 images (also written automatically on eviction).
        saved = pool.save_images()
        print(f"persisted {saved} backend image(s)")
        print()
        print(store.describe())
        print()

        # 4. Warm mine through a fresh store: every backend is
        #    re-admitted from its image — mmap + header check, no
        #    shard parsing, no index rebuild.
        warm_store = ShardedTransactionStore.open(directory, database.taxonomy)
        warm_miner = FlipperMiner(warm_store, GROCERIES_THRESHOLDS)
        warm = warm_miner.mine()
        warm_pool = warm_miner.context.backend.pool
        print(
            f"warm mine: {len(warm.patterns)} pattern(s), "
            f"{warm_pool.rebuilds} rebuild(s), "
            f"{warm_pool.image_admits} image admit(s)"
        )
        assert warm_pool.rebuilds == 0
        assert fingerprint(cold) == fingerprint(warm)
        print("warm patterns byte-identical to cold: yes")


if __name__ == "__main__":
    main()
