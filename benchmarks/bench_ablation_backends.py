"""Ablation: counting backend (vertical bitmaps vs horizontal scans).

The paper counts by sequential scans of disk-resident data; this
library defaults to a vertical bitset index.  The ablation quantifies
that choice and checks both backends do identical logical work
(identical candidate counts and patterns) — only the counting
substrate differs.
"""

from __future__ import annotations

import pytest

from conftest import one_shot
from repro import FlipperMiner, PruningConfig
from repro.bench import bench_config, run_method, thresholds_for_profile
from repro.bench.profiles import DEFAULT_MINSUP
from repro.datasets import generate_synthetic

BACKENDS = ["bitmap", "horizontal"]


@pytest.fixture(scope="module")
def small_db():
    base = bench_config()
    return generate_synthetic(
        base.scaled(n_transactions=max(200, base.n_transactions // 4))
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_runtime(benchmark, small_db, backend):
    thresholds = thresholds_for_profile(
        DEFAULT_MINSUP, n_transactions=small_db.n_transactions
    )
    record = one_shot(
        benchmark,
        run_method,
        small_db,
        thresholds,
        PruningConfig.full(),
        f"full[{backend}]",
        backend=backend,
    )
    assert record.db_scans >= 1


def test_backends_find_identical_patterns(benchmark, small_db, capsys):
    """Both backends run the same generate/count/label/prune path, so
    candidate accounting, the mined patterns and the frequent itemsets
    of every cell must be identical — only the counting substrate (and
    with it the scan count) differs."""
    thresholds = thresholds_for_profile(
        DEFAULT_MINSUP, n_transactions=small_db.n_transactions
    )

    def run_both():
        out = {}
        for backend in BACKENDS:
            miner = FlipperMiner(
                small_db,
                thresholds,
                pruning=PruningConfig.full(),
                backend=backend,
            )
            result = miner.mine()
            frequent = {
                (level, k): {
                    entry.itemset: entry.support
                    for entry in cell.entries.values()
                    if entry.label.is_frequent
                }
                for level, k, cell in miner.iter_cells()
            }
            out[backend] = (result, frequent, miner.stats)
        return out

    runs = one_shot(benchmark, run_both)
    bitmap_result, bitmap_frequent, bitmap_stats = runs["bitmap"]
    for backend in BACKENDS[1:]:
        other_result, other_frequent, other_stats = runs[backend]
        assert [p.leaf_names for p in bitmap_result.patterns] == [
            p.leaf_names for p in other_result.patterns
        ], backend
        for key, itemsets in bitmap_frequent.items():
            assert other_frequent.get(key, {}) == itemsets, (backend, key)
        assert other_stats.total_candidates == bitmap_stats.total_candidates
        assert other_stats.total_counted == bitmap_stats.total_counted
    # the horizontal backend models the paper's per-cell scans
    horiz_stats = runs["horizontal"][2]
    assert horiz_stats.db_scans > bitmap_stats.db_scans
    with capsys.disabled():
        timings = ", ".join(
            f"{backend} {runs[backend][2].elapsed_seconds:.3f}s "
            f"({runs[backend][2].db_scans} scans)"
            for backend in BACKENDS
        )
        print(f"\nbackend ablation: {timings}")
