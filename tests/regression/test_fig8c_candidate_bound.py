"""Child expansion must keep pruning prefixes by support.

On the Fig. 8(c) width-5 configuration the FLIPPING-only rung (no TPG,
no SIBP) expands wide alive parents into a huge Cartesian product.
Expansion with only the pair screen generates 6,736,551 candidates
there and runs for minutes; the old fused expand+count DFS explored
426,653 nodes.  The array expansion also drops every prefix of length
3 to k-1 whose support is below the level's minimum, which keeps the
count far below both.  A regression that loses the prefix pruning
fails this bound instead of running for minutes.
"""

from __future__ import annotations

import pytest

import repro.engine.stages as stages
from repro import PruningConfig, mine_flipping_patterns
from repro.bench.profiles import bench_config, width_scaled_thresholds
from repro.core.flipper import FlipperMiner
from repro.datasets.synthetic import generate_synthetic


@pytest.fixture
def width5(monkeypatch):
    # the bench's default scale (N = 2500), where the counts above hold
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.025")
    base = bench_config()
    database = generate_synthetic(base.scaled(avg_width=5.0))
    thresholds = width_scaled_thresholds(
        5.0, n_transactions=base.n_transactions
    )
    return database, thresholds


def test_flipping_only_width5_candidates_bounded(width5):
    database, thresholds = width5
    result = mine_flipping_patterns(
        database, thresholds, pruning=PruningConfig.flipping_only()
    )
    assert result.stats.total_candidates < 426_653
    assert result.stats.extra["prefix_supports"] > 0


def test_prefix_lookup_agrees_with_counting(width5, monkeypatch):
    """Prefixes read from an earlier cell get the verdict a recount
    would give, and only the unread ones reach the backend."""
    database, thresholds = width5
    miner = FlipperMiner(
        database, thresholds, pruning=PruningConfig.flipping_only()
    )
    context = miner.context
    level_of = {
        node.node_id: node.level for node in context.taxonomy.iter_nodes()
    }
    read_from_cells = 0
    expand_children = stages.expand_children

    def checked(*args, frequent_prefixes, **kwargs):
        def check(prefixes):
            nonlocal read_from_cells
            level = level_of[prefixes[0][0]]
            known = context.cells[(level, len(prefixes[0]))]
            read_from_cells += sum(prefix in known for prefix in prefixes)
            before = context.stats.extra.get("prefix_supports", 0)
            got = frequent_prefixes(prefixes)
            counted = context.stats.extra.get("prefix_supports", 0)
            assert counted - before == sum(
                prefix not in known for prefix in prefixes
            )
            supports = context.backend.supports(level, prefixes)
            theta = context.thresholds.min_count(level)
            assert got == {p for p in prefixes if supports[p] >= theta}
            return got

        return expand_children(*args, frequent_prefixes=check, **kwargs)

    monkeypatch.setattr(stages, "expand_children", checked)
    miner.mine()
    assert read_from_cells > 0
