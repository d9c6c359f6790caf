"""The pair screen of child expansion, inside real mines.

``GenerateStage._expand`` answers the screen from the level's pair
cache, then from the (h,2) cell, and counts only what neither knows.
On synthetic-8192, census and groceries: every child-expanded cell
asks the screen at most once, with canonical, distinct pairs; no pair
batch the screen sends to the backend holds a pair the (h,2) cell
counted; and a child-expanded 3-itemset cell, which skips the subset
filter, is one the filter would have left unchanged under every
flipping pruning config.  No groceries transaction spans three
level-1 categories, so its mines stop at k = 2 and never screen: the
checks hold there without a pair to check, which the tests pin.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.stages as stages
from repro import PruningConfig
from repro.bench.profiles import (
    DEFAULT_MINSUP,
    bench_config,
    thresholds_for_profile,
)
from repro.core.candidates import prune_infrequent_subsets
from repro.core.flipper import FlipperMiner
from repro.datasets.census import CENSUS_THRESHOLDS, generate_census
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.datasets.synthetic import generate_synthetic

FLIPPING = [
    PruningConfig(flipping=True, tpg=tpg, sibp=sibp)
    for tpg in (False, True)
    for sibp in (False, True)
]


@pytest.fixture(
    scope="module", params=["synthetic-8192", "census", "groceries"]
)
def corpus(request):
    """A database, its thresholds, and whether its mines screen."""
    if request.param == "groceries":
        return generate_groceries(scale=0.2), GROCERIES_THRESHOLDS, False
    if request.param == "census":
        return generate_census(scale=0.2), CENSUS_THRESHOLDS, True
    database = generate_synthetic(bench_config(n_transactions=8192))
    thresholds = thresholds_for_profile(
        DEFAULT_MINSUP, gamma=0.2, epsilon=0.1
    )
    return database, thresholds, True


def _spy_screen(monkeypatch):
    """Record, per ``expand_children`` call, its k and every pair
    batch its ``frequent_pairs`` was asked."""
    calls: list[tuple[int, list[np.ndarray]]] = []
    expand = stages.expand_children

    def spied(alive, *args, frequent_pairs, **kwargs):
        asked: list[np.ndarray] = []

        def screen(pairs):
            asked.append(pairs.copy())
            return frequent_pairs(pairs)

        calls.append((alive.shape[1], asked))
        return expand(alive, *args, frequent_pairs=screen, **kwargs)

    monkeypatch.setattr(stages, "expand_children", spied)
    return calls


@pytest.mark.parametrize("pruning", FLIPPING, ids=lambda p: p.name)
def test_screen_asked_once_per_cell(corpus, pruning, monkeypatch):
    database, thresholds, screens = corpus
    calls = _spy_screen(monkeypatch)
    FlipperMiner(database, thresholds, pruning=pruning).mine()
    assert any(asked for _, asked in calls) == screens
    for k, asked in calls:
        assert len(asked) <= (1 if k >= 3 else 0)
        for pairs in asked:
            assert (pairs[:, 0] < pairs[:, 1]).all()
            assert len(np.unique(pairs, axis=0)) == len(pairs)


def test_screen_never_counts_a_pair_the_pair_cell_counted(
    corpus, monkeypatch
):
    database, thresholds, screens = corpus
    calls = _spy_screen(monkeypatch)
    miner = FlipperMiner(database, thresholds)
    context = miner.context
    backend = context.backend
    count = backend.supports
    sent = 0

    def supports(level, rows):
        nonlocal sent
        # the (h,2) cell enters context.cells once counted, so a pair
        # batch counted after that comes from the screen
        pair_cell = context.cells.get((level, 2))
        if rows.shape[1] == 2 and pair_cell is not None:
            frequent, infrequent = pair_cell.find(rows)
            assert not (frequent | infrequent).any()
            sent += len(rows)
        return count(level, rows)

    monkeypatch.setattr(backend, "supports", supports)
    result = miner.mine()
    assert sent <= result.stats.extra.get("screen_pairs", 0)
    # the cell did answer: some pairs the screen was asked are in it
    levels = {
        node.node_id: node.level for node in context.taxonomy.iter_nodes()
    }
    answered = 0
    for _, asked in calls:
        for pairs in asked:
            frequent, infrequent = context.cells[
                (levels[int(pairs[0, 0])], 2)
            ].find(pairs)
            answered += int((frequent | infrequent).sum())
    assert (answered > 0) == screens


@pytest.mark.parametrize("pruning", FLIPPING, ids=lambda p: p.name)
def test_three_itemset_cells_need_no_subset_filter(
    corpus, pruning, monkeypatch
):
    database, thresholds, screens = corpus
    run = stages.GenerateStage.run
    checked: list[bool] = []

    def spied(self, context, state):
        run(self, context, state)
        level, k = state.task.level, state.task.k
        if level > 1 and k == 3:
            left = context.cells.get((level, 2))
            _, dropped = prune_infrequent_subsets(
                state.candidates, left, strict=False
            )
            assert dropped == 0
            assert state.stats.filtered_subset == 0
            checked.append(
                left is not None
                and len(left.infrequent) > 0
                and len(state.candidates) > 0
            )

    monkeypatch.setattr(stages.GenerateStage, "run", spied)
    FlipperMiner(database, thresholds, pruning=pruning).mine()
    assert any(checked) == screens
