"""Unit tests for repro.core.cells."""

from __future__ import annotations

import numpy as np

from repro import FlipperMiner, PruningConfig, Thresholds
from repro.core.candidates import filter_known_infrequent_subsets
from repro.core.cells import Cell, CellEntry
from repro.core.labels import Label
from repro.engine.stages import (
    CountStage,
    GenerateStage,
    LabelStage,
    SibpRemovalStage,
)


def entry(itemset, support=10, corr=0.5, label=Label.POSITIVE, alive=False):
    return CellEntry(
        itemset=itemset,
        support=support,
        correlation=corr,
        label=label,
        alive=alive,
    )


class TestCellEntry:
    def test_is_frequent(self):
        assert entry((1, 2)).is_frequent
        assert not entry((1, 2), label=Label.INFREQUENT).is_frequent


class TestCell:
    def test_add_get_contains_len(self):
        cell = Cell(level=1, k=2)
        cell.add(entry((1, 2)))
        assert (1, 2) in cell
        assert cell.get((1, 2)).support == 10
        assert cell.get((3, 4)) is None
        assert len(cell) == 1

    def test_counts(self):
        cell = Cell(level=1, k=2)
        cell.add(entry((1, 2), label=Label.POSITIVE, alive=True))
        cell.add(entry((1, 3), label=Label.NEGATIVE))
        cell.add(entry((2, 3), label=Label.NON_CORRELATED))
        cell.add(entry((2, 4), label=Label.INFREQUENT))
        assert cell.n_frequent == 3
        assert cell.n_labeled == 2
        assert cell.n_alive == 1
        assert len(cell.alive_entries) == 1
        assert set(cell.frequent_itemsets) == {(1, 2), (1, 3), (2, 3)}

    def test_has_positive_only_for_frequent_positives(self):
        cell = Cell(level=1, k=2)
        cell.add(entry((1, 2), label=Label.NEGATIVE))
        assert not cell.has_positive
        # infrequent but high correlation does NOT count (Theorem 3's
        # induction stays inside frequent itemsets)
        cell.add(entry((1, 3), corr=0.99, label=Label.INFREQUENT))
        assert not cell.has_positive
        cell.add(entry((2, 3), label=Label.POSITIVE))
        assert cell.has_positive

    def test_max_correlation_per_item(self):
        cell = Cell(level=1, k=2)
        cell.add(entry((1, 2), corr=0.3))
        cell.add(entry((1, 3), corr=0.7))
        cell.add(entry((2, 3), corr=0.1))
        best = cell.max_correlation_per_item()
        assert best[1] == 0.7
        assert best[2] == 0.3
        assert best[3] == 0.7
        assert 4 not in best  # vacuous items are absent, not 0

    def test_infrequent_entries_keep_their_accounting(self):
        cell = Cell(level=2, k=2)
        cell.add(entry((1, 2), corr=0.5, label=Label.POSITIVE))
        cell.add(entry((1, 3), corr=0.9, label=Label.INFREQUENT))
        cell.add_infrequent(np.array([(3, 4), (2, 4)]), [0.8, 0.2])
        assert len(cell) == 4
        assert (1, 3) in cell and (3, 4) in cell
        assert cell.get((1, 3)) is None  # no entry object kept
        assert cell.n_frequent == 1
        assert cell.frequent_itemsets == [(1, 2)]
        assert cell.has_positive
        assert cell.max_correlation_per_item() == {
            1: 0.9,
            2: 0.5,
            3: 0.9,
            4: 0.8,
        }
        kept, dropped = filter_known_infrequent_subsets(
            [(1, 2, 3), (1, 2, 5), (2, 3, 4)], cell, strict=False
        )
        assert kept == [(1, 2, 5)] and dropped == 2


class _RecordingCount(CountStage):
    def __init__(self, seen):
        self.seen = seen

    def run(self, context, state):
        super().run(context, state)
        self.seen[(state.task.level, state.task.k)] = dict(
            zip(map(tuple, state.candidates.tolist()), state.supports.tolist())
        )


def test_mined_cells_count_every_counted_itemset(random_db):
    """Infrequent counted itemsets stay visible to ``len``,
    ``CellStats.counted``, ``stored_entries``, the SIBP per-item
    maximum and the subset test, although only frequent ones keep a
    :class:`CellEntry`."""
    thresholds = Thresholds(
        gamma=0.4, epsilon=0.3, min_support=[0.2, 0.1, 0.05]
    )
    seen: dict = {}
    miner = FlipperMiner(
        random_db,
        thresholds,
        pruning=PruningConfig.full(),
        stages=[
            GenerateStage(),
            _RecordingCount(seen),
            LabelStage(),
            SibpRemovalStage(),
        ],
    )
    result = miner.mine()
    measure = miner.context.measure
    node_supports = miner.context.node_supports
    total_infrequent = 0
    for cell_stats in result.stats.cells:
        key = (cell_stats.level, cell_stats.k)
        supports = seen[key]
        cell = miner.cell(*key)
        theta = miner.context.thresholds.min_count(cell_stats.level)
        infrequent = {i for i, s in supports.items() if s < theta}
        total_infrequent += len(infrequent)
        assert cell_stats.counted == len(cell) == len(supports)
        rows = np.array(sorted(infrequent), dtype=np.int64)
        assert np.array_equal(
            cell.infrequent, cell.keys.sort(rows.reshape(-1, cell.k))
        )
        assert all(itemset in cell for itemset in supports)
        best: dict[int, float] = {}
        for itemset, support in supports.items():
            correlation = measure(
                support, [node_supports[key[0]][n] for n in itemset]
            )
            for item in itemset:
                best[item] = max(best.get(item, correlation), correlation)
        assert cell.max_correlation_per_item() == best
        for itemset in infrequent:
            superset = itemset + (max(itemset) + 10_000,)
            _, dropped = filter_known_infrequent_subsets(
                [superset], cell, strict=False
            )
            assert dropped == 1
    assert total_infrequent > 0
    assert result.stats.stored_entries == sum(len(s) for s in seen.values())
