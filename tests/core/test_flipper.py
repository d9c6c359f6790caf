"""Unit tests for repro.core.flipper — the Flipper algorithm itself."""

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
from repro.core.labels import Label
from repro.errors import ConfigError


class TestPruningConfig:
    def test_ladder_names(self):
        names = [cfg.name for cfg in PruningConfig.ladder()]
        assert names == [
            "basic",
            "flipping",
            "flipping+tpg",
            "flipping+tpg+sibp",
        ]

    def test_tpg_requires_flipping(self):
        with pytest.raises(ConfigError):
            PruningConfig(flipping=False, tpg=True, sibp=False)

    def test_sibp_requires_flipping(self):
        with pytest.raises(ConfigError):
            PruningConfig(flipping=False, tpg=False, sibp=True)

    def test_default_is_full(self):
        assert PruningConfig().name == "flipping+tpg+sibp"


class TestPaperExample:
    """Example 3 / Figs. 4-5: the ground truth of the whole pipeline."""

    @pytest.mark.parametrize(
        "cfg", PruningConfig.ladder(), ids=lambda c: c.name
    )
    def test_unique_pattern_all_methods(
        self, example3_db, example3_thresholds, cfg
    ):
        result = mine_flipping_patterns(
            example3_db, example3_thresholds, pruning=cfg
        )
        assert [p.leaf_names for p in result.patterns] == [("a11", "b11")]

    def test_chain_values(self, example3_db, example3_thresholds):
        result = mine_flipping_patterns(example3_db, example3_thresholds)
        (pattern,) = result.patterns
        assert pattern.signature == "+-+"
        by_level = {link.level: link for link in pattern.links}
        assert by_level[1].support == 7
        assert by_level[1].correlation == pytest.approx((7 / 8 + 7 / 9) / 2)
        assert by_level[2].support == 2
        assert by_level[2].correlation == pytest.approx(1 / 3)
        assert by_level[3].support == 2
        assert by_level[3].correlation == pytest.approx(1.0)

    def test_names_resolve(self, example3_db, example3_thresholds):
        result = mine_flipping_patterns(example3_db, example3_thresholds)
        (pattern,) = result.patterns
        assert pattern.links[0].names == ("a", "b")
        assert pattern.links[1].names == ("a1", "b1")

    def test_pruning_reduces_candidates(
        self, example3_db, example3_thresholds
    ):
        counts = {}
        for cfg in PruningConfig.ladder():
            result = mine_flipping_patterns(
                example3_db, example3_thresholds, pruning=cfg
            )
            counts[cfg.name] = result.stats.total_candidates
        assert counts["flipping"] < counts["basic"]
        assert counts["flipping+tpg+sibp"] <= counts["flipping"]


class TestConfigValidation:
    def test_height_one_rejected(self):
        tax = Taxonomy.from_edges([("*ROOT*", "a"), ("*ROOT*", "b")])
        db = TransactionDatabase([["a", "b"]], tax)
        with pytest.raises(ConfigError, match="height"):
            FlipperMiner(db, Thresholds(gamma=0.5, epsilon=0.1))

    def test_bad_max_k(self, example3_db, example3_thresholds):
        with pytest.raises(ConfigError, match="max_k"):
            FlipperMiner(example3_db, example3_thresholds, max_k=1)

    def test_unknown_measure(self, example3_db, example3_thresholds):
        with pytest.raises(ConfigError, match="unknown measure"):
            FlipperMiner(example3_db, example3_thresholds, measure="pearson")

    def test_unknown_backend(self, example3_db, example3_thresholds):
        with pytest.raises(ConfigError, match="backend"):
            FlipperMiner(example3_db, example3_thresholds, backend="gpu")

    @pytest.mark.parametrize("partitions", [None, 2])
    def test_rejects_raw_transactions(self, example3_thresholds, partitions):
        with pytest.raises(
            ConfigError,
            match="TransactionDatabase or a ShardedTransactionStore, not list",
        ):
            FlipperMiner(
                [["a11", "b11"]], example3_thresholds, partitions=partitions
            )


class TestBackendsAgree:
    def test_same_patterns(self, example3_db, example3_thresholds):
        bitmap = mine_flipping_patterns(
            example3_db, example3_thresholds, backend="bitmap"
        )
        horizontal = mine_flipping_patterns(
            example3_db, example3_thresholds, backend="horizontal"
        )
        assert [p.to_dict() for p in bitmap.patterns] == [
            p.to_dict() for p in horizontal.patterns
        ]


class TestMeasures:
    @pytest.mark.parametrize(
        "measure",
        [
            "all_confidence",
            "coherence",
            "cosine",
            "kulczynski",
            "max_confidence",
        ],
    )
    def test_all_measures_run(self, example3_db, measure):
        thresholds = Thresholds(gamma=0.5, epsilon=0.3, min_support=1)
        result = mine_flipping_patterns(
            example3_db, thresholds, measure=measure
        )
        assert result.stats.measure == measure
        # every reported pattern must genuinely alternate
        for pattern in result.patterns:
            signs = [link.label for link in pattern.links]
            for parent, child in zip(signs, signs[1:]):
                assert parent != child
                assert parent.is_signed and child.is_signed


class TestThresholdEffects:
    def test_impossible_thresholds_give_nothing(self, example3_db):
        thresholds = Thresholds(gamma=0.999, epsilon=0.998, min_support=9)
        result = mine_flipping_patterns(example3_db, thresholds)
        assert result.patterns == []

    def test_high_support_kills_pattern(self, example3_db):
        # {a1,b1} has support 2; requiring 3 at level 2 breaks the chain
        thresholds = Thresholds(gamma=0.6, epsilon=0.35, min_support=[3, 3, 1])
        result = mine_flipping_patterns(example3_db, thresholds)
        assert result.patterns == []

    def test_max_k_caps_pattern_size(self, random_db):
        thresholds = Thresholds(gamma=0.2, epsilon=0.15, min_support=1)
        result = mine_flipping_patterns(random_db, thresholds, max_k=2)
        assert all(p.k <= 2 for p in result.patterns)


class TestStatsPlumbing:
    def test_stats_populated(self, example3_db, example3_thresholds):
        result = mine_flipping_patterns(example3_db, example3_thresholds)
        stats = result.stats
        assert stats.method == "flipping+tpg+sibp"
        assert stats.elapsed_seconds > 0
        assert stats.db_scans >= 1
        assert stats.cells_processed >= 3
        assert stats.n_patterns == 1
        assert stats.total_candidates >= stats.total_counted

    def test_config_snapshot(self, example3_db, example3_thresholds):
        result = mine_flipping_patterns(example3_db, example3_thresholds)
        assert result.config["gamma"] == 0.6
        assert result.config["height"] == 3
        assert result.config["n_transactions"] == 10

    def test_cell_accessor(self, example3_db, example3_thresholds):
        miner = FlipperMiner(example3_db, example3_thresholds)
        miner.mine()
        cell = miner.cell(1, 2)
        assert cell is not None
        assert cell.level == 1 and cell.k == 2
        assert miner.cell(9, 9) is None


class TestChainSemantics:
    def test_same_category_items_never_pattern(self, grocery_taxonomy):
        # cola & lemonade share every generalization -> cannot flip
        transactions = [["cola", "lemonade"]] * 5 + [["cola"], ["lemonade"]]
        db = TransactionDatabase(transactions, grocery_taxonomy)
        result = mine_flipping_patterns(
            db, Thresholds(gamma=0.5, epsilon=0.3, min_support=1)
        )
        assert all(
            len({name for name in p.links[0].names}) == p.k
            for p in result.patterns
        )
        assert not any(
            set(p.leaf_names) == {"cola", "lemonade"} for p in result.patterns
        )

    def test_labels_alternate_in_every_pattern(self, random_db):
        result = mine_flipping_patterns(
            random_db, Thresholds(gamma=0.25, epsilon=0.2, min_support=1)
        )
        for pattern in result.patterns:
            labels = [link.label for link in pattern.links]
            assert all(label.is_signed for label in labels)
            assert all(a != b for a, b in zip(labels, labels[1:]))
            assert len(labels) == random_db.taxonomy.height
