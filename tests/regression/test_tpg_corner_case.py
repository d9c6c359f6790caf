"""The documented TPG over-pruning corner case (ARCHITECTURE.md,
"TPG corner case").

Theorem 3's premise — "all itemsets in Q(h,k) and Q(h+1,k) are
non-positive" — is verified by the algorithm over *counted* itemsets.
After flipping-based pruning, a cell need not contain every frequent
itemset of its (h,k): a positive frequent itemset whose own chain is
broken is invisible to the check, and the Theorem-1 induction that
justifies the cut no longer strictly applies.

This module constructs the minimal instance where that matters:

* every level-1 *pair* sits in the dead zone between epsilon and
  gamma (unlabeled), so no level-2 pair is ever counted and TPG fires
  at k = 2;
* yet the level-1 *triple* {A,B,C} is negative and its level-2
  refinement {a,b,c} is positive — a genuine flipping pattern at
  k = 3 that TPG's column cap prunes away.

The test pins the exact behaviour: the oracle, BASIC and
flipping-only all find the pattern; configurations with TPG miss it.
This is a faithful reproduction of Algorithm 1 as published, recorded
as a finding, not fixed silently.
"""

from __future__ import annotations

import pytest

from repro import (
    PruningConfig,
    Taxonomy,
    Thresholds,
    TransactionDatabase,
    mine_flipping_bruteforce,
    mine_flipping_patterns,
)

GAMMA = 0.6
# 0.25 leaves float headroom: the level-1 triple's Kulc is exactly
# 0.2 in real arithmetic but 0.2 + 4e-17 in doubles.
EPSILON = 0.25


@pytest.fixture(scope="module")
def corner_db() -> TransactionDatabase:
    taxonomy = Taxonomy.from_dict(
        {
            "A": ["a", "a2"],
            "B": ["b", "b2"],
            "C": ["c", "c2"],
        }
    )
    transactions = (
        [["a", "b", "c"]] * 2
        + [["a2", "b2"], ["a2", "c2"], ["b2", "c2"]]
        + [["a2"]] * 6
        + [["b2"]] * 6
        + [["c2"]] * 6
    )
    return TransactionDatabase(transactions, taxonomy)


@pytest.fixture(scope="module")
def thresholds() -> Thresholds:
    return Thresholds(gamma=GAMMA, epsilon=EPSILON, min_support=1)


class TestInstanceArithmetic:
    """Pin the counts the construction relies on."""

    def test_level1_pairs_in_dead_zone(self, corner_db):
        from repro.data import VerticalIndex

        index = VerticalIndex(corner_db)
        tax = corner_db.taxonomy
        ids = {name: tax.node_by_name(name).node_id for name in "ABC"}
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            support = index.support(1, tuple(sorted(ids[p] for p in pair)))
            singles = [index.support_of_node(1, ids[p]) for p in pair]
            kulc = support * (1 / singles[0] + 1 / singles[1]) / 2
            assert EPSILON < kulc < GAMMA, (pair, kulc)

    def test_level1_triple_negative(self, corner_db):
        from repro.data import VerticalIndex

        index = VerticalIndex(corner_db)
        tax = corner_db.taxonomy
        triple = tuple(
            sorted(tax.node_by_name(name).node_id for name in "ABC")
        )
        support = index.support(1, triple)
        kulc = support * sum(
            1 / index.support_of_node(1, node) for node in triple
        ) / 3
        assert support == 2
        assert kulc <= EPSILON

    def test_level2_triple_positive(self, corner_db):
        from repro.data import VerticalIndex

        index = VerticalIndex(corner_db)
        tax = corner_db.taxonomy
        triple = tuple(
            sorted(tax.node_by_name(name).node_id for name in "abc")
        )
        assert index.support(2, triple) == 2
        # all three items have support 2 -> Kulc = 1.0
        for node in triple:
            assert index.support_of_node(2, node) == 2


class TestDivergence:
    def test_oracle_finds_the_pattern(self, corner_db, thresholds):
        patterns = mine_flipping_bruteforce(corner_db, thresholds)
        assert [p.leaf_names for p in patterns] == [("a", "b", "c")]
        assert patterns[0].signature == "-+"

    def test_basic_finds_the_pattern(self, corner_db, thresholds):
        result = mine_flipping_patterns(
            corner_db, thresholds, pruning=PruningConfig.basic()
        )
        assert [p.leaf_names for p in result.patterns] == [("a", "b", "c")]

    def test_flipping_only_finds_the_pattern(self, corner_db, thresholds):
        result = mine_flipping_patterns(
            corner_db, thresholds, pruning=PruningConfig.flipping_only()
        )
        assert [p.leaf_names for p in result.patterns] == [("a", "b", "c")]

    def test_tpg_misses_the_pattern_as_published(self, corner_db, thresholds):
        """Algorithm 1 as published: TPG fires at k=2 (both top cells
        have no positive) and prunes the k=3 column where the pattern
        lives.  If this test ever starts finding the pattern, the
        implementation has drifted from the paper — update
        ARCHITECTURE.md accordingly."""
        result = mine_flipping_patterns(
            corner_db, thresholds, pruning=PruningConfig.flipping_tpg()
        )
        assert result.patterns == []
        assert result.stats.tpg_events == [(1, 2)]

    def test_full_flipper_inherits_the_miss(self, corner_db, thresholds):
        result = mine_flipping_patterns(
            corner_db, thresholds, pruning=PruningConfig.full()
        )
        assert result.patterns == []

    def test_soundness_never_violated(self, corner_db, thresholds):
        """Over-pruning may lose patterns but must never invent them."""
        oracle = {
            p.leaf_names
            for p in mine_flipping_bruteforce(corner_db, thresholds)
        }
        for config in PruningConfig.ladder():
            result = mine_flipping_patterns(
                corner_db, thresholds, pruning=config
            )
            assert {p.leaf_names for p in result.patterns} <= oracle
