"""Cross-module consistency: independent implementations must agree.

The library contains several independently-written counting and
mining paths (vertical bitmaps, horizontal scans, FP-growth over
projections, Cumulate over extended transactions).
Where their semantics overlap they must produce identical numbers —
these tests pin the overlaps down on the bundled simulators.
"""

from __future__ import annotations

import pytest

from repro import PruningConfig, mine_flipping_patterns
from repro.core.counting import BitmapBackend
from repro.data.vertical import VerticalIndex
from repro.datasets.census import CENSUS_THRESHOLDS, generate_census
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.fpm import level_frequent_itemsets, mine_flipping_posthoc
from repro.related import cumulate_frequent_itemsets, mine_multilevel


@pytest.fixture(scope="module")
def groceries():
    return generate_groceries(scale=0.15)


@pytest.fixture(scope="module")
def census():
    return generate_census(scale=0.1)


class TestPosthocAgainstFlipper:
    def test_groceries(self, groceries):
        posthoc = mine_flipping_posthoc(groceries, GROCERIES_THRESHOLDS)
        direct = mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS)
        assert sorted(p.leaf_names for p in posthoc.patterns) == sorted(
            p.leaf_names for p in direct.patterns
        )

    def test_census(self, census):
        posthoc = mine_flipping_posthoc(census, CENSUS_THRESHOLDS)
        direct = mine_flipping_patterns(
            census, CENSUS_THRESHOLDS, pruning=PruningConfig.basic()
        )
        assert sorted(p.leaf_names for p in posthoc.patterns) == sorted(
            p.leaf_names for p in direct.patterns
        )


class TestCumulateAgainstVerticalIndex:
    def test_single_node_supports_match(self, groceries):
        """A node's support over *extended* transactions equals its
        projection support: a basket contains the ancestor iff it
        contains an item beneath it."""
        taxonomy = groceries.taxonomy
        index = VerticalIndex(groceries)
        frequent = cumulate_frequent_itemsets(
            groceries, min_support=1, max_k=1
        )
        for level in range(1, taxonomy.height + 1):
            for node, support in index.node_supports(level).items():
                real = taxonomy.node(node)
                if real.is_copy:
                    continue  # copies are not Cumulate nodes
                if support == 0:
                    assert (node,) not in frequent
                else:
                    assert frequent[(node,)] == support, taxonomy.name_of(node)


class TestMultilevelAgainstFPGrowth:
    def test_levels_match_when_unfiltered(self, groceries):
        """With threshold 1 everywhere, Han-Fu's parent filter is
        inert and each level equals a complete per-level FP-growth."""
        result = mine_multilevel(groceries, [1, 1, 1], max_k=2)
        for level in (1, 2, 3):
            expected = level_frequent_itemsets(
                groceries, level, min_count=1, max_k=2
            )
            assert result.frequent[level] == expected


class TestFlipperChainSupportsAgainstFPGrowth:
    def test_every_chain_link_support_is_exact(self, groceries):
        """Each link of every mined pattern must carry the support an
        independent complete miner assigns to that (h,k)-itemset."""
        direct = mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS)
        assert direct.patterns, "simulator should plant flips"
        per_level = {
            level: level_frequent_itemsets(groceries, level, min_count=1)
            for level in range(1, groceries.taxonomy.height + 1)
        }
        for pattern in direct.patterns:
            for link in pattern.links:
                assert per_level[link.level][link.itemset] == link.support


class TestBackendsOnRealData:
    @pytest.mark.parametrize("backend", ["bitmap", "horizontal"])
    def test_identical_patterns(self, groceries, backend):
        result = mine_flipping_patterns(
            groceries, GROCERIES_THRESHOLDS, backend=backend
        )
        reference = mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS)
        assert [p.leaf_names for p in result.patterns] == [
            p.leaf_names for p in reference.patterns
        ]
