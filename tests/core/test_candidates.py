"""Unit tests for repro.core.candidates."""

from __future__ import annotations

from repro.core.candidates import (
    child_expansion_candidates,
    filter_banned,
    filter_known_infrequent_subsets,
    pair_candidates,
    row_join_candidates,
)
from repro.core.cells import Cell, CellEntry
from repro.core.labels import Label


def make_cell(level, k, entries):
    cell = Cell(level=level, k=k)
    for itemset, label in entries:
        cell.add(
            CellEntry(
                itemset=itemset,
                support=10,
                correlation=0.5,
                label=label,
                alive=label.is_signed,
            )
        )
    return cell


class TestPairCandidates:
    def test_all_pairs_sorted(self):
        assert pair_candidates([3, 1, 2]).tolist() == [[1, 2], [1, 3], [2, 3]]

    def test_single_item_no_pairs(self):
        assert pair_candidates([1]).tolist() == []


class TestRowJoin:
    def test_joins_frequent_only(self):
        cell = make_cell(
            1,
            2,
            [
                ((1, 2), Label.POSITIVE),
                ((1, 3), Label.NON_CORRELATED),  # frequent
                ((2, 3), Label.INFREQUENT),      # not frequent
            ],
        )
        # only (1,2) and (1,3) join -> (1,2,3)
        assert row_join_candidates(cell).tolist() == [[1, 2, 3]]


class TestChildExpansion:
    def test_product_of_children(self):
        children = {1: [11, 12], 2: [21]}
        candidates = child_expansion_candidates(
            [(1, 2)], children, frequent_items={11, 12, 21}
        )
        assert sorted(candidates) == [(11, 21), (12, 21)]

    def test_infrequent_children_dropped(self):
        children = {1: [11, 12], 2: [21]}
        candidates = child_expansion_candidates(
            [(1, 2)], children, frequent_items={11, 21}
        )
        assert candidates == [(11, 21)]

    def test_parent_without_frequent_children_skipped(self):
        children = {1: [11], 2: [21]}
        candidates = child_expansion_candidates(
            [(1, 2)], children, frequent_items={11}
        )
        assert candidates == []

    def test_result_canonical(self):
        children = {2: [5], 1: [9]}
        candidates = child_expansion_candidates(
            [(1, 2)], children, frequent_items={5, 9}
        )
        assert candidates == [(5, 9)]


class TestFilterBanned:
    def test_ban_applies_only_above_size(self):
        banned = {7: 2}  # item 7 banned for itemsets of size > 2
        kept, dropped = filter_banned([(7, 8), (7, 8, 9), (1, 2, 3)], banned)
        assert kept == [(7, 8), (1, 2, 3)]
        assert dropped == 1

    def test_no_bans(self):
        kept, dropped = filter_banned([(1, 2)], {})
        assert kept == [(1, 2)] and dropped == 0


class TestFilterKnownInfrequentSubsets:
    def test_none_cell_passthrough(self):
        kept, dropped = filter_known_infrequent_subsets(
            [(1, 2, 3)], None, strict=True
        )
        assert kept == [(1, 2, 3)] and dropped == 0

    def test_strict_drops_missing_subsets(self):
        cell = make_cell(1, 2, [((1, 2), Label.POSITIVE)])
        kept, dropped = filter_known_infrequent_subsets(
            [(1, 2, 3)], cell, strict=True
        )
        assert kept == [] and dropped == 1

    def test_conservative_keeps_missing_subsets(self):
        cell = make_cell(2, 2, [((1, 2), Label.POSITIVE)])
        kept, dropped = filter_known_infrequent_subsets(
            [(1, 2, 3)], cell, strict=False
        )
        assert kept == [(1, 2, 3)] and dropped == 0

    def test_both_drop_counted_infrequent(self):
        cell = make_cell(
            2,
            2,
            [
                ((1, 2), Label.POSITIVE),
                ((1, 3), Label.INFREQUENT),
                ((2, 3), Label.POSITIVE),
            ],
        )
        for strict in (True, False):
            kept, dropped = filter_known_infrequent_subsets(
                [(1, 2, 3)], cell, strict=strict
            )
            assert kept == [] and dropped == 1, f"strict={strict}"
