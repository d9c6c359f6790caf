"""Candidate generation for the search-space cells (paper Section 4.1).

Two generation regimes exist, matching the paper's framework:

* **Row join** — the classical Apriori join *within* a taxonomy row.
  Used for the top row (level 1) of Flipper and for every row of the
  BASIC baseline.  Complete for the frequent itemsets of the row.
* **Child expansion** — for level ``h >= 2`` under flipping-based
  pruning: each *chain-alive* (h-1,k)-itemset is expanded into the
  Cartesian product of its items' children.  Complete for every
  itemset whose vertical chain can still flip (each chain itemset has
  a chain-alive parent by Definition 2).

Candidates travel as ``(n, k)`` int64 row matrices of node ids, one
canonical (ascending) itemset per row.  The miner runs child
expansion through :func:`expand_children`, which walks the product
position by position over all parents at once and prunes prefixes by
SIBP bans, the pair screen and prefix support as it goes.  Both
regimes then pass through :func:`prune_infrequent_subsets`, which
drops one column at a time and tests the (k-1)-subsets against the
left cell's sorted keys.  :func:`child_expansion_candidates`,
:func:`filter_banned` and :func:`filter_known_infrequent_subsets` are
the scalar, tuple-based references the array paths are
property-tested against.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.cells import Cell
from repro.core.itemsets import apriori_join
from repro.core.rowkeys import RowKeys

__all__ = [
    "pair_candidates",
    "row_join_candidates",
    "child_expansion_candidates",
    "ChildExpansion",
    "expand_children",
    "filter_banned",
    "filter_known_infrequent_subsets",
    "prune_infrequent_subsets",
]


def pair_candidates(frequent_items: Collection[int]) -> np.ndarray:
    """All 2-itemsets over the frequent single items of a level."""
    items = np.array(sorted(frequent_items), dtype=np.int64)
    first, second = np.triu_indices(len(items), k=1)
    return np.column_stack((items[first], items[second]))


def row_join_candidates(cell_left: Cell) -> np.ndarray:
    """Apriori-join the frequent (k-1)-itemsets of the cell to the left."""
    joined = apriori_join(cell_left.frequent_itemsets)
    return np.array(joined, dtype=np.int64).reshape(-1, cell_left.k + 1)


def child_expansion_candidates(
    alive_parents: Iterable[tuple[int, ...]],
    children_of: Mapping[int, Sequence[int]],
    frequent_items: set[int],
    pair_ok: Callable[[int, int], bool] | None = None,
) -> list[tuple[int, ...]]:
    """Expand chain-alive (h-1,k)-itemsets into level-h candidates.

    Every item of the parent is replaced by each of its children that
    is individually frequent at level h.  Parents descend from
    distinct level-1 categories, so the children of different parents
    never collide and each candidate arises from exactly one parent.

    ``pair_ok(a, b)`` — when given — must return False only for item
    pairs that are provably infrequent at this level.  The expansion
    then prunes prefixes as soon as they contain a dead pair, which
    keeps the Cartesian product from materializing combinations that
    support counting would immediately discard (a pure
    anti-monotonicity argument, so no flipping pattern can be lost).
    """
    candidates: list[tuple[int, ...]] = []
    for parent in alive_parents:
        child_lists = []
        viable = True
        for node in parent:
            children = [
                child
                for child in children_of.get(node, ())
                if child in frequent_items
            ]
            if not children:
                viable = False
                break
            child_lists.append(children)
        if not viable:
            continue
        if pair_ok is None or len(child_lists) < 3:
            for combo in itertools.product(*child_lists):
                candidates.append(tuple(sorted(combo)))
            continue
        # DFS with prefix pair-pruning.
        chosen: list[int] = []

        def expand(position: int) -> None:
            if position == len(child_lists):
                candidates.append(tuple(sorted(chosen)))
                return
            for child in child_lists[position]:
                if all(pair_ok(child, other) for other in chosen):
                    chosen.append(child)
                    expand(position + 1)
                    chosen.pop()

        expand(0)
    return candidates


#: ``frequent_of(rows) -> per row, does its support reach θ_h`` — a
#: batch frequency test over an ``(n, k)`` row matrix, answered by
#: counting or from earlier cells
FrequentOf = Callable[[np.ndarray], np.ndarray]


@dataclass
class ChildExpansion:
    """What :func:`expand_children` produced for one cell."""

    #: canonical candidate rows, parent by parent in product order
    candidates: np.ndarray
    #: frequent children left out because SIBP banned them at this size
    banned_children: int = 0


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows that each fan out into ``counts[i]`` rows: the source
    row of every output row and its offset within its group."""
    source = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return source, np.arange(len(source)) - first[source]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer matrix and, for every row, the
    index of its distinct row — parents that share their first nodes
    share prefixes, so a batch repeats many."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def expand_children(
    alive_parents: np.ndarray,
    children_of: Mapping[int, Sequence[int]],
    frequent_items: Collection[int],
    *,
    banned: Mapping[int, int],
    frequent_pairs: FrequentOf,
    frequent_prefixes: FrequentOf,
) -> ChildExpansion:
    """Child expansion of chain-alive (h-1,k)-itemsets, as arrays.

    ``alive_parents`` is an ``(m, k)`` row matrix.  Every parent item
    is replaced by each of its children that is frequent at level h
    and not SIBP-banned for size-k itemsets (``banned[child] < k``).
    The product is built one parent position at a time, over all
    parents at once, and thinned as it grows, so it never exists in
    full:

    * **pair screen** (k >= 3): every child pair the expansion can
      form is passed to ``frequent_pairs`` once, as one ``(n, 2)``
      matrix; a prefix containing a pair its mask rejects dies.
    * **prefix support**: the distinct surviving prefixes of length 3
      to k-1 are passed to ``frequent_prefixes`` in one matrix per
      length, and those its mask rejects die.

    Both tests are anti-monotone support arguments, so no candidate
    that could be frequent is lost.  The result equals
    :func:`child_expansion_candidates` with the same screen, minus
    banned candidates and candidates with an infrequent prefix.
    """
    k = alive_parents.shape[1]
    none = np.zeros((0, k), dtype=np.int64)
    if not len(alive_parents):
        return ChildExpansion(none)
    nodes, node_of = np.unique(alive_parents, return_inverse=True)
    node_of = node_of.reshape(alive_parents.shape)
    # children of every distinct parent node, flattened (CSR)
    flat: list[int] = []
    counts = np.zeros(len(nodes), dtype=np.int64)
    banned_children = 0
    for index, node in enumerate(nodes.tolist()):
        for child in children_of.get(node, ()):
            if child not in frequent_items:
                continue
            if banned.get(child, k) < k:
                banned_children += 1
                continue
            flat.append(child)
            counts[index] += 1
    children = np.array(flat, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    node_of = node_of[(counts[node_of] > 0).all(axis=1)]
    if not len(node_of):
        return ChildExpansion(none, banned_children)
    pair_keys = RowKeys(int(children.max()) + 1)

    dead = np.zeros(0, dtype=np.int64)
    if k >= 3:
        dead = _dead_pairs(
            node_of, counts, starts, children, pair_keys, frequent_pairs
        )

    owner = np.arange(len(node_of))
    rows = np.zeros((len(node_of), 0), dtype=np.int64)
    for position in range(k):
        node = node_of[owner, position]
        source, offset = _spread(counts[node])
        added = children[starts[node][source] + offset]
        owner, rows = owner[source], rows[source]
        if len(dead) and position:
            alive = np.ones(len(added), dtype=bool)
            for column in rows.T:
                pairs = np.column_stack(
                    (np.minimum(column, added), np.maximum(column, added))
                )
                alive &= ~RowKeys.contains(dead, pair_keys.pack(pairs))
            owner, rows, added = owner[alive], rows[alive], added[alive]
        rows = np.column_stack((rows, added))
        if not len(rows):
            return ChildExpansion(none, banned_children)
        if 3 <= position + 1 < k:
            distinct, inverse = _distinct_rows(np.sort(rows, axis=1))
            frequent = frequent_prefixes(distinct)[inverse]
            owner, rows = owner[frequent], rows[frequent]
    return ChildExpansion(np.sort(rows, axis=1), banned_children)


def _dead_pairs(
    node_of: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    children: np.ndarray,
    pair_keys: RowKeys,
    frequent_pairs: FrequentOf,
) -> np.ndarray:
    """Sorted keys of the infrequent child pairs, over every pair of
    parent nodes that share a parent."""
    k = node_of.shape[1]
    node_pairs = np.unique(
        np.concatenate(
            [node_of[:, [i, j]] for i in range(k) for j in range(i + 1, k)]
        ),
        axis=0,
    )
    left, right = node_pairs[:, 0], node_pairs[:, 1]
    source, offset = _spread(counts[left])
    first = children[starts[left][source] + offset]
    right = right[source]
    source, offset = _spread(counts[right])
    second = children[starts[right][source] + offset]
    first = first[source]
    pairs = np.column_stack(
        (np.minimum(first, second), np.maximum(first, second))
    )
    return pair_keys.sort(pairs[~frequent_pairs(pairs)])


def filter_banned(
    candidates: Iterable[tuple[int, ...]],
    banned: Mapping[int, int],
) -> tuple[list[tuple[int, ...]], int]:
    """Drop candidates containing an SIBP-banned item.

    ``banned[item] = k`` means Corollary 2 proved every itemset of
    size ``> k`` containing ``item`` non-positive (jointly with its
    generalization), so such supersets cannot flip.
    """
    kept: list[tuple[int, ...]] = []
    dropped = 0
    for itemset in candidates:
        size = len(itemset)
        if any(size > banned.get(item, size) for item in itemset):
            dropped += 1
        else:
            kept.append(itemset)
    return kept, dropped


def filter_known_infrequent_subsets(
    candidates: Iterable[tuple[int, ...]],
    cell_left: Cell | None,
    *,
    strict: bool,
) -> tuple[list[tuple[int, ...]], int]:
    """Apriori subset pruning against the cell to the left, one tuple
    at a time: the reference :func:`prune_infrequent_subsets` is
    property-tested against.

    ``strict=True`` (BASIC: the left cell holds *every* counted
    candidate of the row) prunes when a subset is missing or
    infrequent.  ``strict=False`` (flipping modes: the left cell may
    legitimately lack itemsets whose chains broke) prunes only when a
    subset was counted *and* found infrequent — absence proves
    nothing.
    """
    if cell_left is None:
        return list(candidates), 0
    kept: list[tuple[int, ...]] = []
    dropped = 0
    for itemset in candidates:
        # combinations of a sorted tuple are sorted: the (k-1)-subsets
        subsets = itertools.combinations(itemset, len(itemset) - 1)
        if strict:
            prune = any(cell_left.get(subset) is None for subset in subsets)
        else:
            prune = any(
                subset in cell_left and cell_left.get(subset) is None
                for subset in subsets
            )
        if prune:
            dropped += 1
        else:
            kept.append(itemset)
    return kept, dropped


def prune_infrequent_subsets(
    rows: np.ndarray,
    cell_left: Cell | None,
    *,
    strict: bool,
) -> tuple[np.ndarray, int]:
    """Apriori subset pruning of an ``(n, k)`` candidate matrix
    against the cell to the left, with the semantics of
    :func:`filter_known_infrequent_subsets`.

    Dropping one column of a canonical row leaves a canonical
    (k-1)-subset, so the test is k membership lookups in the left
    cell's sorted keys.  Returns the kept rows and the number dropped.
    """
    if cell_left is None or not len(rows):
        return rows, 0
    if not strict and not len(cell_left.infrequent):
        return rows, 0
    columns = np.arange(rows.shape[1])
    keep = np.ones(len(rows), dtype=bool)
    for column in columns:
        frequent, infrequent = cell_left.find(rows[:, columns != column])
        keep &= frequent if strict else ~infrequent
    return rows[keep], len(rows) - int(keep.sum())
