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
SIBP bans, the pair screen and prefix support as it goes.  The pair
screen is one table of child-pair verdicts per cell, laid out by
parent node pair, so a row grows over the frequent partners of its
first child and tests its other pairs by lookup, not by search.
Both regimes then pass through :func:`prune_infrequent_subsets`,
which drops one column at a time and tests the (k-1)-subsets against
the left cell's sorted keys (the engine skips it where the pair
screen has already tested every subset: child-expanded 3-itemsets).
:func:`child_expansion_candidates`,
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


def _distinct_rows(
    rows: np.ndarray, keys: RowKeys
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a node-id matrix, in lexicographic order,
    and for every row the index of its distinct row — parents that
    share their first nodes share prefixes, so a batch repeats many.
    ``keys`` must cover every value of ``rows``."""
    _, first, inverse = np.unique(
        keys.pack(rows), return_index=True, return_inverse=True
    )
    return rows[first], inverse.ravel()


class _PairTable:
    """The pair screen of one cell: the verdict on every child pair
    the expansion can form, laid out by parent node pair.

    Every node pair (A, B) that two positions of an alive parent hold
    owns a block of ``|ch(A)| x |ch(B)|`` flags in row-major (a, b)
    child-offset order, so the verdict on a pair is one gather at
    ``start[block] + a * width[block] + b``.  Each line (block, a) of
    a block also lists, as CSR, the offsets b whose pair with a is
    frequent: its *partners*.
    """

    def __init__(
        self,
        node_of: np.ndarray,
        counts: np.ndarray,
        starts: np.ndarray,
        children: np.ndarray,
        frequent_pairs: FrequentOf,
    ) -> None:
        n, k = len(counts), node_of.shape[1]
        first, second = np.triu_indices(k, 1)
        #: the column of position pair (i, j), i < j, in ``_block``
        self._column = np.zeros((k, k), dtype=np.intp)
        self._column[first, second] = np.arange(len(first))
        # one int64 code per node pair: a 1-D unique, in (A, B) order
        codes, block = np.unique(
            node_of[:, first] * n + node_of[:, second], return_inverse=True
        )
        #: the block of every (parent row, position pair)
        self._block = block.reshape(len(node_of), len(first))
        left, right = np.divmod(codes, n)
        height, self._width = counts[left], counts[right]
        size = height * self._width
        self._start = np.cumsum(size) - size
        source, offset = _spread(size)
        a, b = np.divmod(offset, self._width[source])
        one = children[starts[left][source] + a]
        two = children[starts[right][source] + b]
        self._flags = frequent_pairs(
            np.column_stack((np.minimum(one, two), np.maximum(one, two)))
        )
        #: the first line of every block
        self._line = np.cumsum(height) - height
        self._partners = b[self._flags]
        self._n_partners = np.bincount(
            (self._line[source] + a)[self._flags], minlength=int(height.sum())
        )
        self._first_partner = np.cumsum(self._n_partners) - self._n_partners

    def extend(
        self, owner: np.ndarray, offsets: np.ndarray, position: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Extend rows of child offsets (``owner`` their parent rows)
        at ``position`` >= 1: every row spreads over the partners of
        its position-0 child among the position's children, and keeps
        an extension only if its pairs with positions 1 to
        ``position - 1`` are frequent too.  Returns the source row and
        child offset of every kept extension, rows in order and each
        row's extensions by ascending offset."""
        column = self._column
        line = self._line[self._block[owner, column[0, position]]]
        line += offsets[:, 0]
        source, rank = _spread(self._n_partners[line])
        added = self._partners[self._first_partner[line][source] + rank]
        held = owner[source]
        alive = np.ones(len(added), dtype=bool)
        for earlier in range(1, position):
            block = self._block[held, column[earlier, position]]
            alive &= self._flags[
                self._start[block]
                + offsets[source, earlier] * self._width[block]
                + added
            ]
        return source[alive], added[alive]


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
    full.  Rows carry one child offset per position (the child's
    place among its parent node's children) and become node ids only
    for the prefix test and the output:

    * **pair screen** (k >= 3): every child pair the expansion can
      form is passed to ``frequent_pairs`` once, as one ``(n, 2)``
      matrix of canonical, distinct pairs, and its mask fills a
      :class:`_PairTable`.  A row then grows only over the frequent
      partners of its first child, and each other pair it gains is
      one lookup in the table.
    * **prefix support**: the distinct surviving prefixes of length 3
      to k-1 are passed to ``frequent_prefixes`` in one matrix per
      length, in lexicographic order, and those its mask rejects die.

    Both tests are anti-monotone support arguments, so no candidate
    that could be frequent is lost.  The result equals
    :func:`child_expansion_candidates` with the same screen, minus
    banned candidates and candidates with an infrequent prefix, in
    the same order.
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
    # where each parent position's children begin in ``children``
    first_child = starts[node_of]
    table = None
    if k >= 3:
        table = _PairTable(node_of, counts, starts, children, frequent_pairs)

    owner = np.arange(len(node_of))
    offsets = np.zeros((len(node_of), 0), dtype=np.int64)
    for position in range(k):
        if table is None or not position:
            source, added = _spread(counts[node_of[owner, position]])
        else:
            source, added = table.extend(owner, offsets, position)
        owner = owner[source]
        offsets = np.column_stack((offsets[source], added))
        if not len(offsets):
            return ChildExpansion(none, banned_children)
        if 3 <= position + 1 < k:
            prefixes = children[first_child[owner, : position + 1] + offsets]
            distinct, inverse = _distinct_rows(
                np.sort(prefixes, axis=1), RowKeys.of_nodes(flat)
            )
            frequent = frequent_prefixes(distinct)[inverse]
            owner, offsets = owner[frequent], offsets[frequent]
    rows = children[first_child[owner] + offsets]
    return ChildExpansion(np.sort(rows, axis=1), banned_children)


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
