"""The prefix-grouped kernel against the pure-Python reference.

:func:`~repro.core.counting._and_popcount` counts a batch prefix by
prefix when its plane is at least ``_GROUP_MIN_WORDS`` words wide, its
itemsets have three or more items, most prefix ANDs of a sample of its
rows are word-sparse and it holds at least ``_GROUP_MIN_ROWS`` rows per
distinct (k-1)-prefix.  A prefix AND with few non-zero words is
extended over those words only, in ``_CHUNK_WORDS``-word chunks; one
with many is ANDed densely against the shared prefix row.  The test
corpora of the other suites are too narrow to reach it, so the
databases here are built from designed word planes: every prefix of a
batch gets its own items, whose AND is non-zero in exactly the words
the test picks.  Counts are checked against
:class:`~repro.data.vertical.VerticalIndex`, which shares no code with
either kernel, and a whole mine is checked against the same mine on
the dense kernel alone.
"""

from __future__ import annotations

import json
import random
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counting
from repro.core.counting import BitmapBackend
from repro.core.flipper import FlipperMiner
from repro.core.rowkeys import RowKeys
from repro.data.database import TransactionDatabase
from repro.data.vertical import VerticalIndex
from repro.taxonomy.tree import Taxonomy

RULE_WORDS = counting._GROUP_MIN_WORDS
RULE_ROWS = counting._GROUP_MIN_ROWS
CHUNK = counting._CHUNK_WORDS
SHARE = counting._SPARSE_SHARE
SAMPLE = counting._SAMPLE_ROWS
#: plane widths just under, at and over the rule's width
WIDTHS = (RULE_WORDS - 1, RULE_WORDS, RULE_WORDS + 1)
#: the most non-zero words a prefix may have and still go word-sparse
#: on a plane of the rule's width
SPARSE_LIMIT = counting._sparse_limit(RULE_WORDS)
#: non-zero words of a prefix AND: none, one, both sides of a chunk
#: boundary, both sides of the sparse limit and a dense prefix
NONZERO_WORDS = (0, 1, CHUNK, CHUNK + 1, SPARSE_LIMIT, SPARSE_LIMIT + 1, 90)


def _taxonomy(n_items: int) -> Taxonomy:
    """Height 2: two categories over ``n_items`` leaves, so plane row
    ``i`` of level 2 is item ``i``."""
    names = [f"i{index:05d}" for index in range(n_items)]
    half = n_items // 2
    return Taxonomy.from_dict({"a": names[:half], "b": names[half:]})


def _database(taxonomy: Taxonomy, bits: np.ndarray, n_rows: int):
    """The transactions whose level-2 plane is ``bits`` (one ``uint64``
    word row per item; bits past ``n_rows`` are ignored)."""
    names = [taxonomy.name_of(item) for item in taxonomy.item_ids]
    held = np.unpackbits(
        bits.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )[:, :n_rows]
    rows: list[list[str]] = [[] for _ in range(n_rows)]
    for item, column in enumerate(held):
        for row in np.flatnonzero(column).tolist():
            rows[row].append(names[item])
    return TransactionDatabase(rows, taxonomy)


class _Design:
    """Item bit rows for a batch of prefix groups.

    ``prefix(k, words)`` hands out ``k - 1`` fresh items whose AND is
    non-zero in exactly ``words`` (bit 0 of each such word, row
    ``64 * w``, is always held by all of them, and the first two are
    disjoint everywhere else); ``last()`` hands out an item with
    random bits.  Items are handed out from ``next_item`` up."""

    def __init__(self, n_items: int, n_words: int, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.bits = np.zeros((n_items, n_words), dtype=np.uint64)
        self.n_words = n_words
        self.next_item = 0

    def _random(self) -> np.ndarray:
        return self.rng.integers(
            0, 2**64, size=self.n_words, dtype=np.uint64, endpoint=False
        )

    def fresh(self) -> int:
        item, self.next_item = self.next_item, self.next_item + 1
        return item

    def prefix(self, k: int, words: list[int]) -> tuple[int, ...]:
        inside = np.zeros(self.n_words, dtype=bool)
        inside[words] = True
        split = self._random()
        items = []
        for position in range(k - 1):
            noise = self._random()
            if position == 0:
                outside = split
            elif position == 1:
                outside = ~split & noise
            else:
                outside = noise
            row = np.where(inside, noise | np.uint64(1), outside)
            item = self.fresh()
            self.bits[item] = row
            items.append(item)
        return tuple(items)

    def last(self) -> int:
        item = self.fresh()
        self.bits[item] = self._random() & self._random()
        return item


def _batch(design: _Design, k: int, groups, lasts: int, rng):
    """Rows of item indexes for ``groups``, a list of ``(non-zero
    word count, row count)``: each group is a fresh prefix whose AND
    has that many non-zero words, extended by that many random picks
    of ``lasts`` shared last items.  Also returns each prefix's
    non-zero word count."""
    last_items = [design.last() for _ in range(lasts)]
    rows = []
    nonzero_of = {}
    for nonzero, n_rows in groups:
        words = sorted(rng.sample(range(design.n_words), nonzero))
        prefix = design.prefix(k, words)
        nonzero_of[prefix] = nonzero
        for _ in range(n_rows):
            rows.append(prefix + (rng.choice(last_items),))
    return rows, nonzero_of


def _expect_grouped(rows, nonzero_of, n_words: int) -> bool:
    """The size rule, restated: a wide plane, most of the sampled
    rows' prefixes word-sparse, and enough rows per prefix."""
    sample = rows[:: -(-len(rows) // SAMPLE)]
    sparse = sum(
        -(-nonzero_of[row[:-1]] // CHUNK) * CHUNK * SHARE <= n_words
        for row in sample
    )
    n_prefixes = len({row[:-1] for row in rows})
    return (
        n_words >= RULE_WORDS
        and 2 * sparse >= len(sample)
        and len(rows) >= RULE_ROWS * n_prefixes
    )


def _node_rows(taxonomy: Taxonomy, rows) -> np.ndarray:
    """Item indexes -> level-2 node ids (plane rows are in node id
    order)."""
    nodes = np.asarray(taxonomy.nodes_at_level(2), dtype=np.int64)
    return nodes[np.asarray(rows, dtype=np.int64)]


def _check(taxonomy, design, n_rows, matrix):
    """Count ``matrix`` on the bitmap backend and compare with the
    bigint reference; returns the kernels that ran."""
    database = _database(taxonomy, design.bits, n_rows)
    backend = BitmapBackend(database)
    reference = VerticalIndex(database)
    with ExitStack() as stack:
        grouped, sparse, dense = (
            stack.enter_context(
                mock.patch.object(
                    counting, name, wraps=getattr(counting, name)
                )
            )
            for name in (
                "_grouped_and_popcount",
                "_sparse_and_popcount",
                "_dense_and_popcount",
            )
        )
        counts = backend.supports(2, matrix)
    expected = [
        reference.support(2, tuple(itemset)) for itemset in matrix.tolist()
    ]
    assert counts.tolist() == expected
    # the dense kernel ANDs against a prefix row with two columns; on
    # its own it has k >= 3
    against_prefix = any(
        len(call.args[0]) == 2 for call in dense.call_args_list
    )
    return grouped.called, sparse.called, against_prefix


def _n_rows(n_words: int) -> int:
    return 64 * n_words - 5


@given(
    n_words=st.sampled_from(WIDTHS),
    k=st.integers(3, 6),
    groups=st.lists(
        st.tuples(
            st.sampled_from(NONZERO_WORDS),
            st.sampled_from([1, 2, RULE_ROWS, 3 * RULE_ROWS]),
        ),
        min_size=1,
        max_size=4,
    ),
    repeats=st.integers(0, 5),
    group_blocks=st.sampled_from([1, 2, None]),
    row_block_bytes=st.sampled_from([8, 1 << 11, None]),
    seed=st.integers(0, 9999),
)
@settings(max_examples=25, deadline=None)
def test_grouped_kernel_equals_bigint_reference(
    n_words, k, groups, repeats, group_blocks, row_block_bytes, seed
):
    """Any mix of prefixes, in shuffled order with repeated rows, on
    planes around the rule's width, counts exactly, and the grouped
    kernel runs exactly when the size rule says so."""
    rng = random.Random(seed)
    n_items = len(groups) * (k - 1) + 6
    taxonomy = _taxonomy(n_items)
    design = _Design(n_items, n_words, seed)
    rows, nonzero_of = _batch(design, k, groups, 6, rng)
    rows += [rng.choice(rows) for _ in range(repeats)]
    rng.shuffle(rows)
    matrix = _node_rows(taxonomy, rows)
    with ExitStack() as stack:
        if group_blocks is not None:
            block = group_blocks * n_words * 8
            stack.enter_context(
                mock.patch.object(counting, "_GROUP_BLOCK_BYTES", block)
            )
        if row_block_bytes is not None:
            stack.enter_context(
                mock.patch.object(counting, "_BLOCK_BYTES", row_block_bytes)
            )
        grouped, _sparse, _against = _check(
            taxonomy, design, _n_rows(n_words), matrix
        )
    assert grouped == _expect_grouped(rows, nonzero_of, n_words)


@pytest.mark.parametrize("n_words", WIDTHS)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_both_branches_and_every_boundary(n_words, k):
    """One batch holds a prefix of every non-zero word count of
    interest, so on a plane of the rule's width both per-prefix
    branches run: the word-sparse one and the AND against the prefix
    row."""
    rng = random.Random(n_words * 10 + k)
    groups = [(nonzero, RULE_ROWS) for nonzero in NONZERO_WORDS]
    n_items = len(groups) * (k - 1) + 8
    taxonomy = _taxonomy(n_items)
    design = _Design(n_items, n_words, seed=k)
    rows, _nonzero = _batch(design, k, groups, 8, rng)
    rng.shuffle(rows)
    grouped, sparse, against_prefix = _check(
        taxonomy, design, _n_rows(n_words), _node_rows(taxonomy, rows)
    )
    wide = n_words >= RULE_WORDS
    assert (grouped, sparse, against_prefix) == (wide, wide, wide)


@pytest.mark.parametrize("sparse_groups, grouped", [(1, False), (3, True)])
def test_the_sampled_prefixes_decide(sparse_groups, grouped):
    """Four prefixes of many rows each: with one of them word-sparse
    the batch keeps the dense kernel, with three it is grouped."""
    n_words, k = RULE_WORDS + 1, 3
    rng = random.Random(sparse_groups)
    groups = [(CHUNK, 3 * RULE_ROWS)] * sparse_groups
    groups += [(90, 3 * RULE_ROWS)] * (4 - sparse_groups)
    n_items = len(groups) * (k - 1) + 8
    taxonomy = _taxonomy(n_items)
    design = _Design(n_items, n_words, seed=sparse_groups)
    rows, _nonzero = _batch(design, k, groups, 8, rng)
    rng.shuffle(rows)
    ran = _check(
        taxonomy, design, _n_rows(n_words), _node_rows(taxonomy, rows)
    )
    assert ran[0] is grouped


@pytest.mark.parametrize(
    "group_blocks, row_block_bytes",
    [(1, 8), (2, 8), (3, 1 << 10), (1, 1 << 12)],
    ids=["one-prefix-one-row", "two-prefixes", "three-prefixes", "rows"],
)
def test_blocks_spanning_several_blocks(group_blocks, row_block_bytes):
    """Prefix blocks of one to three prefixes and row blocks of one
    row up to a few chunks: many blocks per batch, the last partial,
    on both branches."""
    n_words, k = RULE_WORDS + 1, 4
    rng = random.Random(group_blocks)
    groups = [(nonzero, 2 * RULE_ROWS + 1) for nonzero in NONZERO_WORDS]
    n_items = len(groups) * (k - 1) + 8
    taxonomy = _taxonomy(n_items)
    design = _Design(n_items, n_words, seed=group_blocks)
    rows, _nonzero = _batch(design, k, groups, 8, rng)
    rng.shuffle(rows)
    with mock.patch.object(
        counting, "_GROUP_BLOCK_BYTES", group_blocks * n_words * 8
    ), mock.patch.object(counting, "_BLOCK_BYTES", row_block_bytes):
        grouped, sparse, against_prefix = _check(
            taxonomy, design, _n_rows(n_words), _node_rows(taxonomy, rows)
        )
    assert grouped and sparse and against_prefix


def test_prefix_keys_wider_than_one_word():
    """With 4,100 nodes at the level a node takes 13 bits, so a
    5-item prefix (k = 6) keys as two int64 words.  The prefixes here
    share their first four items and differ only in the fifth, which
    sits in the second word: a key cut to one word would merge them."""
    n_items, n_words, k = 4100, RULE_WORDS + 1, 6
    assert RowKeys(n_items).dtype(k - 1).kind == "V"
    taxonomy = _taxonomy(n_items)
    design = _Design(n_items, n_words, seed=6)
    rng = random.Random(6)
    # four items whose AND holds bit 0 of every word
    shared = design.prefix(k - 1, list(range(n_words)))
    # the fifth items come from the top of the id range
    design.next_item = n_items - 20
    lasts = [design.last() for _ in range(6)]
    rows = []
    for nonzero in (0, CHUNK, CHUNK + 1, 90):
        fifth = design.fresh()
        words = sorted(rng.sample(range(n_words), nonzero))
        inside = np.zeros(n_words, dtype=bool)
        inside[words] = True
        # the fifth item limits the shared prefix's AND to ``words``
        design.bits[fifth] = np.where(inside, np.uint64(1), np.uint64(0))
        for _ in range(RULE_ROWS):
            rows.append(shared + (fifth, rng.choice(lasts)))
    rng.shuffle(rows)
    grouped, sparse, against_prefix = _check(
        taxonomy, design, _n_rows(n_words), _node_rows(taxonomy, rows)
    )
    assert grouped and sparse and against_prefix


# ---------------------------------------------------------------------------
# a whole mine: grouped kernel vs dense kernel
# ---------------------------------------------------------------------------


def _mine_with_counts(database, thresholds):
    """Mine, recording every batch the bitmap backend counts."""
    counted = []
    original = BitmapBackend.supports

    def recording(backend, level, rows):
        counts = original(backend, level, rows)
        counted.append((level, rows.tolist(), counts.tolist()))
        return counts

    with mock.patch.object(BitmapBackend, "supports", recording):
        with FlipperMiner(database, thresholds) as miner:
            result = miner.mine()
            cells = {
                (level, k): (
                    sorted(
                        (itemset, entry.support)
                        for itemset, entry in cell.entries.items()
                    ),
                    cell.infrequent.tolist(),
                )
                for level, k, cell in miner.iter_cells()
            }
    patterns = json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )
    return counted, cells, patterns


def test_mine_on_grouped_kernel_equals_dense_kernel():
    """synthetic at 8,192 rows has 128-word planes, so its triples are
    grouped.  With the rule's width patched out of reach, the same
    mine on the dense kernel alone counts the same rows with the same
    supports, builds the same cells and returns the same patterns."""
    from repro.bench.profiles import (
        DEFAULT_MINSUP,
        bench_config,
        thresholds_for_profile,
    )
    from repro.datasets.synthetic import generate_synthetic

    database = generate_synthetic(bench_config(n_transactions=8192))
    thresholds = thresholds_for_profile(DEFAULT_MINSUP, gamma=0.2, epsilon=0.1)
    grouped_spy = mock.patch.object(
        counting,
        "_grouped_and_popcount",
        wraps=counting._grouped_and_popcount,
    )
    sparse_spy = mock.patch.object(
        counting,
        "_sparse_and_popcount",
        wraps=counting._sparse_and_popcount,
    )
    with grouped_spy as grouped, sparse_spy as sparse:
        on_grouped = _mine_with_counts(database, thresholds)
    assert grouped.called and sparse.called
    with mock.patch.object(
        counting, "_GROUP_MIN_WORDS", 1 << 40
    ), mock.patch.object(
        counting,
        "_grouped_and_popcount",
        side_effect=AssertionError("the dense kernel was forced"),
    ):
        on_dense = _mine_with_counts(database, thresholds)
    assert on_grouped[0] == on_dense[0]
    assert on_grouped[1] == on_dense[1]
    assert on_grouped[2] == on_dense[2]
    assert on_grouped[2] != "[]"
