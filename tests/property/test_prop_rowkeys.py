"""Property: row keys and the array subset filter are exact.

:class:`~repro.core.rowkeys.RowKeys` packs every ``(n, k)`` row into
one key.  Node ids here reach 2^20, so from k = 4 on (raw ids) or
k = 6 on (dense ranks over 2^12 nodes) a row no longer fits one int64
word and the keys take their wide form.  At every k, key equality,
key order and key membership must equal the same questions asked of
Python tuples.

:func:`~repro.core.candidates.prune_infrequent_subsets` is the subset
filter the miner runs; on random cells it must keep and drop exactly
what the tuple reference
:func:`~repro.core.candidates.filter_known_infrequent_subsets` does,
strict and non-strict.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.candidates import (
    filter_known_infrequent_subsets,
    prune_infrequent_subsets,
)
from repro.core.cells import Cell, CellEntry
from repro.core.labels import Label
from repro.core.rowkeys import RowKeys

TOP_ID = 1 << 20


@st.composite
def key_spaces(draw):
    """A key space and the node ids its rows may hold: raw ids below
    2^20 + 1, or the dense rank of up to 2^12 ids below 2^20."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        return RowKeys(TOP_ID + 1), None, rng
    universe = sorted(rng.sample(range(TOP_ID + 1), rng.randint(1, 1 << 12)))
    return RowKeys.of_nodes(universe), universe, rng


def _node(rng, universe):
    if universe is None:
        return rng.randint(0, TOP_ID)
    return rng.choice(universe)


@settings(max_examples=300, deadline=None)
@given(key_spaces(), st.integers(min_value=1, max_value=8))
def test_keys_equal_a_tuple_reference(space, k):
    keys, universe, rng = space
    rows = [
        tuple(_node(rng, universe) for _ in range(k))
        for _ in range(rng.randint(0, 40))
    ]
    if rows:
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 5))]
    matrix = np.array(rows, dtype=np.int64).reshape(-1, k)
    packed = keys.pack(matrix)
    assert packed.dtype == keys.dtype(k)
    # equal keys exactly for equal rows: one key per row, one row per key
    pairs = set(zip(rows, packed.tolist()))
    assert len(pairs) == len(set(rows)) == len(set(packed.tolist()))
    # key order is the rows' lexicographic order
    order = np.argsort(packed, kind="stable").tolist()
    assert [rows[i] for i in order] == sorted(rows)
    # membership in sorted keys is tuple-set membership
    probes = rows[: len(rows) // 2] + [
        tuple(_node(rng, universe) for _ in range(k)) for _ in range(10)
    ]
    probe_matrix = np.array(probes, dtype=np.int64).reshape(-1, k)
    found = RowKeys.contains(keys.sort(matrix), keys.pack(probe_matrix))
    members = set(rows)
    assert found.tolist() == [probe in members for probe in probes]


@st.composite
def cells_and_candidates(draw):
    """A (level, k-1) cell with frequent and counted-infrequent
    itemsets over a few nodes, and random canonical k-candidates."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    k = draw(st.integers(min_value=2, max_value=8))
    nodes = sorted(rng.sample(range(TOP_ID + 1), rng.randint(k, k + 4)))
    if draw(st.booleans()):
        cell = Cell(level=2, k=k - 1, keys=RowKeys(TOP_ID + 1))
    else:
        cell = Cell(level=2, k=k - 1, keys=RowKeys.of_nodes(nodes))
    subsets = [
        tuple(sorted(rng.sample(nodes, k - 1)))
        for _ in range(rng.randint(0, 12))
    ]
    infrequent: list[tuple[int, ...]] = []
    for itemset in dict.fromkeys(subsets):
        if rng.random() < 0.5:
            cell.add(
                CellEntry(
                    itemset=itemset,
                    support=5,
                    correlation=0.5,
                    label=Label.POSITIVE,
                )
            )
        else:
            infrequent.append(itemset)
    if infrequent:
        cell.add_infrequent(
            np.array(infrequent, dtype=np.int64),
            [rng.random() for _ in infrequent],
        )
    candidates = list(
        dict.fromkeys(
            tuple(sorted(rng.sample(nodes, k)))
            for _ in range(rng.randint(0, 20))
        )
    )
    return cell, candidates, k


@settings(max_examples=300, deadline=None)
@given(cells_and_candidates(), st.booleans())
def test_array_subset_filter_equals_the_tuple_reference(instance, strict):
    cell, candidates, k = instance
    rows = np.array(candidates, dtype=np.int64).reshape(-1, k)
    kept, dropped = prune_infrequent_subsets(rows, cell, strict=strict)
    reference, reference_dropped = filter_known_infrequent_subsets(
        candidates, cell, strict=strict
    )
    assert list(map(tuple, kept.tolist())) == reference
    assert dropped == reference_dropped
