"""Property: the array child expansion equals the scalar reference.

:func:`repro.core.candidates.expand_children` is what the miner runs.
Its reference is :func:`~repro.core.candidates.child_expansion_candidates`
with the same pair screen, then :func:`~repro.core.candidates.filter_banned`,
then a brute-force prefix-support filter.  Random parents, fanouts,
SIBP bans, dead pairs and transactions must give the same candidate
list, in the same order.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.candidates import (
    child_expansion_candidates,
    expand_children,
    filter_banned,
)


@st.composite
def expansion_instances(draw):
    rng = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(min_value=2, max_value=5))
    n_nodes = draw(st.integers(min_value=k, max_value=k + 2))
    fanouts = [rng.randint(0, 4) for _ in range(n_nodes)]
    # child ids are shuffled so a candidate's canonical order differs
    # from its parent-position order
    ids = list(range(100, 100 + sum(fanouts)))
    rng.shuffle(ids)
    children_of: dict[int, list[int]] = {}
    parent_of: dict[int, int] = {}
    cursor = 0
    for node, fanout in enumerate(fanouts):
        children_of[node] = ids[cursor : cursor + fanout]
        for child in children_of[node]:
            parent_of[child] = node
        cursor += fanout
    all_children = sorted(parent_of)
    subsets = list(combinations(range(n_nodes), k))
    parents = rng.sample(subsets, rng.randint(0, min(6, len(subsets))))
    p_infrequent = draw(st.sampled_from([0.0, 0.2]))
    p_banned = draw(st.sampled_from([0.0, 0.3]))
    p_dead = draw(st.sampled_from([0.0, 0.2, 0.5]))
    frequent = {c for c in all_children if rng.random() >= p_infrequent}
    banned = {
        child: rng.randint(1, k + 1)
        for child in all_children
        if rng.random() < p_banned
    }
    dead = {
        pair
        for pair in combinations(all_children, 2)
        if rng.random() < p_dead
    }
    transactions = [
        set(rng.sample(all_children, rng.randint(0, len(all_children))))
        for _ in range(rng.randint(0, 30))
    ]
    min_count = rng.randint(1, 3)
    return (
        k,
        parents,
        children_of,
        parent_of,
        frequent,
        banned,
        dead,
        transactions,
        min_count,
    )


@settings(max_examples=300, deadline=None)
@given(expansion_instances())
def test_array_expansion_matches_scalar_reference(instance):
    (
        k,
        parents,
        children_of,
        parent_of,
        frequent,
        banned,
        dead,
        transactions,
        min_count,
    ) = instance

    def support(itemset):
        return sum(1 for row in transactions if set(itemset) <= row)

    def frequent_pairs(pairs):
        assert all(a < b for a, b in pairs.tolist())
        return np.array(
            [pair not in dead for pair in map(tuple, pairs.tolist())],
            dtype=bool,
        )

    def frequent_prefixes(prefixes):
        assert len(prefixes)
        assert prefixes.ndim == 2
        assert 3 <= prefixes.shape[1] < k
        assert all(prefix == sorted(prefix) for prefix in prefixes.tolist())
        return np.array(
            [support(prefix) >= min_count for prefix in prefixes.tolist()],
            dtype=bool,
        )

    got = expand_children(
        np.array(parents, dtype=np.int64).reshape(-1, k),
        children_of,
        frequent,
        banned=banned,
        frequent_pairs=frequent_pairs,
        frequent_prefixes=frequent_prefixes,
    )

    reference = child_expansion_candidates(
        parents,
        children_of,
        frequent,
        pair_ok=lambda a, b: (min(a, b), max(a, b)) not in dead,
    )
    reference, _ = filter_banned(reference, banned)

    def prefixes_frequent(candidate):
        parent = sorted(parent_of[child] for child in candidate)
        position = {node: index for index, node in enumerate(parent)}
        for length in range(3, k):
            prefix = sorted(
                child
                for child in candidate
                if position[parent_of[child]] < length
            )
            if support(prefix) < min_count:
                return False
        return True

    reference = [c for c in reference if prefixes_frequent(c)]
    assert list(map(tuple, got.candidates.tolist())) == reference
    assert got.banned_children == sum(
        1
        for node in {node for parent in parents for node in parent}
        for child in children_of[node]
        if child in frequent and banned.get(child, k) < k
    )
