"""Property: the array child expansion equals the scalar reference.

:func:`repro.core.candidates.expand_children` is what the miner runs.
Its reference is :func:`~repro.core.candidates.child_expansion_candidates`
with the same pair screen, then :func:`~repro.core.candidates.filter_banned`,
then a brute-force prefix-support filter.  Random parents, fanouts (up
to 8), SIBP bans, dead pairs and transactions must give the same
candidate list, in the same order.  Parents may share a node pair at
different positions, and one node pair may have every child pair
dead, so the pair table's blocks and its partner lists are read from
every position.  The screen must be asked once, for canonical,
distinct pairs.
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

#: the largest product of one parent's fanouts the strategy draws
#: (8 children per node up to k = 4, fewer beyond)
PRODUCT_BUDGET = 4096


def _shifted(parent, n_nodes):
    """Another parent that holds a node pair of ``parent`` at other
    positions (one node swapped for a node outside it), or None."""
    for node in range(n_nodes):
        if node in parent:
            continue
        for dropped in parent:
            other = tuple(sorted({*parent, node} - {dropped}))
            if any(
                parent.index(a) != other.index(a)
                for a in other
                if a != node
            ):
                return other
    return None


@st.composite
def expansion_instances(draw):
    rng = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(min_value=2, max_value=6))
    n_nodes = draw(st.integers(min_value=k + 1, max_value=k + 3))
    top = min(8, int(round(PRODUCT_BUDGET ** (1 / k))))
    fanouts = [rng.randint(0, top) for _ in range(n_nodes)]
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
    if parents and draw(st.booleans()):
        shifted = _shifted(parents[0], n_nodes)
        if shifted is not None and shifted not in parents:
            parents.append(shifted)
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
    if parents and draw(st.booleans()):
        # a node pair whose every child pair is dead
        first, second = rng.sample(rng.choice(parents), 2)
        dead |= {
            (min(a, b), max(a, b))
            for a in children_of[first]
            for b in children_of[second]
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

    screens = []

    def frequent_pairs(pairs):
        screens.append(len(pairs))
        assert all(a < b for a, b in pairs.tolist())
        assert len(set(map(tuple, pairs.tolist()))) == len(pairs)
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
    assert len(screens) <= (1 if k >= 3 else 0)
    assert got.banned_children == sum(
        1
        for node in {node for parent in parents for node in parent}
        for child in children_of[node]
        if child in frequent and banned.get(child, k) < k
    )
