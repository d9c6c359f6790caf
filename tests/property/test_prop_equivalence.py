"""Property-based equivalence of the mining ladder.

The brute-force enumerator (repro.core.basic) is the ground truth.
On random small databases with random taxonomies and thresholds:

* the BASIC Apriori configuration must match it exactly (both are
  complete by construction);
* the flipping / +TPG / +SIBP configurations must never report a
  false pattern (soundness), and in practice match exactly — the
  theoretical corner case where TPG over-prunes is documented in
  ARCHITECTURE.md ("TPG corner case") and exercised deterministically
  in tests/regression/test_tpg_corner_case.py.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import (
    PruningConfig,
    Taxonomy,
    Thresholds,
    TransactionDatabase,
    mine_flipping_bruteforce,
    mine_flipping_patterns,
)


@st.composite
def mining_instances(draw):
    """Random taxonomy (2-3 levels, 2-3 categories), random
    transactions, random thresholds."""
    n_categories = draw(st.integers(min_value=2, max_value=3))
    height = draw(st.integers(min_value=2, max_value=3))
    fanout = draw(st.integers(min_value=1, max_value=2))

    tree: dict = {}
    leaves: list[str] = []
    for c in range(n_categories):
        cat = f"c{c}"
        if height == 2:
            children = [f"{cat}x{j}" for j in range(fanout + 1)]
            tree[cat] = children
            leaves.extend(children)
        else:
            subtree = {}
            for m in range(fanout):
                mid = f"{cat}m{m}"
                children = [f"{mid}x{j}" for j in range(fanout + 1)]
                subtree[mid] = children
                leaves.extend(children)
            tree[cat] = subtree
    if draw(st.booleans()):
        # an unbalanced top-level item (like CENSUS income), repaired
        # by the database via rebalancing copies
        tree["solo"] = None
        leaves.append("solo")
    taxonomy = Taxonomy.from_dict(tree)

    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    n_transactions = draw(st.integers(min_value=4, max_value=30))
    transactions = []
    for _ in range(n_transactions):
        width = rng.randint(1, min(len(leaves), 5))
        transactions.append(rng.sample(leaves, width))
    database = TransactionDatabase(transactions, taxonomy)

    gamma = draw(st.floats(min_value=0.3, max_value=0.9))
    epsilon = draw(st.floats(min_value=0.05, max_value=0.25))
    theta = draw(st.integers(min_value=1, max_value=3))
    thresholds = Thresholds(gamma=gamma, epsilon=epsilon, min_support=theta)
    return database, thresholds


def pattern_keys(patterns):
    return sorted(p.leaf_names for p in patterns)


@given(mining_instances())
@settings(max_examples=120, deadline=None)
def test_basic_matches_bruteforce(instance):
    database, thresholds = instance
    oracle = mine_flipping_bruteforce(database, thresholds)
    basic = mine_flipping_patterns(
        database, thresholds, pruning=PruningConfig.basic()
    )
    assert pattern_keys(basic.patterns) == pattern_keys(oracle)


@given(mining_instances())
@settings(max_examples=120, deadline=None)
def test_flipper_full_matches_bruteforce(instance):
    database, thresholds = instance
    oracle = mine_flipping_bruteforce(database, thresholds)
    full = mine_flipping_patterns(
        database, thresholds, pruning=PruningConfig.full()
    )
    assert pattern_keys(full.patterns) == pattern_keys(oracle)


@given(mining_instances())
@settings(max_examples=80, deadline=None)
def test_ladder_is_sound(instance):
    """No configuration may ever report a non-pattern (soundness)."""
    database, thresholds = instance
    oracle = set(pattern_keys(mine_flipping_bruteforce(database, thresholds)))
    for config in PruningConfig.ladder():
        result = mine_flipping_patterns(database, thresholds, pruning=config)
        reported = set(pattern_keys(result.patterns))
        assert reported <= oracle, config.name


@given(mining_instances())
@settings(max_examples=60, deadline=None)
def test_chain_values_match_oracle(instance):
    """When both find a pattern, supports and correlations agree."""
    database, thresholds = instance
    oracle = {
        p.leaf_names: p for p in mine_flipping_bruteforce(database, thresholds)
    }
    result = mine_flipping_patterns(database, thresholds)
    for pattern in result.patterns:
        reference = oracle[pattern.leaf_names]
        for mine_link, ref_link in zip(pattern.links, reference.links):
            assert mine_link.support == ref_link.support
            assert abs(mine_link.correlation - ref_link.correlation) < 1e-12
            assert mine_link.label is ref_link.label
