"""Multi-level frequent itemset mining (Han & Fu, VLDB 1995 [7]).

Progressive deepening with per-level reduced minimum supports: mine
level 1 with a high threshold, then descend only into the children of
*frequent* level-1 items, mine level 2 with a lower threshold, and so
on (the "filtered" ML_T2L1 variant of [7]).  Each level is mined
level-specific — items of one level only — which makes this the
closest structural ancestor of Flipper's search-space table: the same
per-level thresholds ``θ_h``, the same top-down descent, but only
support pruning and no notion of correlation sign, let alone a flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.counting import BitmapBackend
from repro.core.itemsets import apriori_join, has_infrequent_subset
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError

__all__ = ["MultiLevelResult", "mine_multilevel"]


@dataclass
class MultiLevelResult:
    """Per-level frequent itemsets plus descent accounting."""

    #: level -> {canonical itemset -> support}
    frequent: dict[int, dict[tuple[int, ...], int]] = field(
        default_factory=dict
    )
    #: level -> nodes examined (children of frequent parents only)
    examined_nodes: dict[int, int] = field(default_factory=dict)
    #: level -> nodes skipped because their parent was infrequent
    skipped_nodes: dict[int, int] = field(default_factory=dict)

    def itemsets_at(self, level: int) -> dict[tuple[int, ...], int]:
        return self.frequent.get(level, {})

    @property
    def total_frequent(self) -> int:
        return sum(len(per_level) for per_level in self.frequent.values())

    def summary(self) -> str:
        parts = [
            f"h{level}: {len(itemsets)} frequent "
            f"({self.examined_nodes.get(level, 0)} nodes examined, "
            f"{self.skipped_nodes.get(level, 0)} skipped)"
            for level, itemsets in sorted(self.frequent.items())
        ]
        return "multi-level mining: " + "; ".join(parts)


def mine_multilevel(
    database: TransactionDatabase,
    thresholds: Thresholds | list[int] | list[float],
    *,
    max_k: int | None = None,
) -> MultiLevelResult:
    """Han-Fu progressive deepening over all taxonomy levels.

    Parameters
    ----------
    database:
        Transactions bound to a (balanced) taxonomy.
    thresholds:
        Either a :class:`Thresholds` (its per-level minimum supports
        are used; γ/ε are ignored) or a plain list of per-level
        supports, one per taxonomy level, non-increasing as in [7].
    max_k:
        Optional cap on itemset size per level.

    Returns
    -------
    :class:`MultiLevelResult` with the frequent itemsets of every
    level and the descent statistics (how much of the tree the
    parent-filter pruned).
    """
    taxonomy = database.taxonomy
    height = taxonomy.height
    if isinstance(thresholds, Thresholds):
        resolved = thresholds.resolve(height, database.n_transactions)
        min_counts = [resolved.min_count(h) for h in range(1, height + 1)]
    else:
        resolved_thresholds = Thresholds(
            gamma=1.0, epsilon=0.0, min_support=list(thresholds)
        )
        resolved = resolved_thresholds.resolve(height, database.n_transactions)
        min_counts = [resolved.min_count(h) for h in range(1, height + 1)]
    if max_k is not None and max_k < 1:
        raise ConfigError(f"max_k must be >= 1, got {max_k}")

    backend = BitmapBackend(database)
    result = MultiLevelResult()
    frequent_parents: set[int] | None = None  # None = level 1 (no filter)

    for level in range(1, height + 1):
        min_count = min_counts[level - 1]
        node_supports = backend.node_supports(level)
        if frequent_parents is None:
            eligible = set(node_supports)
            skipped = 0
        else:
            eligible = {
                node
                for node in node_supports
                if taxonomy.parent_id(node) in frequent_parents
            }
            skipped = len(node_supports) - len(eligible)
        result.examined_nodes[level] = len(eligible)
        result.skipped_nodes[level] = skipped

        level_frequent: dict[tuple[int, ...], int] = {}
        frequent_nodes = {
            node
            for node in eligible
            if node_supports[node] >= min_count
        }
        for node in frequent_nodes:
            level_frequent[(node,)] = node_supports[node]

        previous: set[tuple[int, ...]] = {(n,) for n in frequent_nodes}
        k = 2
        while previous and (max_k is None or k <= max_k):
            candidates = [
                candidate
                for candidate in apriori_join(previous)
                if k == 2 or not has_infrequent_subset(candidate, previous)
            ]
            if not candidates:
                break
            counts = backend.supports(
                level, np.array(candidates, dtype=np.int64)
            ).tolist()
            current: set[tuple[int, ...]] = set()
            for itemset, support in zip(candidates, counts):
                if support >= min_count:
                    current.add(itemset)
                    level_frequent[itemset] = support
            previous = current
            k += 1

        result.frequent[level] = level_frequent
        frequent_parents = frequent_nodes
    return result
