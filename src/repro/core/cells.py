"""Cells of the two-dimensional search space (paper Fig. 6).

The search space is the table ``M`` whose cell ``Q(h,k)`` holds the
k-itemsets at taxonomy level ``h``.  A :class:`Cell` records every
*counted* candidate of one cell.  Frequent ones keep a
:class:`CellEntry` with their support, correlation, Definition-1 label
and the chain-alive flag used for vertical extension.  Infrequent ones
— nearly all of a wide cell — are kept only as far as the pruning
rules read them: membership, for the Apriori subset test, and their
correlations folded into the per-item maximum SIBP walks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.labels import Label

__all__ = ["CellEntry", "Cell"]


@dataclass
class CellEntry:
    """One counted (h,k)-itemset.

    ``alive`` means the itemset's whole vertical chain from level 1
    down to its own level consists of signed labels that alternate —
    i.e. the itemset can still head a flipping pattern (Definition 2).
    """

    itemset: tuple[int, ...]
    support: int
    correlation: float
    label: Label
    alive: bool = False

    @property
    def is_frequent(self) -> bool:
        """Counted and above the level's minimum support (any label
        other than INFREQUENT)."""
        return self.label is not Label.INFREQUENT


@dataclass
class Cell:
    """All counted candidates of one ``Q(h,k)`` cell."""

    level: int
    k: int
    #: the frequent counted itemsets
    entries: dict[tuple[int, ...], CellEntry] = field(default_factory=dict)
    #: candidates generated for the cell (counted + filtered out), for stats
    n_candidates: int = 0
    #: the counted itemsets found infrequent
    infrequent: set[tuple[int, ...]] = field(default_factory=set)
    #: per-item maximum correlation over ``infrequent``
    _infrequent_max: dict[int, float] = field(default_factory=dict, repr=False)

    def add(self, entry: CellEntry) -> None:
        if entry.is_frequent:
            self.entries[entry.itemset] = entry
        else:
            self.add_infrequent([entry.itemset], [entry.correlation])

    def add_infrequent(
        self,
        itemsets: Sequence[tuple[int, ...]],
        correlations: Sequence[float] | np.ndarray,
    ) -> None:
        """Record counted itemsets that fell below the minimum
        support, with their correlations."""
        if not itemsets:
            return
        self.infrequent.update(itemsets)
        items = np.fromiter(chain.from_iterable(itemsets), dtype=np.int64)
        values = np.repeat(
            np.asarray(correlations, dtype=np.float64),
            [len(itemset) for itemset in itemsets],
        )
        best = np.full(int(items.max()) + 1, -np.inf)
        np.maximum.at(best, items, values)
        present = np.zeros(len(best), dtype=bool)
        present[items] = True
        nodes = np.flatnonzero(present)
        merged = self._infrequent_max
        for node, value in zip(nodes.tolist(), best[nodes].tolist()):
            current = merged.get(node)
            if current is None or value > current:
                merged[node] = value

    def get(self, itemset: tuple[int, ...]) -> CellEntry | None:
        """The entry of a *frequent* counted itemset."""
        return self.entries.get(itemset)

    def __len__(self) -> int:
        return len(self.entries) + len(self.infrequent)

    def __contains__(self, itemset: tuple[int, ...]) -> bool:
        return itemset in self.entries or itemset in self.infrequent

    # ------------------------------------------------------------------
    # aggregate views used by the pruning rules
    # ------------------------------------------------------------------

    @property
    def frequent_itemsets(self) -> list[tuple[int, ...]]:
        """Canonical itemsets of the frequent entries."""
        return list(self.entries)

    @property
    def n_frequent(self) -> int:
        return len(self.entries)

    @property
    def n_labeled(self) -> int:
        """Number of signed (positive or negative) entries."""
        return sum(
            1 for entry in self.entries.values() if entry.label.is_signed
        )

    @property
    def n_alive(self) -> int:
        return sum(1 for entry in self.entries.values() if entry.alive)

    @property
    def alive_entries(self) -> list[CellEntry]:
        return [entry for entry in self.entries.values() if entry.alive]

    @property
    def has_positive(self) -> bool:
        """True when some *frequent* entry is positive — the quantity
        TPG (Theorem 3) checks.  Infrequent candidates are excluded:
        the theorem's induction runs entirely inside frequent itemsets
        (subsets of frequent itemsets are frequent)."""
        return any(
            entry.label is Label.POSITIVE for entry in self.entries.values()
        )

    def max_correlation_per_item(self) -> dict[int, float]:
        """For SIBP: the maximum correlation over counted entries
        containing each single item, infrequent ones included.  Items
        absent from every counted entry are absent from the result
        (the SIBP walk must not treat a vacuous maximum as evidence —
        see ARCHITECTURE.md, "SIBP vacuous-max guard")."""
        best = dict(self._infrequent_max)
        for entry in self.entries.values():
            for item in entry.itemset:
                current = best.get(item)
                if current is None or entry.correlation > current:
                    best[item] = entry.correlation
        return best
