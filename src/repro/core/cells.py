"""Cells of the two-dimensional search space (paper Fig. 6).

The search space is the table ``M`` whose cell ``Q(h,k)`` holds the
k-itemsets at taxonomy level ``h``.  A :class:`Cell` records every
*counted* candidate of one cell.  Frequent ones keep a
:class:`CellEntry` with their support, correlation, Definition-1 label
and the chain-alive flag used for vertical extension.  Infrequent ones
— nearly all of a wide cell — are kept only as far as the pruning
rules read them: as sorted row keys (see :mod:`repro.core.rowkeys`),
for the subset and prefix tests, and with their correlations folded
into the per-item maximum SIBP walks.  :meth:`Cell.find` answers
membership for a whole row matrix with one ``searchsorted`` per key
array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.labels import LABELS_BY_CODE, Label
from repro.core.rowkeys import RowKeys

__all__ = ["CellEntry", "Cell"]

#: key space of a cell built outside a mine: raw node ids below 2^31
_RAW_IDS = RowKeys(1 << 31)


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
    #: the key space of the cell's rows (a mine passes its level's)
    keys: RowKeys = field(default=_RAW_IDS, repr=False)
    #: sorted keys of the counted itemsets found infrequent
    infrequent: np.ndarray = field(init=False, repr=False)
    #: sorted keys of ``entries`` with their label codes and alive
    #: flags in key order, built on first use
    _frequent: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )
    #: per-item maximum correlation over ``infrequent``
    _infrequent_max: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.infrequent = np.zeros(0, dtype=self.keys.dtype(self.k))

    def add(self, entry: CellEntry) -> None:
        if entry.is_frequent:
            self.entries[entry.itemset] = entry
            self._frequent = None
        else:
            self.add_infrequent(
                np.array([entry.itemset], dtype=np.int64), [entry.correlation]
            )

    def add_infrequent(
        self, rows: np.ndarray, correlations: np.ndarray | list[float]
    ) -> None:
        """Record counted itemsets (an ``(n, k)`` row matrix) that fell
        below the minimum support, with their correlations."""
        if not len(rows):
            return
        self.infrequent = np.sort(
            np.concatenate((self.infrequent, self.keys.pack(rows)))
        )
        items = rows.ravel()
        values = np.repeat(np.asarray(correlations, dtype=np.float64), self.k)
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

    def _frequent_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._frequent is None:
            entries = list(self.entries.values())
            rows = np.array(
                [entry.itemset for entry in entries], dtype=np.int64
            )
            keys = self.keys.pack(rows.reshape(-1, self.k))
            codes = np.array(
                [LABELS_BY_CODE.index(entry.label) for entry in entries],
                dtype=np.int8,
            )
            alive = np.array([entry.alive for entry in entries], dtype=bool)
            order = np.argsort(keys, kind="stable")
            self._frequent = (keys[order], codes[order], alive[order])
        return self._frequent

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of an ``(n, k)`` matrix of this cell's nodes: is it
        a frequent entry, and is it a counted-infrequent itemset?"""
        keys = self.keys.pack(rows)
        return (
            RowKeys.contains(self._frequent_table()[0], keys),
            RowKeys.contains(self.infrequent, keys),
        )

    def find_entries(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row of an ``(n, k)`` matrix of this cell's nodes: is it
        a frequent entry, and that entry's label code (an index into
        :data:`~repro.core.labels.LABELS_BY_CODE`) and alive flag
        (both 0 where it is not)."""
        keys, codes, alive = self._frequent_table()
        index, found = RowKeys.find(keys, self.keys.pack(rows))
        if not len(keys):
            return found, np.zeros(len(rows), dtype=np.int8), found.copy()
        return found, np.where(found, codes[index], 0), found & alive[index]

    def get(self, itemset: tuple[int, ...]) -> CellEntry | None:
        """The entry of a *frequent* counted itemset."""
        return self.entries.get(itemset)

    def __len__(self) -> int:
        return len(self.entries) + len(self.infrequent)

    def __contains__(self, itemset: tuple[int, ...]) -> bool:
        if itemset in self.entries:
            return True
        if len(itemset) != self.k or not len(self.infrequent):
            return False
        row = np.array([itemset], dtype=np.int64)
        if not self.keys.covers(row)[0]:
            return False
        return bool(RowKeys.contains(self.infrequent, self.keys.pack(row))[0])

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
