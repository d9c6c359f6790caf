"""Exact keys for itemset rows.

The engine hands candidate itemsets from stage to stage as ``(n, k)``
int64 matrices of node ids, one itemset per row.  Every membership
test on them — a cell's frequent or counted-infrequent itemsets, the
pair-screen cache, the subset filter — needs one comparable value per
row.  :class:`RowKeys` is the one place that encodes rows as keys.

A row's values are first mapped to their dense rank among a level's
nodes (ascending node id, which is also the bitmap plane-row order),
then packed ``bits`` per value, first value most significant, where
``bits`` is the width of the largest rank.  As many values as fit in
63 bits share one int64 word.  A row that fits one word keys as that
int64.  A wider row keys as its words written big-endian and viewed
as one fixed-width ``void`` record, which NumPy sorts and compares
bytewise.  Both forms are exact for every k — equal keys mean equal
rows — and sort in the rows' lexicographic order, so membership in a
sorted key array is one ``searchsorted``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["RowKeys", "index_of"]


def index_of(nodes: np.ndarray) -> np.ndarray:
    """Lookup array of a node list: ``lookup[node]`` is the node's
    position in ``nodes``, and -1 for every id not in it."""
    size = int(nodes.max()) + 1 if len(nodes) else 0
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[nodes] = np.arange(len(nodes), dtype=np.int64)
    return lookup


class RowKeys:
    """The key space of rows whose values lie in ``[0, base)``.

    With ``rank`` given, a row holds node ids and ``rank[node]`` is
    the value packed (see :meth:`of_nodes`).
    """

    def __init__(self, base: int, rank: np.ndarray | None = None) -> None:
        self._bits = max(1, (base - 1).bit_length())
        if self._bits > 63:
            raise ValueError(f"values below {base} do not fit an int64")
        self.base = base
        self.rank = rank
        #: values packed into one int64 word
        self._per_word = 63 // self._bits

    @classmethod
    def of_nodes(cls, nodes: Iterable[int]) -> "RowKeys":
        """Keys over the dense rank of ``nodes``, in ascending id
        order."""
        ordered = np.unique(np.fromiter(nodes, dtype=np.int64))
        return cls(max(1, len(ordered)), index_of(ordered))

    def dtype(self, k: int) -> np.dtype:
        """The dtype of the keys of width-``k`` rows."""
        words = -(-k // self._per_word)
        if words <= 1:
            return np.dtype(np.int64)
        return np.dtype(f"V{8 * words}")

    def covers(self, rows: np.ndarray) -> np.ndarray:
        """Per row: do all its values belong to this key space?"""
        top = self.base if self.rank is None else len(self.rank)
        inside = ((rows >= 0) & (rows < top)).all(axis=1)
        if self.rank is not None:
            ranked = self.rank[np.where(inside[:, None], rows, 0)]
            inside &= (ranked >= 0).all(axis=1)
        return inside

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The key of every row of an ``(n, k)`` matrix whose values
        all belong to this key space (see :meth:`covers`)."""
        values = rows if self.rank is None else self.rank[rows]
        n, k = values.shape
        words = []
        for start in range(0, k, self._per_word):
            word = np.zeros(n, dtype=np.int64)
            for column in values.T[start : start + self._per_word]:
                word <<= self._bits
                word |= column
            words.append(word)
        if len(words) <= 1:
            return words[0] if words else np.zeros(n, dtype=np.int64)
        wide = np.empty((n, len(words)), dtype=">i8")
        for index, word in enumerate(words):
            wide[:, index] = word
        return wide.view(self.dtype(k)).ravel()

    @staticmethod
    def find(
        sorted_keys: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where each of ``keys`` sits in the ascending ``sorted_keys``,
        and whether it is there."""
        if not len(sorted_keys):
            return (
                np.zeros(len(keys), dtype=np.intp),
                np.zeros(len(keys), dtype=bool),
            )
        index = np.searchsorted(sorted_keys, keys)
        np.minimum(index, len(sorted_keys) - 1, out=index)
        return index, sorted_keys[index] == keys

    @staticmethod
    def contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Membership of each of ``keys`` in the ascending
        ``sorted_keys``."""
        return RowKeys.find(sorted_keys, keys)[1]
