"""Vertical (bitmap) index over a transaction database, in pure Python.

For each taxonomy level ``h`` and each node at that level, the index
stores the set of transactions whose level-``h`` projection contains
the node, encoded as a Python ``int`` bitset (bit ``t`` set when
transaction ``t`` qualifies).  Support of an (h,k)-itemset is then the
popcount of the AND of k bitsets.

This is the reference counter: the brute-force oracle, significance
testing, discriminative mining, the planted generator and dataset
profiling count through it, and the packed-word kernel of
:class:`~repro.core.counting.BitmapBackend` is tested against it.  It
shares no code with that kernel.

Level bitsets are derived bottom-up: the bitset of an internal node is
the OR of the bitsets of the items below it, which mirrors the paper's
"replace items in transactions by their generalizations" semantics
(duplicates collapse automatically in a bitset).
"""

from __future__ import annotations

from repro.data.database import TransactionDatabase
from repro.errors import DataError

__all__ = ["VerticalIndex"]


class VerticalIndex:
    """Per-level bitmap index of a :class:`TransactionDatabase`."""

    def __init__(self, database: TransactionDatabase) -> None:
        self._database = database
        taxonomy = database.taxonomy
        self._height = taxonomy.height
        positions: dict[int, list[int]] = {
            item: [] for item in database.item_ids
        }
        for position, transaction in enumerate(database):
            for item in transaction:
                rows = positions.get(item)
                if rows is None:
                    raise DataError(
                        f"transaction {position}: item id {item} is not "
                        "an item of the bound taxonomy"
                    )
                rows.append(position)
        # each item's bitset is assembled once, in a byte buffer: OR-ing
        # ``1 << position`` into an int would copy the int every time
        width = (len(database) + 7) // 8
        item_bits: dict[int, int] = {}
        for item, rows in positions.items():
            raw = bytearray(width)
            for row in rows:
                raw[row >> 3] |= 1 << (row & 7)
            item_bits[item] = int.from_bytes(raw, "little")
        # level height..1: bitset of node = OR over items beneath it
        self._bitsets: dict[int, dict[int, int]] = {}
        for level in range(1, self._height + 1):
            bits: dict[int, int] = {}
            for node_id in taxonomy.nodes_at_level(level):
                value = 0
                for item in taxonomy.item_leaves(node_id):
                    value |= item_bits[item]
                bits[node_id] = value
            self._bitsets[level] = bits

    # ------------------------------------------------------------------

    @property
    def database(self) -> TransactionDatabase:
        return self._database

    @property
    def height(self) -> int:
        return self._height

    def bitset(self, level: int, node_id: int) -> int:
        """Transaction bitset of a single node at ``level``."""
        try:
            return self._bitsets[level][node_id]
        except KeyError:
            raise DataError(
                f"node {node_id} is not at taxonomy level {level}"
            ) from None

    def support_of_node(self, level: int, node_id: int) -> int:
        """Support (transaction count) of a single node."""
        return self.bitset(level, node_id).bit_count()

    def support(self, level: int, itemset: tuple[int, ...]) -> int:
        """Support of an (h,k)-itemset of node ids at ``level``."""
        bits = self._bitsets[level]
        try:
            value = bits[itemset[0]]
            for node_id in itemset[1:]:
                value &= bits[node_id]
                if not value:
                    return 0
            return value.bit_count()
        except KeyError as exc:
            raise DataError(
                f"itemset {itemset} contains a node not at level {level}"
            ) from exc
        except IndexError:
            raise DataError(
                "support of an empty itemset is undefined"
            ) from None

    def itemset_bitset(self, level: int, itemset: tuple[int, ...]) -> int:
        """Raw AND-bitset of an itemset (for callers that reuse it)."""
        bits = self._bitsets[level]
        value = bits[itemset[0]]
        for node_id in itemset[1:]:
            value &= bits[node_id]
        return value

    def node_supports(self, level: int) -> dict[int, int]:
        """Support of every node at ``level`` (single scan of the index)."""
        return {
            node_id: value.bit_count()
            for node_id, value in self._bitsets[level].items()
        }
