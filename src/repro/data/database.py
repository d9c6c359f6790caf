"""Transaction database substrate.

A :class:`TransactionDatabase` holds the market-basket observations
(set ``D`` in the paper) bound to a :class:`~repro.taxonomy.Taxonomy`.
Items are the taxonomy's leaves; internally each transaction is a
sorted tuple of item ids with duplicates removed.  All support
counting is delegated to a pluggable backend
(:mod:`repro.core.counting`), which consumes the per-level projections
exposed here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import DataError, TaxonomyError
from repro.taxonomy.rebalance import rebalance_with_copies
from repro.taxonomy.tree import Taxonomy

__all__ = ["TransactionDatabase"]


class TransactionDatabase:
    """Immutable collection of transactions over a taxonomy's items.

    Parameters
    ----------
    transactions:
        Iterable of iterables of item *names*.
    taxonomy:
        The taxonomy whose leaves define the item universe.  Unbalanced
        taxonomies are automatically rebalanced with leaf copies
        (paper Fig. 3 [B]); pass ``rebalance=False`` to forbid that.
    strict:
        When True (default) transactions containing unknown items
        raise :class:`DataError`; when False unknown items are
        silently dropped (useful for sampled external data).
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[str]],
        taxonomy: Taxonomy,
        *,
        rebalance: bool = True,
        strict: bool = True,
    ) -> None:
        if not taxonomy.is_balanced:
            if not rebalance:
                raise TaxonomyError(
                    "taxonomy is unbalanced and rebalance=False"
                )
            taxonomy = rebalance_with_copies(taxonomy)
        self._taxonomy = taxonomy
        # items are the original leaves of the (balanced) tree
        compiled = taxonomy.compiled
        self._item_ids: list[int] = compiled.item_ids.tolist()
        self._id_by_name = compiled.item_id_by_name
        encoded: list[tuple[int, ...]] = []
        for index, raw in enumerate(transactions):
            ids: set[int] = set()
            for name in raw:
                item_id = self._id_by_name.get(name)
                if item_id is None:
                    if strict:
                        raise DataError(
                            f"transaction {index}: unknown item {name!r}"
                        )
                    continue
                ids.add(item_id)
            encoded.append(tuple(sorted(ids)))
        if not encoded:
            raise DataError("transaction database is empty")
        self._transactions: list[tuple[int, ...]] = encoded

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[str]],
        taxonomy: Taxonomy,
        **kwargs: object,
    ) -> "TransactionDatabase":
        """Alias of the constructor, for symmetry with other factories."""
        return cls(transactions, taxonomy, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def taxonomy(self) -> Taxonomy:
        """The (balanced) taxonomy the database is bound to."""
        return self._taxonomy

    @property
    def n_transactions(self) -> int:
        return len(self._transactions)

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._transactions)

    def transaction(self, index: int) -> tuple[int, ...]:
        """The ``index``-th transaction as a sorted tuple of item ids."""
        return self._transactions[index]

    def transaction_names(self, index: int) -> tuple[str, ...]:
        """The ``index``-th transaction as item names."""
        return tuple(
            self._taxonomy.name_of(item) for item in self._transactions[index]
        )

    @property
    def item_ids(self) -> list[int]:
        """All item ids of the taxonomy (present in transactions or not)."""
        return list(self._item_ids)

    def item_id(self, name: str) -> int:
        try:
            return self._id_by_name[name]
        except KeyError:
            raise DataError(f"unknown item {name!r}") from None

    def item_name(self, item_id: int) -> str:
        return self._taxonomy.name_of(item_id)

    # ------------------------------------------------------------------
    # shape statistics
    # ------------------------------------------------------------------

    @property
    def max_width(self) -> int:
        """Largest number of distinct items in a single transaction."""
        return max(len(t) for t in self._transactions)

    @property
    def mean_width(self) -> float:
        """Average number of distinct items per transaction."""
        total = sum(len(t) for t in self._transactions)
        return total / len(self._transactions)

    def width_at_level(self, level: int) -> int:
        """Largest distinct-node width after projecting to ``level``.

        Bounds the itemset size ``K`` explored at that level: a
        transaction can support a k-itemset only if its projection has
        at least k distinct nodes.
        """
        ancestor = self._taxonomy.compiled.item_ancestors(level).tolist()
        best = 0
        for transaction in self._transactions:
            width = len({ancestor[item] for item in transaction})
            if width > best:
                best = width
        return best

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------

    def project_to_level(self, level: int) -> list[frozenset[int]]:
        """Every transaction with items replaced by their level-``level``
        generalizations (duplicates collapse, matching the paper's
        Example 3)."""
        ancestor = self._taxonomy.compiled.item_ancestors(level).tolist()
        return [
            frozenset(ancestor[item] for item in transaction)
            for transaction in self._transactions
        ]

    def describe(self) -> str:
        """Multi-line summary used by the CLI and examples."""
        return (
            f"TransactionDatabase: {self.n_transactions} transactions, "
            f"{len(self._item_ids)} items, "
            f"mean width {self.mean_width:.2f}, max width {self.max_width}, "
            f"taxonomy height {self._taxonomy.height}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TransactionDatabase(n={self.n_transactions}, "
            f"items={len(self._item_ids)})"
        )
