"""The default stages of one cell visit.

Ported from the pre-engine ``FlipperMiner._process_cell`` monolith and
split along the data handoffs (see :mod:`repro.engine.plan`):

* :class:`GenerateStage` — pick the generation regime (row join vs
  child expansion) and apply the known-infrequent-subset filter.
  Child expansion is one array-level path under every executor: it
  drops SIBP-banned children and prunes prefixes by the pair screen
  and by batch-counted prefix supports while it expands.
* :class:`CountStage` — hand the candidate batch to the executor,
  which chunks it and counts through
  :meth:`~repro.core.counting.CountingBackend.supports_batched`.
* :class:`LabelStage` — correlation, Definition-1 label and the
  chain-alive flag for every counted candidate, as array operations
  over the batch; builds the :class:`~repro.core.cells.Cell`.
* :class:`SibpRemovalStage` — the per-cell half of SIBP: the R_h
  removal-candidate list (Theorem 2).  The cross-cell ban application
  stays in the sweep.

``build_default_stages`` assembles them in order.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from repro.core.candidates import (
    expand_children,
    filter_known_infrequent_subsets,
    pair_candidates,
    row_join_candidates,
)
from repro.core.cells import Cell, CellEntry
from repro.core.labels import LABELS_BY_CODE, Label, flips, label_codes
from repro.engine.plan import CellState, MiningContext, Stage

__all__ = [
    "GenerateStage",
    "CountStage",
    "LabelStage",
    "SibpRemovalStage",
    "build_default_stages",
]


class GenerateStage:
    """Candidate generation + the pre-count subset filter."""

    name = "generate"

    def run(self, context: MiningContext, state: CellState) -> None:
        level, k = state.task.level, state.task.k
        if level == 1 or not context.pruning.flipping:
            candidates = self._row_join(context, level, k)
        else:
            candidates = self._expand(context, state)
        state.stats.candidates = len(candidates)
        cell_left = context.cells.get((level, k - 1))
        candidates, dropped = filter_known_infrequent_subsets(
            candidates, cell_left, strict=not context.pruning.flipping
        )
        state.stats.filtered_subset = dropped
        state.candidates = candidates

    # -- generation regimes -------------------------------------------

    def _row_join(
        self, context: MiningContext, level: int, k: int
    ) -> list[tuple[int, ...]]:
        if k == 2:
            return pair_candidates(sorted(context.frequent_items[level]))
        cell_left = context.cells.get((level, k - 1))
        if cell_left is None:
            return []
        return row_join_candidates(cell_left)

    def _expand(
        self, context: MiningContext, state: CellState
    ) -> list[tuple[int, ...]]:
        """Child expansion of the chain-alive parents above.

        Expanding a parent as a raw Cartesian product would
        materialize ``fanout**k`` combinations, nearly all of which
        support counting would discard.  :func:`expand_children`
        instead prunes prefixes while it expands: the cheapest
        unknowns — the level-h child pairs — are batch-counted once
        per level (the pair screen, cached across columns), and each
        surviving prefix of length 3 to k-1 is first looked up in the
        already-processed cell of its length (a frequent entry keeps
        it, a counted-infrequent one drops it); only the prefixes
        that cell never counted are batch-counted through the
        executor.  So an infrequent prefix kills its subtree under
        every executor and backend.
        """
        level, k = state.task.level, state.task.k
        parent_cell = context.cells.get((level - 1, k))
        if parent_cell is None:
            return []
        alive = [entry.itemset for entry in parent_cell.alive_entries]
        taxonomy = context.taxonomy
        children_of = {
            node: taxonomy.children_ids(node)
            for parent in alive
            for node in parent
        }
        executor = context.executor
        extra = context.stats.extra
        theta = context.thresholds.min_count(level)
        cache = context.pair_supports.setdefault(level, {})

        def frequent_pairs(
            pairs: list[tuple[int, ...]],
        ) -> set[tuple[int, ...]]:
            unknown = [pair for pair in pairs if pair not in cache]
            if unknown:
                cache.update(executor.supports(level, unknown))
                screened = extra.get("screen_pairs", 0) + len(unknown)
                extra["screen_pairs"] = screened
            return {pair for pair in pairs if cache[pair] >= theta}

        def frequent_prefixes(
            prefixes: list[tuple[int, ...]],
        ) -> set[tuple[int, ...]]:
            known = context.cells.get((level, len(prefixes[0])))
            frequent: set[tuple[int, ...]] = set()
            unseen = prefixes
            if known is not None:
                frequent = {p for p in prefixes if p in known.entries}
                unseen = [p for p in prefixes if p not in known]
            if unseen:
                supports = executor.supports(level, unseen)
                frequent.update(p for p in unseen if supports[p] >= theta)
                counted = extra.get("prefix_supports", 0) + len(unseen)
                extra["prefix_supports"] = counted
            return frequent

        expansion = expand_children(
            alive,
            children_of,
            context.frequent_items[level],
            banned=context.banned[level] if context.pruning.sibp else {},
            frequent_pairs=frequent_pairs,
            frequent_prefixes=frequent_prefixes,
        )
        state.stats.filtered_banned = expansion.banned_children
        return expansion.candidates


class CountStage:
    """Batched support counting through the executor."""

    name = "count"

    def run(self, context: MiningContext, state: CellState) -> None:
        state.supports = context.executor.supports(
            state.task.level, state.candidates
        )


class LabelStage:
    """Correlation, label and chain-alive flag; builds the cell.

    The whole batch is labelled with array operations: the measure's
    :meth:`~repro.core.measures.Measure.batch` over the supports and
    the member-support matrix, then Definition 1 as masks.  Only
    frequent itemsets become :class:`CellEntry` objects, and the
    chain-alive walk runs only for the signed ones.
    """

    name = "label"

    def run(self, context: MiningContext, state: CellState) -> None:
        level, k = state.task.level, state.task.k
        cell = Cell(level=level, k=k, n_candidates=state.stats.candidates)
        state.cell = cell
        supports = state.supports
        if not supports:
            return
        itemsets = list(supports)
        matrix = np.fromiter(
            chain.from_iterable(itemsets),
            dtype=np.int64,
            count=len(itemsets) * k,
        ).reshape(len(itemsets), k)
        counts = np.fromiter(
            supports.values(), dtype=np.int64, count=len(itemsets)
        )
        node_supports = context.node_supports[level]
        lookup = np.zeros(max(node_supports) + 1, dtype=np.int64)
        lookup[list(node_supports)] = list(node_supports.values())
        members = lookup[matrix]
        correlations = context.measure.batch(counts, members)
        gamma, epsilon = self.bands(context, members)
        codes = label_codes(
            counts,
            correlations,
            context.thresholds.min_count(level),
            gamma,
            epsilon,
        )
        parent_cell = context.cells.get((level - 1, k))
        frequent = np.flatnonzero(codes)
        for row, code, correlation in zip(
            frequent.tolist(),
            codes[frequent].tolist(),
            correlations[frequent].tolist(),
        ):
            itemset = itemsets[row]
            label = LABELS_BY_CODE[code]
            alive = label.is_signed and self._chain_alive(
                context, level, itemset, label, parent_cell
            )
            cell.add(
                CellEntry(
                    itemset=itemset,
                    support=supports[itemset],
                    correlation=correlation,
                    label=label,
                    alive=alive,
                )
            )
        infrequent = codes == 0
        cell.add_infrequent(
            list(compress(itemsets, infrequent.tolist())),
            correlations[infrequent],
        )

    def bands(
        self, context: MiningContext, item_supports: np.ndarray
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        """The (γ, ε) pair each row is labelled against."""
        return context.thresholds.gamma, context.thresholds.epsilon

    def _chain_alive(
        self,
        context: MiningContext,
        level: int,
        itemset: tuple[int, ...],
        label: Label,
        parent_cell: Cell | None,
    ) -> bool:
        """Is the whole vertical chain down to this signed itemset
        flipping?"""
        if level == 1:
            return True
        if parent_cell is None:
            return False
        # Generalize by one level: map each level-h node to level-(h-1).
        parent_itemset = tuple(
            sorted({context.parent_of[node] for node in itemset})
        )
        if len(parent_itemset) != len(itemset):
            return False  # siblings collapsed: items share a category
        parent_entry = parent_cell.get(parent_itemset)
        if parent_entry is None or not parent_entry.alive:
            return False
        return flips(parent_entry.label, label)


class SibpRemovalStage:
    """Per-cell SIBP removal candidates (Theorem 2's R_h list).

    The list is the longest prefix of the support-ascending
    frequent-item list whose members have max correlation below γ
    among the cell's counted itemsets.  The walk stops at the first
    item with a positive itemset — or with *no* counted itemset, since
    a vacuous maximum is not evidence (see ARCHITECTURE.md, "SIBP
    vacuous-max guard").  Skipped entirely when SIBP is off.
    """

    name = "prune"

    def run(self, context: MiningContext, state: CellState) -> None:
        if not context.pruning.sibp:
            return
        cell = state.cell
        assert cell is not None, "SibpRemovalStage must run after LabelStage"
        gamma = context.thresholds.gamma
        supports = context.node_supports[cell.level]
        ordered = sorted(
            context.frequent_items[cell.level],
            key=lambda node: (supports[node], node),
        )
        max_correlations = cell.max_correlation_per_item()
        removal: set[int] = set()
        for node in ordered:
            best = max_correlations.get(node)
            if best is None or best >= gamma:
                break
            removal.add(node)
        context.removal_lists[(cell.level, cell.k)] = removal


def build_default_stages() -> list[Stage]:
    """The canonical generate → count → label → prune pipeline."""
    return [GenerateStage(), CountStage(), LabelStage(), SibpRemovalStage()]
