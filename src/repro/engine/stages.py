"""The default stages of one cell visit.

Ported from the pre-engine ``FlipperMiner._process_cell`` monolith and
split along the data handoffs (see :mod:`repro.engine.plan`):

* :class:`GenerateStage` — pick the generation regime (row join vs
  child expansion) and apply the known-infrequent-subset filter.
  Child expansion is one array-level path on every substrate: it
  drops SIBP-banned children and prunes prefixes by the pair screen
  and by batch-counted prefix supports while it expands.  The pair
  cache, the prefix test and the subset filter are ``searchsorted``
  lookups in sorted row keys.
* :class:`CountStage` — count the candidate row matrix through
  :meth:`~repro.core.counting.CountingBackend.supports`.
* :class:`LabelStage` — correlation, Definition-1 label and the
  chain-alive flag for every counted candidate, as array operations
  over the matrix and its count array; builds the
  :class:`~repro.core.cells.Cell`.  Only frequent rows become tuples.
* :class:`SibpRemovalStage` — the per-cell half of SIBP: the R_h
  removal-candidate list (Theorem 2).  The cross-cell ban application
  stays in the sweep.

``build_default_stages`` assembles them in order.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import (
    expand_children,
    pair_candidates,
    prune_infrequent_subsets,
    row_join_candidates,
)
from repro.core.cells import Cell, CellEntry
from repro.core.labels import LABELS_BY_CODE, Label, label_codes
from repro.core.rowkeys import RowKeys
from repro.engine.plan import CellState, MiningContext, Stage

__all__ = [
    "GenerateStage",
    "CountStage",
    "LabelStage",
    "SibpRemovalStage",
    "build_default_stages",
]

#: label codes of the two labels a flipping chain is made of
_SIGNED_CODES = [
    LABELS_BY_CODE.index(Label.POSITIVE),
    LABELS_BY_CODE.index(Label.NEGATIVE),
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
        candidates, dropped = prune_infrequent_subsets(
            candidates, cell_left, strict=not context.pruning.flipping
        )
        state.stats.filtered_subset = dropped
        state.candidates = candidates

    # -- generation regimes -------------------------------------------

    def _row_join(
        self, context: MiningContext, level: int, k: int
    ) -> np.ndarray:
        if k == 2:
            return pair_candidates(context.frequent_items[level])
        cell_left = context.cells.get((level, k - 1))
        if cell_left is None:
            return np.zeros((0, k), dtype=np.int64)
        return row_join_candidates(cell_left)

    def _expand(self, context: MiningContext, state: CellState) -> np.ndarray:
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
        backend.  So an infrequent prefix kills its subtree on every
        backend.
        """
        level, k = state.task.level, state.task.k
        parent_cell = context.cells.get((level - 1, k))
        if parent_cell is None:
            return np.zeros((0, k), dtype=np.int64)
        alive = np.array(
            [entry.itemset for entry in parent_cell.alive_entries],
            dtype=np.int64,
        ).reshape(-1, k)
        backend = context.backend
        extra = context.stats.extra
        theta = context.thresholds.min_count(level)
        keys = context.row_keys[level]

        def frequent_pairs(pairs: np.ndarray) -> np.ndarray:
            empty = np.zeros(0, dtype=keys.dtype(2))
            cached, counts = context.pair_supports.get(
                level, (empty, np.zeros(0, dtype=np.int64))
            )
            wanted = keys.pack(pairs)
            index, known = RowKeys.find(cached, wanted)
            supports = np.zeros(len(pairs), dtype=np.int64)
            supports[known] = counts[index[known]]
            unknown = ~known
            if unknown.any():
                supports[unknown] = backend.supports(level, pairs[unknown])
                merged = np.concatenate((cached, wanted[unknown]))
                order = np.argsort(merged, kind="stable")
                context.pair_supports[level] = (
                    merged[order],
                    np.concatenate((counts, supports[unknown]))[order],
                )
                screened = extra.get("screen_pairs", 0) + int(unknown.sum())
                extra["screen_pairs"] = screened
            return supports >= theta

        def frequent_prefixes(prefixes: np.ndarray) -> np.ndarray:
            known = context.cells.get((level, prefixes.shape[1]))
            if known is None:
                frequent = np.zeros(len(prefixes), dtype=bool)
                unseen = ~frequent
            else:
                frequent, infrequent = known.find(prefixes)
                unseen = ~(frequent | infrequent)
            if unseen.any():
                supports = backend.supports(level, prefixes[unseen])
                frequent[unseen] = supports >= theta
                counted = extra.get("prefix_supports", 0) + int(unseen.sum())
                extra["prefix_supports"] = counted
            return frequent

        expansion = expand_children(
            alive,
            context.taxonomy.compiled.children_of,
            context.frequent_items[level],
            banned=context.banned[level] if context.pruning.sibp else {},
            frequent_pairs=frequent_pairs,
            frequent_prefixes=frequent_prefixes,
        )
        state.stats.filtered_banned = expansion.banned_children
        return expansion.candidates


class CountStage:
    """Batched support counting through the run's backend."""

    name = "count"

    def run(self, context: MiningContext, state: CellState) -> None:
        # an empty batch needs no count (and no horizontal scan)
        if len(state.candidates):
            state.supports = context.backend.supports(
                state.task.level, state.candidates
            )


class LabelStage:
    """Correlation, label and chain-alive flag; builds the cell.

    The whole batch is labelled with array operations straight from
    the candidate matrix and its count array: the measure's
    :meth:`~repro.core.measures.Measure.batch` over the supports and
    the member-support matrix, then Definition 1 as masks.  Only
    frequent rows become :class:`CellEntry` objects (with tuple
    itemsets); their chain-alive flags come from one lookup of the
    generalized rows in the cell above.  Counted-infrequent rows go
    into the cell as sorted keys.
    """

    name = "label"

    def run(self, context: MiningContext, state: CellState) -> None:
        level, k = state.task.level, state.task.k
        cell = Cell(
            level=level,
            k=k,
            n_candidates=state.stats.candidates,
            keys=context.row_keys[level],
        )
        state.cell = cell
        rows, counts = state.candidates, state.supports
        if not len(counts):
            return
        node_supports = context.node_supports[level]
        lookup = np.zeros(max(node_supports) + 1, dtype=np.int64)
        lookup[list(node_supports)] = list(node_supports.values())
        members = lookup[rows]
        correlations = context.measure.batch(counts, members)
        gamma, epsilon = self.bands(context, members)
        codes = label_codes(
            counts,
            correlations,
            context.thresholds.min_count(level),
            gamma,
            epsilon,
        )
        frequent = np.flatnonzero(codes)
        alive = self._chain_alive(
            context, level, rows[frequent], codes[frequent]
        )
        for itemset, support, code, correlation, is_alive in zip(
            map(tuple, rows[frequent].tolist()),
            counts[frequent].tolist(),
            codes[frequent].tolist(),
            correlations[frequent].tolist(),
            alive.tolist(),
        ):
            cell.add(
                CellEntry(
                    itemset=itemset,
                    support=support,
                    correlation=correlation,
                    label=LABELS_BY_CODE[code],
                    alive=is_alive,
                )
            )
        infrequent = codes == 0
        cell.add_infrequent(rows[infrequent], correlations[infrequent])

    def bands(
        self, context: MiningContext, item_supports: np.ndarray
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        """The (γ, ε) pair each row is labelled against."""
        return context.thresholds.gamma, context.thresholds.epsilon

    def _chain_alive(
        self,
        context: MiningContext,
        level: int,
        rows: np.ndarray,
        codes: np.ndarray,
    ) -> np.ndarray:
        """Per frequent row: is the whole vertical chain down to it
        flipping?  A signed row is alive at level 1.  Below, its
        generalization by one level must keep k distinct nodes (no
        siblings collapse) and be an alive entry of the cell above
        whose label flips with the row's."""
        signed = np.isin(codes, _SIGNED_CODES)
        if level == 1 or not signed.any():
            return signed
        alive = np.zeros(len(rows), dtype=bool)
        parent_cell = context.cells.get((level - 1, rows.shape[1]))
        if parent_cell is None:
            return alive
        parent_of = context.taxonomy.compiled.parent
        parents = np.sort(parent_of[rows[signed]], axis=1)
        distinct = (parents[:, 1:] != parents[:, :-1]).all(axis=1)
        found, parent_codes, parent_alive = parent_cell.find_entries(parents)
        flips = np.isin(parent_codes, _SIGNED_CODES) & (
            parent_codes != codes[signed]
        )
        alive[signed] = distinct & found & parent_alive & flips
        return alive


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
