"""Execution plan: one cell-visit decomposed into staged steps.

The miner's unit of work is visiting one search-space cell ``Q(h,k)``
(paper Fig. 6).  The engine decomposes that visit into a fixed
pipeline of :class:`Stage` objects with explicit data handoffs
through a :class:`CellState`:

    generate  →  count  →  label  →  prune
    (candidates)  (supports)  (cell)   (removal lists)

Each stage reads the shared :class:`MiningContext` (immutable-ish run
configuration plus the cross-cell run state the sweep maintains) and
the per-cell :class:`CellState`, and writes its output field.  The
:class:`ExecutionPlan` runs the stages in order, times each one, and
records the finished cell — so counting is batched through the
context's backend, and stages can be swapped (an approximate counting
stage, a sampling generate stage) and instrumented independently of
the sweep logic that stays in
:class:`~repro.core.flipper.FlipperMiner`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.cells import Cell
from repro.core.counting import CountingBackend
from repro.core.stats import CellStats, MiningStats, Timer
from repro.core.thresholds import ResolvedThresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.obs import catalog
from repro.obs.tracing import trace_span
from repro.taxonomy.tree import Taxonomy

__all__ = ["CellTask", "CellState", "MiningContext", "Stage", "ExecutionPlan"]


@dataclass(frozen=True)
class CellTask:
    """Address of one cell visit: k-itemsets at taxonomy level."""

    level: int
    k: int


@dataclass
class CellState:
    """Data handed from stage to stage while processing one cell."""

    task: CellTask
    stats: CellStats
    #: generate → count: candidate itemsets surviving the filters
    candidates: list[tuple[int, ...]] = field(default_factory=list)
    #: count → label: support of every counted candidate
    supports: dict[tuple[int, ...], int] = field(default_factory=dict)
    #: label → prune: the finished cell
    cell: Cell | None = None


@dataclass
class MiningContext:
    """Everything the stages share for one mining run.

    The sweep (:class:`~repro.core.flipper.FlipperMiner`) owns the
    cross-cell state and mutates it between cell visits (SIBP bans,
    TPG caps); the stages read it and append per-cell results.
    ``pruning`` is any object with ``flipping``/``tpg``/``sibp`` bool
    attributes (:class:`~repro.core.flipper.PruningConfig` — typed
    loosely to keep the engine free of a core→engine→core cycle).
    """

    database: TransactionDatabase | ShardedTransactionStore
    taxonomy: Taxonomy
    thresholds: ResolvedThresholds
    measure: Any
    pruning: Any
    backend: CountingBackend
    stats: MiningStats
    # --- cross-cell run state maintained by the sweep -----------------
    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)
    node_supports: dict[int, dict[int, int]] = field(default_factory=dict)
    frequent_items: dict[int, set[int]] = field(default_factory=dict)
    #: parent taxonomy node of every node at level >= 2
    parent_of: dict[int, int] = field(default_factory=dict)
    #: SIBP: level -> {item -> largest itemset size it may join}
    banned: dict[int, dict[int, int]] = field(default_factory=dict)
    #: lazy per-level pair-support cache for the candidate screen
    pair_supports: dict[int, dict[tuple[int, ...], int]] = field(
        default_factory=dict
    )
    #: SIBP removal-candidate lists per processed cell
    removal_lists: dict[tuple[int, int], set[int]] = field(
        default_factory=dict
    )


class Stage(Protocol):
    """One step of a cell visit."""

    @property
    def name(self) -> str:
        """Short identifier used in per-stage timing stats."""
        ...

    def run(self, context: MiningContext, state: CellState) -> None:
        """Transform ``state`` in place (read ``context`` freely)."""
        ...


class ExecutionPlan:
    """Ordered stages that turn a :class:`CellTask` into a cell.

    The plan is the engine's public surface: the miner asks it to run
    one cell, the plan threads a fresh :class:`CellState` through the
    stages, accumulates per-stage wall-clock into
    ``stats.extra["stage_seconds"]``, records the cell's counters and
    registers the finished cell in ``context.cells``.
    """

    def __init__(
        self, context: MiningContext, stages: Sequence[Stage]
    ) -> None:
        if not stages:
            raise ValueError("an execution plan needs at least one stage")
        self._context = context
        self._stages = list(stages)

    @property
    def context(self) -> MiningContext:
        return self._context

    @property
    def stages(self) -> list[Stage]:
        return list(self._stages)

    def run_cell(self, level: int, k: int) -> Cell:
        context = self._context
        state = CellState(
            task=CellTask(level=level, k=k),
            stats=CellStats(level=level, k=k),
        )
        stage_seconds: dict[str, float] = context.stats.extra.setdefault(
            "stage_seconds", {}
        )
        with (
            trace_span(catalog.SPAN_CELL, level=level, k=k),
            Timer() as cell_timer,
        ):
            for stage in self._stages:
                with (
                    trace_span(stage.name),
                    Timer() as stage_timer,
                ):
                    stage.run(context, state)
                stage_seconds[stage.name] = (
                    stage_seconds.get(stage.name, 0.0) + stage_timer.seconds
                )
        cell = state.cell
        if cell is None:
            raise RuntimeError(
                "execution plan finished without producing a cell; "
                "a labeling stage must set CellState.cell"
            )
        context.cells[(level, k)] = cell
        state.stats.seconds = cell_timer.seconds
        state.stats.counted = len(cell)
        state.stats.frequent = cell.n_frequent
        state.stats.labeled = cell.n_labeled
        state.stats.alive = cell.n_alive
        context.stats.record_cell(state.stats)
        return cell
