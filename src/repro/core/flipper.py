"""The Flipper mining algorithm (paper Section 4, Algorithm 1).

The search space is the table ``M`` of cells ``Q(h,k)`` — k-itemsets
at taxonomy level h.  Flipper sweeps it top-down, zigzagging through
the two top rows first (Q1,2 → Q2,2 → Q1,3 → Q2,3 → …) so that the
termination test always has two vertically consecutive cells at hand,
then proceeding row by row.  Four pruning devices cut the space:

* support pruning with per-level thresholds θ_h,
* flipping pruning — only *chain-alive* itemsets (whole vertical chain
  labeled and alternating) are extended to the next level,
* TPG (Theorem 3) — two consecutive all-non-positive cells end the
  horizontal growth for every column ≥ k,
* SIBP (Theorem 2 / Corollary 2) — smallest-support items whose max
  correlation stays below γ, together with their generalization, are
  banned from all larger itemsets.

:class:`PruningConfig` turns the devices on incrementally, producing
exactly the BASIC → FLIPPING → +TPG → +SIBP ladder the paper
evaluates in Figure 8.

Since the engine refactor, :class:`FlipperMiner` is a thin
orchestrator: it owns the *sweep* (visit order, TPG/SIBP cross-cell
decisions, pattern extraction) while each cell visit is delegated to
an :class:`~repro.engine.plan.ExecutionPlan` that stages candidate
generation → batched support counting → labeling → pruning, every
stage counting through the run's one
:class:`~repro.core.counting.CountingBackend`.  ARCHITECTURE.md
documents the layering and the data handoffs between the stages.
"""

from __future__ import annotations

import tempfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.cells import Cell
from repro.core.counting import CountingBackend, DeltaCounter, make_backend
from repro.core.itemsets import generalize
from repro.core.labels import Label, flips
from repro.core.measures import Measure, get_measure
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.stats import MiningStats, Timer
from repro.core.thresholds import ResolvedThresholds, Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import (
    ShardedTransactionStore,
    open_or_partition_store,
)
from repro.engine.plan import ExecutionPlan, MiningContext, Stage
from repro.engine.stages import build_default_stages
from repro.errors import ConfigError
from repro.obs import catalog
from repro.obs.tracing import trace_span

__all__ = ["PruningConfig", "FlipperMiner", "mine_flipping_patterns"]


@dataclass(frozen=True)
class PruningConfig:
    """Which pruning devices are active (the paper's method ladder)."""

    flipping: bool = True
    tpg: bool = True
    sibp: bool = True

    def __post_init__(self) -> None:
        if (self.tpg or self.sibp) and not self.flipping:
            raise ConfigError(
                "TPG and SIBP build on flipping-based pruning; "
                "enable flipping as well"
            )

    @property
    def name(self) -> str:
        if not self.flipping:
            return "basic"
        parts = ["flipping"]
        if self.tpg:
            parts.append("tpg")
        if self.sibp:
            parts.append("sibp")
        return "+".join(parts)

    @classmethod
    def basic(cls) -> "PruningConfig":
        """Level-wise Apriori over all rows; no correlation pruning.
        The paper's BASIC baseline and this library's completeness
        oracle."""
        return cls(flipping=False, tpg=False, sibp=False)

    @classmethod
    def flipping_only(cls) -> "PruningConfig":
        """Flipping (vertical chain) pruning only — the paper's
        "naive flipping" method of Figure 9."""
        return cls(flipping=True, tpg=False, sibp=False)

    @classmethod
    def flipping_tpg(cls) -> "PruningConfig":
        return cls(flipping=True, tpg=True, sibp=False)

    @classmethod
    def full(cls) -> "PruningConfig":
        """The complete Flipper algorithm."""
        return cls(flipping=True, tpg=True, sibp=True)

    @classmethod
    def ladder(cls) -> list["PruningConfig"]:
        """The four configurations of Figure 8, weakest first."""
        return [
            cls.basic(),
            cls.flipping_only(),
            cls.flipping_tpg(),
            cls.full(),
        ]


class FlipperMiner:
    """One mining run over a database + taxonomy + thresholds.

    Parameters
    ----------
    database:
        The transactions, bound to a balanced taxonomy — either an
        in-memory :class:`TransactionDatabase` or an on-disk
        :class:`~repro.data.shards.ShardedTransactionStore` (the
        out-of-core partitioned path; see ARCHITECTURE.md).
    thresholds:
        γ, ε and the per-level minimum supports.
    measure:
        Any null-invariant measure name or :class:`Measure`
        (default Kulczynski, as in the paper's experiments).
    pruning:
        Which devices to enable; default: full Flipper.
    backend:
        ``"bitmap"`` (default) or ``"horizontal"`` counting, or a
        :class:`CountingBackend` instance (a :class:`DeltaCounter`
        over the same store for a partitioned run).  A name counts an
        in-memory database directly and a shard store through a
        :class:`DeltaCounter` with that inner backend per shard.
    max_k:
        Optional hard cap on itemset size (safety valve for
        pathological data; ``None`` = bounded by the data itself).
    partitions:
        Split an in-memory database into this many contiguous on-disk
        shards and mine through the partitioned path (SON-style
        count-and-merge; output is byte-identical to the monolithic
        path).  Implied when ``database`` is already a
        :class:`ShardedTransactionStore`.
    memory_budget_mb:
        Bound on resident per-shard counting backends in a
        partitioned run; shards beyond the budget are evicted LRU and
        re-read from disk on demand.
    shard_dir:
        Where ``partitions=N`` materializes the shards (default: a
        temporary directory removed after :meth:`mine`).
    sample_rate:
        Switch :meth:`mine` onto the sample-then-verify approximate
        path (see :class:`~repro.approx.miner.ApproxMiner`): phase 1
        screens this fraction of the store under Hoeffding-relaxed
        thresholds, phase 2 exactly verifies the candidates through
        the partitioned counting path, so every returned pattern is
        exact.  Implies ``partitions=1`` for an in-memory database.
    confidence:
        Probability that the approximate screen keeps every true
        pattern (default 0.95); only with ``sample_rate``.
    sample_method, sample_seed:
        ``"stratified"`` (default) or ``"reservoir"`` sampling, and
        its deterministic seed; only with ``sample_rate``.
    stages:
        Override the engine pipeline run per cell visit (default:
        :func:`~repro.engine.stages.build_default_stages`).  The
        approximate path uses this hook for its instrumented count
        stage.
    """

    def __init__(
        self,
        database: TransactionDatabase | ShardedTransactionStore,
        thresholds: Thresholds,
        measure: str | Measure = "kulczynski",
        pruning: PruningConfig | None = None,
        backend: str | CountingBackend = "bitmap",
        max_k: int | None = None,
        partitions: int | None = None,
        memory_budget_mb: float | None = None,
        shard_dir: str | Path | None = None,
        sample_rate: float | None = None,
        confidence: float | None = None,
        sample_method: str = "stratified",
        sample_seed: int = 0,
        stages: "Sequence[Stage] | None" = None,
    ) -> None:
        if not isinstance(
            database, (TransactionDatabase, ShardedTransactionStore)
        ):
            raise ConfigError(
                "FlipperMiner mines a TransactionDatabase or a "
                "ShardedTransactionStore, not "
                f"{type(database).__name__}"
            )
        self._shard_tmpdir: tempfile.TemporaryDirectory[str] | None = None
        self._raw_thresholds = thresholds
        self._incremental_runner: object | None = None
        if sample_rate is None:
            if (
                confidence is not None
                or sample_seed != 0
                or sample_method != "stratified"
            ):
                raise ConfigError(
                    "confidence/sample_method/sample_seed tune the "
                    "sample-then-verify path; pass sample_rate as well"
                )
        else:
            if not 0.0 < sample_rate <= 1.0:
                raise ConfigError(
                    f"sample_rate must be in (0, 1], got {sample_rate}"
                )
            if stages is not None:
                raise ConfigError(
                    "the sample-then-verify path builds its own screen "
                    "pipeline; stages= cannot be combined with "
                    "sample_rate"
                )
            if partitions is None and not isinstance(
                database, ShardedTransactionStore
            ):
                # approximate mining samples from (and verifies over)
                # the shard substrate
                partitions = 1
        self._sample_rate = sample_rate
        self._confidence = confidence
        self._sample_method = sample_method
        self._sample_seed = sample_seed
        store = self._resolve_store(
            database, partitions, memory_budget_mb, shard_dir
        )
        self._store = store
        self._database = database if store is None else store
        self._taxonomy = self._database.taxonomy
        self._height = self._taxonomy.height
        if self._height < 2:
            raise ConfigError(
                "flipping correlations need a taxonomy of height >= 2 "
                f"(got height {self._height})"
            )
        self._thresholds: ResolvedThresholds = thresholds.resolve(
            self._height, self._database.n_transactions
        )
        self._measure = get_measure(measure)
        self._pruning = (
            pruning if pruning is not None else PruningConfig.full()
        )
        self._memory_budget_mb = memory_budget_mb
        self._backend = self._resolve_backend(backend, memory_budget_mb)
        if max_k is not None and max_k < 2:
            raise ConfigError(f"max_k must be >= 2, got {max_k}")
        self._max_k = max_k

        # --- run state, shared with the engine stages -------------------
        self._stats = MiningStats(
            method=self._pruning.name, measure=self._measure.name
        )
        self._context = MiningContext(
            database=self._database,
            taxonomy=self._taxonomy,
            thresholds=self._thresholds,
            measure=self._measure,
            pruning=self._pruning,
            backend=self._backend,
            stats=self._stats,
        )
        self._plan = ExecutionPlan(
            self._context,
            list(stages) if stages is not None else build_default_stages(),
        )
        self._ancestor_maps: dict[int, dict[int, int]] = {}
        # TPG: smallest column proven free of flipping patterns
        self._k_cap: int | None = None

    # ------------------------------------------------------------------
    # substrate construction
    # ------------------------------------------------------------------

    def _resolve_store(
        self,
        database: TransactionDatabase | ShardedTransactionStore,
        partitions: int | None,
        memory_budget_mb: float | None,
        shard_dir: str | Path | None,
    ) -> ShardedTransactionStore | None:
        """Decide whether this run is partitioned, materializing the
        shard store when ``partitions=N`` asks for one."""
        if (
            not isinstance(database, ShardedTransactionStore)
            and partitions is None
        ):
            if memory_budget_mb is not None:
                raise ConfigError(
                    "memory_budget_mb bounds the partitioned path; "
                    "pass partitions=N or a ShardedTransactionStore"
                )
            if shard_dir is not None:
                raise ConfigError("shard_dir only applies with partitions=N")
            return None
        store, self._shard_tmpdir = open_or_partition_store(
            database, partitions, shard_dir
        )
        return store

    def _resolve_backend(
        self,
        backend: str | CountingBackend,
        memory_budget_mb: float | None,
    ) -> CountingBackend:
        """The input's type picks the counting substrate.

        An in-memory database counts through the named backend
        directly.  A shard store counts through a
        :class:`DeltaCounter` (the SON merge over its shards), which
        :meth:`update` keeps counting as the store grows.
        """
        store = self._store
        if store is None:
            if isinstance(backend, str):
                assert isinstance(self._database, TransactionDatabase)
                return make_backend(backend, self._database)
            return backend
        if isinstance(backend, str):
            return DeltaCounter(
                store, inner=backend, memory_budget_mb=memory_budget_mb
            )
        if not isinstance(backend, DeltaCounter):
            raise ConfigError(
                "a partitioned run counts through per-shard backends; "
                "pass a backend name or a DeltaCounter instance, "
                f"not {type(backend).__name__}"
            )
        if backend.store is not store:
            raise ConfigError(
                "the DeltaCounter counts a different store "
                "than the one being mined; build it from the same "
                "ShardedTransactionStore"
            )
        if memory_budget_mb is not None:
            raise ConfigError(
                "memory_budget_mb configures a backend the miner "
                "builds; pass it to your DeltaCounter instead"
            )
        return backend

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def mine(self) -> MiningResult:
        """Run the sweep and return the flipping patterns.

        With ``sample_rate`` set this runs the sample-then-verify
        approximate path instead: the returned patterns are still
        exact-verified, but patterns may be missed with probability
        at most ``1 - confidence`` (see
        :class:`~repro.approx.miner.ApproxMiner`).
        """
        if self._sample_rate is not None:
            return self._mine_approximate()
        # Re-resolve thresholds against the current transaction count
        # and drop per-run cross-cell state: update() grows the shard
        # store in place, so a repeated mine() must bind fractional
        # minimum supports to the grown N and must not reuse cells or
        # cached pair supports counted over the smaller store (for a
        # static database all of this is a no-op re-derivation).
        resolved = self._raw_thresholds.resolve(
            self._height, self._database.n_transactions
        )
        if resolved != self._thresholds:
            self._thresholds = resolved
            self._context.thresholds = resolved
        context = self._context
        context.cells.clear()
        context.node_supports.clear()
        context.frequent_items.clear()
        context.banned.clear()
        context.pair_supports.clear()
        context.removal_lists.clear()
        self._k_cap = None
        self._stats = MiningStats(
            method=self._pruning.name, measure=self._measure.name
        )
        context.stats = self._stats
        # self._shard_tmpdir is not cleaned after the run: repeated
        # mine() calls must still find the shards, and
        # TemporaryDirectory removes itself when the miner is
        # garbage-collected.
        with trace_span(catalog.SPAN_MINE), Timer() as timer:
            with trace_span(catalog.SPAN_PREPARE):
                self._prepare_levels()
            if self._pruning.flipping:
                self._sweep_flipping()
            else:
                self._sweep_basic()
            patterns = self._extract_patterns()
        self._stats.elapsed_seconds = timer.seconds
        self._stats.db_scans = self._backend.scans
        self._stats.n_patterns = len(patterns)
        self._n_mined_transactions = self._database.n_transactions
        config = {
            "method": self._pruning.name,
            "measure": self._measure.name,
            "gamma": self._thresholds.gamma,
            "epsilon": self._thresholds.epsilon,
            "min_counts": list(self._thresholds.min_counts),
            "height": self._height,
            "n_transactions": self._database.n_transactions,
            "partitions": (
                self._store.n_shards if self._store is not None else 1
            ),
            # report the budget actually in force (a user-supplied
            # DeltaCounter carries its own)
            "memory_budget_mb": (
                self._backend.memory_budget_mb
                if isinstance(self._backend, DeltaCounter)
                else self._memory_budget_mb
            ),
        }
        result = MiningResult(
            patterns=patterns, stats=self._stats, config=config
        )
        self._last_result = result
        return result

    def _mine_approximate(self) -> MiningResult:
        """The sample-then-verify path behind ``sample_rate=``.

        Phase 2 verification runs through this miner's own
        :class:`DeltaCounter`, so repeated approximate runs (and later
        exact runs or :meth:`update` calls) share one counter and its
        resident shard backends.
        """
        # Local import: repro.approx imports this module.
        from repro.approx.miner import ApproxMiner

        assert self._store is not None  # guaranteed by __init__
        assert isinstance(self._backend, DeltaCounter)
        runner = ApproxMiner(
            self._store,
            self._raw_thresholds,
            sample_rate=self._sample_rate,  # type: ignore[arg-type]
            confidence=(
                0.95 if self._confidence is None else self._confidence
            ),
            measure=self._measure,
            pruning=self._pruning,
            sample_method=self._sample_method,
            sample_seed=self._sample_seed,
            max_k=self._max_k,
            verify_backend=self._backend,
        )
        result = runner.mine()
        self._stats = result.stats
        self._context.stats = self._stats
        self._n_mined_transactions = self._database.n_transactions
        #: phase-1 candidates with support confidence intervals
        self.approx_candidates = runner.candidates
        self.approx_bounds = runner.bounds
        self._last_result = result
        return result

    def update(self, transactions: Iterable[Iterable[str]]) -> MiningResult:
        """Append a delta batch to the shard store and re-mine
        incrementally (see :class:`~repro.engine.incremental.
        IncrementalMiner`).

        Only available on partitioned runs (``partitions=N`` or a
        :class:`ShardedTransactionStore`): the delta lands in new
        shard files, the run's own :class:`DeltaCounter` folds the
        delta shards' node supports into its tallies, and the returned
        patterns are byte-identical to a from-scratch mine of the
        grown store.
        """
        if self._store is None:
            raise ConfigError(
                "update() maintains results over an on-disk shard "
                "store; pass partitions=N or a ShardedTransactionStore "
                "to the miner"
            )
        if self._incremental_runner is None:
            # Local import: engine.incremental imports this module.
            from repro.engine.incremental import IncrementalMiner

            assert isinstance(self._backend, DeltaCounter)
            runner = IncrementalMiner(
                self._store,
                self._raw_thresholds,
                measure=self._measure,
                pruning=self._pruning,
                backend=self._backend,
                max_k=self._max_k,
            )
            last = getattr(self, "_last_result", None)
            if (
                last is not None
                # an approximate result may under-report patterns and
                # must never seed the exact incremental path
                and "approx" not in last.config
                and self._n_mined_transactions
                == self._database.n_transactions
            ):
                runner.seed(last, self._thresholds)
            self._incremental_runner = runner
        return self._incremental_runner.update(transactions)  # type: ignore[attr-defined]

    @property
    def stats(self) -> MiningStats:
        return self._stats

    @property
    def context(self) -> MiningContext:
        """The run state shared with the engine stages (inspection)."""
        return self._context

    @property
    def plan(self) -> ExecutionPlan:
        """The staged execution plan driving each cell visit."""
        return self._plan

    def cell(self, level: int, k: int) -> Cell | None:
        """Access a processed cell (inspection / tests)."""
        return self._context.cells.get((level, k))

    def iter_cells(self) -> list[tuple[int, int, Cell]]:
        """All processed cells as ``(level, k, cell)``, sorted.

        Used by the bench harness to count positive/negative patterns
        across the whole search space (paper Table 4)."""
        return [
            (level, k, cell)
            for (level, k), cell in sorted(self._context.cells.items())
        ]

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------

    def _prepare_levels(self) -> None:
        """Scan for single-node supports and frequent items per level
        (Algorithm 1, line 1)."""
        taxonomy = self._taxonomy
        context = self._context
        for level in range(1, self._height + 1):
            supports = self._backend.node_supports(level)
            context.node_supports[level] = supports
            theta = self._thresholds.min_count(level)
            context.frequent_items[level] = {
                node for node, support in supports.items() if support >= theta
            }
            self._ancestor_maps[level] = taxonomy.item_ancestor_map(level)
            context.banned[level] = {}
        for node in taxonomy.iter_nodes():
            if node.level >= 2:
                assert node.parent_id is not None
                context.parent_of[node.node_id] = node.parent_id

    def _k_bound(self) -> int:
        """Upper bound on itemset size (paper Section 4.1): number of
        level-1 categories, capped by the widest level-1 projection."""
        bound = min(
            len(self._taxonomy.nodes_at_level(1)),
            self._database.width_at_level(1),
        )
        if self._max_k is not None:
            bound = min(bound, self._max_k)
        return bound

    # ------------------------------------------------------------------
    # sweeps (the orchestration the engine stages don't see)
    # ------------------------------------------------------------------

    def _process_cell(self, level: int, k: int) -> Cell:
        """Run the staged plan for one ``Q(h,k)`` cell."""
        return self._plan.run_cell(level, k)

    def _sweep_flipping(self) -> None:
        """Zigzag over rows 1–2, then row-wise (Algorithm 1)."""
        k_bound = self._k_bound()
        # --- zigzag phase (lines 2-7) -----------------------------------
        for k in range(2, k_bound + 1):
            if self._k_cap is not None and k >= self._k_cap:
                break
            cell_top = self._process_cell(1, k)
            cell_below = self._process_cell(2, k)
            if self._pruning.sibp:
                self._apply_sibp(upper_level=1, lower_level=2, k=k)
            if self._pruning.tpg and self._tpg_fires(
                cell_top, cell_below, k=k
            ):
                break
            if cell_top.n_frequent == 0:
                # No frequent (1,k)-itemsets: anti-monotonicity kills every
                # wider column at level 1, hence every longer chain.
                break
        # --- row-wise phase (lines 8-15) --------------------------------
        for level in range(3, self._height + 1):
            columns = self._columns_with_alive(level - 1)
            for k in columns:
                if self._k_cap is not None and k >= self._k_cap:
                    break
                cell_above = self._context.cells[(level - 1, k)]
                cell_here = self._process_cell(level, k)
                if self._pruning.sibp:
                    self._apply_sibp(
                        upper_level=level - 1, lower_level=level, k=k
                    )
                if self._pruning.tpg and self._tpg_fires(
                    cell_above, cell_here, k=k
                ):
                    break

    def _sweep_basic(self) -> None:
        """BASIC baseline: full per-row Apriori, no correlation pruning."""
        for level in range(1, self._height + 1):
            k = 2
            while True:
                if self._max_k is not None and k > self._max_k:
                    break
                cell = self._process_cell(level, k)
                if cell.n_frequent == 0:
                    break
                k += 1

    def _columns_with_alive(self, level: int) -> list[int]:
        """Columns of a processed row that still hold chain-alive
        itemsets — the only ones worth extending downward."""
        return sorted(
            k
            for (row, k), cell in self._context.cells.items()
            if row == level and cell.n_alive > 0
        )

    # ------------------------------------------------------------------
    # TPG (Theorem 3)
    # ------------------------------------------------------------------

    def _tpg_fires(self, upper: Cell, lower: Cell, k: int) -> bool:
        """All itemsets in two vertically consecutive cells non-positive
        → no flipping pattern in any column >= k (Theorem 3)."""
        if upper.has_positive or lower.has_positive:
            return False
        self._k_cap = k if self._k_cap is None else min(self._k_cap, k)
        self._stats.tpg_events.append((upper.level, k))
        return True

    # ------------------------------------------------------------------
    # SIBP (Theorem 2 / Corollary 2)
    # ------------------------------------------------------------------

    def _apply_sibp(self, upper_level: int, lower_level: int, k: int) -> None:
        """Ban lower-level items whose generalization is also a removal
        candidate: every superset of the item (size > k) then sits
        under two consecutive non-positive rows and cannot flip.

        The per-cell removal lists are produced by the engine's
        :class:`~repro.engine.stages.SibpRemovalStage`; this cross-cell
        step stays with the sweep."""
        context = self._context
        upper = context.removal_lists.get((upper_level, k), set())
        lower = context.removal_lists.get((lower_level, k), set())
        if not upper or not lower:
            return
        banned = context.banned[lower_level]
        for item in lower:
            parent = context.parent_of.get(item)
            if parent is not None and parent in upper:
                previous = banned.get(item)
                if previous is None or k < previous:
                    banned[item] = k
                    self._stats.sibp_bans.append((lower_level, item, k))

    # ------------------------------------------------------------------
    # extraction (Algorithm 1, line 16)
    # ------------------------------------------------------------------

    def _extract_patterns(self) -> list[FlippingPattern]:
        """Collect every chain-alive itemset of the bottom row and
        materialize its chain as a :class:`FlippingPattern`."""
        height = self._height
        patterns: list[FlippingPattern] = []
        bottom_cells = sorted(
            (k, cell)
            for (level, k), cell in self._context.cells.items()
            if level == height
        )
        for _k, cell in bottom_cells:
            for entry in cell.entries.values():
                if not entry.alive:
                    continue
                # Bottom-row itemsets hold level-H node ids; resolve
                # rebalancing copies back to the items they stand for.
                leaf_items = tuple(
                    sorted(
                        self._taxonomy.node(node_id).source_id
                        for node_id in entry.itemset
                    )
                )
                links = self._chain_links(leaf_items)
                if links is not None:
                    patterns.append(FlippingPattern(links=tuple(links)))
        patterns.sort(key=lambda p: (p.k, p.leaf_names))
        return patterns

    def _chain_links(
        self, leaf_itemset: tuple[int, ...]
    ) -> list[ChainLink] | None:
        """Walk a bottom-row itemset's generalization chain upward and
        re-verify the flip at every step (cheap insurance; alive flags
        already imply it)."""
        taxonomy = self._taxonomy
        links: list[ChainLink] = []
        previous_label: Label | None = None
        k = len(leaf_itemset)
        for level in range(1, self._height + 1):
            itemset = generalize(leaf_itemset, self._ancestor_maps[level])
            if len(itemset) != k:
                return None
            cell = self._context.cells.get((level, k))
            entry = cell.get(itemset) if cell is not None else None
            if entry is None or not entry.label.is_signed:
                return None
            if previous_label is not None and not flips(
                previous_label, entry.label
            ):
                return None
            previous_label = entry.label
            links.append(
                ChainLink(
                    level=level,
                    itemset=itemset,
                    names=tuple(taxonomy.name_of(node) for node in itemset),
                    support=entry.support,
                    correlation=entry.correlation,
                    label=entry.label,
                )
            )
        return links


def mine_flipping_patterns(
    database: TransactionDatabase | ShardedTransactionStore,
    thresholds: Thresholds,
    measure: str | Measure = "kulczynski",
    pruning: PruningConfig | None = None,
    backend: str = "bitmap",
    max_k: int | None = None,
    partitions: int | None = None,
    memory_budget_mb: float | None = None,
    shard_dir: str | Path | None = None,
    sample_rate: float | None = None,
    confidence: float | None = None,
    sample_method: str = "stratified",
    sample_seed: int = 0,
) -> MiningResult:
    """One-call façade over :class:`FlipperMiner` (the main entry point).

    ``sample_rate=``/``confidence=`` switch the run onto the
    sample-then-verify approximate path (exact-verified output,
    bounded risk of missed patterns; see ARCHITECTURE.md).

    >>> result = mine_flipping_patterns(db, Thresholds(0.6, 0.35))
    ... # doctest: +SKIP
    """
    miner = FlipperMiner(
        database,
        thresholds,
        measure=measure,
        pruning=pruning,
        backend=backend,
        max_k=max_k,
        partitions=partitions,
        memory_budget_mb=memory_budget_mb,
        shard_dir=shard_dir,
        sample_rate=sample_rate,
        confidence=confidence,
        sample_method=sample_method,
        sample_seed=sample_seed,
    )
    return miner.mine()
