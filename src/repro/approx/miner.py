"""Sample-then-verify approximate mining (the two-phase path).

:class:`ApproxMiner` trades a bounded, quantified risk of *missing*
patterns for mining speed, while never fabricating one:

* **Phase 1 — screen.**  Draw a deterministic sample from the
  :class:`~repro.data.shards.ShardedTransactionStore` (see
  :mod:`repro.approx.sampling`), derive relaxed thresholds from the
  Hoeffding/Chernoff bounds at the requested confidence (see
  :mod:`repro.approx.bounds`), and mine the sample through a standard
  engine run (``build_approx_stages``).  The output is a set of
  *candidate* flipping patterns, each carrying full-data support
  confidence intervals; any given true pattern appears among them
  with probability ``>= confidence`` (a per-pattern union bound over
  its chain's tests — see the bounds module for exactly what is and
  is not guaranteed).
* **Phase 2 — verify.**  Count every candidate chain *exactly* over
  the full store through the shard store's counter
  (:class:`~repro.core.counting.DeltaCounter`), batched per taxonomy
  level, re-label at the exact thresholds and keep only chains that
  genuinely flip.  Survivors are rebuilt with exact supports and
  correlations, so the returned
  :class:`~repro.core.patterns.MiningResult` contains only
  exact-verified patterns and is byte-compatible with everything
  downstream (``PatternStore``, the serving API, ``save_result``).

The cost profile: phase 1 counts the whole search space over
``sample_rate * N`` rows; phase 2 counts only ``O(candidates ×
height)`` itemsets over the full store.  ``repro bench approx``
quantifies the resulting speedup and the measured recall against an
exact mine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.approx.bounds import SampleBounds
from repro.approx.sampling import draw_sample
from repro.approx.stages import build_approx_stages
from repro.core.counting import DeltaCounter, merge_shard_counts
from repro.core.labels import flips, label_for
from repro.core.measures import Measure, get_measure
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.stats import Timer
from repro.core.thresholds import ResolvedThresholds, Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import (
    ShardedTransactionStore,
    open_or_partition_store,
)
from repro.errors import ConfigError

__all__ = [
    "CandidateLink",
    "ApproxCandidate",
    "ApproxMiner",
    "mine_approximate",
]


@dataclass(frozen=True)
class CandidateLink:
    """One level of a candidate chain, with its full-data support CI."""

    level: int
    itemset: tuple[int, ...]
    names: tuple[str, ...]
    sample_support: int
    #: estimated full-data support (sample frequency scaled to N)
    support_estimate: int
    #: full-data support confidence interval at the run's confidence
    support_lo: int
    support_hi: int
    correlation: float
    label: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "names": list(self.names),
            "sample_support": self.sample_support,
            "support_estimate": self.support_estimate,
            "support_interval": [self.support_lo, self.support_hi],
            "correlation": self.correlation,
            "label": self.label,
        }


@dataclass(frozen=True)
class ApproxCandidate:
    """A phase-1 candidate pattern awaiting exact verification."""

    links: tuple[CandidateLink, ...]

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return self.links[-1].names

    @property
    def signature(self) -> str:
        return "".join(link.label for link in self.links)

    def to_dict(self) -> dict[str, Any]:
        return {
            "leaf_names": list(self.leaf_names),
            "signature": self.signature,
            "links": [link.to_dict() for link in self.links],
        }


class ApproxMiner:
    """One sample-then-verify mining run over a sharded store.

    Parameters mirror :class:`~repro.core.flipper.FlipperMiner` where
    they overlap; the approximate knobs are:

    sample_rate:
        Fraction of the store phase 1 mines, in ``(0, 1]``.
    confidence:
        Probability that phase 1's candidate set contains every true
        pattern (default 0.95); drives the Hoeffding relaxation.
    sample_method / sample_seed:
        ``"stratified"`` (default) or ``"reservoir"``; deterministic
        under the seed.
    max_sample_rows / sample_memory_budget_mb:
        Optional absolute row / memory budgets capping the sample.
    verify_backend:
        An existing :class:`DeltaCounter` over the same store to run
        phase 2 through — lets :class:`~repro.core.flipper.FlipperMiner`
        share its counter.  Built from ``backend`` when omitted.
    """

    def __init__(
        self,
        database: TransactionDatabase | ShardedTransactionStore,
        thresholds: Thresholds,
        *,
        sample_rate: float,
        confidence: float = 0.95,
        measure: str | Measure = "kulczynski",
        pruning: object | None = None,
        backend: str = "bitmap",
        sample_method: str = "stratified",
        sample_seed: int = 0,
        max_sample_rows: int | None = None,
        sample_memory_budget_mb: float | None = None,
        max_k: int | None = None,
        partitions: int | None = None,
        memory_budget_mb: float | None = None,
        shard_dir: str | None = None,
        verify_backend: DeltaCounter | None = None,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        if not 0.0 < confidence < 1.0:
            raise ConfigError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        self._store, self._shard_tmpdir = open_or_partition_store(
            database,
            partitions,
            shard_dir,
            tmp_prefix="repro-approx-shards-",
        )
        if verify_backend is not None:
            if verify_backend.store is not self._store:
                raise ConfigError(
                    "the verify backend counts a different store than "
                    "the one being mined; build it from the same "
                    "ShardedTransactionStore"
                )
            self._verify_backend = verify_backend
        else:
            self._verify_backend = DeltaCounter(
                self._store,
                inner=backend,
                memory_budget_mb=memory_budget_mb,
            )
        self._inner = self._verify_backend.inner_name
        self._thresholds = thresholds
        self._measure = get_measure(measure)
        self._pruning = pruning
        self._sample_rate = sample_rate
        self._confidence = confidence
        self._sample_method = sample_method
        self._sample_seed = sample_seed
        self._max_sample_rows = max_sample_rows
        self._sample_memory_budget_mb = sample_memory_budget_mb
        self._max_k = max_k
        #: phase-1 candidates of the most recent run (CIs included)
        self.candidates: list[ApproxCandidate] = []
        #: the derived bounds of the most recent run
        self.bounds: SampleBounds | None = None

    @property
    def store(self) -> ShardedTransactionStore:
        return self._store

    @property
    def verify_backend(self) -> DeltaCounter:
        return self._verify_backend

    # ------------------------------------------------------------------
    # the two phases
    # ------------------------------------------------------------------

    def mine(self) -> MiningResult:
        """Screen on the sample, verify exactly, return the result."""
        # Local import: core.flipper imports this package lazily too.
        from repro.core.flipper import FlipperMiner, PruningConfig

        taxonomy = self._store.taxonomy
        n_total = self._store.n_transactions
        resolved = self._thresholds.resolve(taxonomy.height, n_total)
        scans_before = self._verify_backend.scans
        with Timer() as total_timer:
            with Timer() as sample_timer:
                draw = draw_sample(
                    self._store,
                    self._sample_rate,
                    method=self._sample_method,
                    seed=self._sample_seed,
                    max_rows=self._max_sample_rows,
                    memory_budget_mb=self._sample_memory_budget_mb,
                )
                sample_db = TransactionDatabase(list(draw.rows), taxonomy)
            bounds = SampleBounds.derive(
                resolved, n_total, draw.n_rows, self._confidence
            )
            # Support thresholds are relaxed by the bounds; the
            # correlation thresholds stay exact here — the per-itemset
            # widening happens inside ApproxLabelStage.  SIBP is
            # disabled for the screen: its bans compare sampled
            # correlations against the exact gamma and could prune a
            # true pattern (the one error the screen must not make).
            relaxed = Thresholds(
                gamma=resolved.gamma,
                epsilon=resolved.epsilon,
                min_support=list(bounds.sample_min_counts),
            )
            base = (
                self._pruning
                if isinstance(self._pruning, PruningConfig)
                else PruningConfig.full()
            )
            screen_pruning = (
                PruningConfig(
                    flipping=True, tpg=base.tpg, sibp=False
                )
                if base.flipping
                else PruningConfig.basic()
            )
            with Timer() as screen_timer:
                screen = FlipperMiner(
                    sample_db,
                    relaxed,
                    measure=self._measure,
                    pruning=screen_pruning,
                    backend=self._inner,
                    max_k=self._max_k,
                    stages=build_approx_stages(bounds),
                )
                screened = screen.mine()
            self.bounds = bounds
            self.candidates = [
                self._candidate(pattern, bounds)
                for pattern in screened.patterns
            ]
            with Timer() as verify_timer:
                verified, rejected = self._verify(screened.patterns, resolved)
        stats = screened.stats
        stats.method = f"approx+{stats.method}"
        stats.elapsed_seconds = total_timer.seconds
        stats.n_patterns = len(verified)
        stats.db_scans += self._verify_backend.scans - scans_before
        config: dict[str, Any] = {
            "method": stats.method,
            "measure": self._measure.name,
            "gamma": resolved.gamma,
            "epsilon": resolved.epsilon,
            "min_counts": list(resolved.min_counts),
            "height": taxonomy.height,
            "n_transactions": n_total,
            "partitions": self._store.n_shards,
            "approx": {
                **bounds.to_dict(),
                "sample_rate": self._sample_rate,
                "sample_method": draw.method,
                "sample_seed": draw.seed,
                "sample_capped_by": draw.capped_by,
                "n_candidates": len(self.candidates),
                "n_verified": len(verified),
                "n_rejected": rejected,
                "sample_seconds": sample_timer.seconds,
                "screen_seconds": screen_timer.seconds,
                "verify_seconds": verify_timer.seconds,
                "pool_rebuilds": self._verify_backend.pool.rebuilds,
                "pool_image_admits": (
                    self._verify_backend.pool.image_admits
                ),
            },
        }
        return MiningResult(patterns=verified, stats=stats, config=config)

    def _candidate(
        self, pattern: FlippingPattern, bounds: SampleBounds
    ) -> ApproxCandidate:
        scale = bounds.n_total / max(1, bounds.n_sample)
        links = []
        for link in pattern.links:
            lo, hi = bounds.interval(link.support)
            links.append(
                CandidateLink(
                    level=link.level,
                    itemset=link.itemset,
                    names=link.names,
                    sample_support=link.support,
                    support_estimate=round(link.support * scale),
                    support_lo=lo,
                    support_hi=hi,
                    correlation=link.correlation,
                    label=link.label.symbol,
                )
            )
        return ApproxCandidate(links=tuple(links))

    def _verify(
        self,
        patterns: list[FlippingPattern],
        resolved: ResolvedThresholds,
    ) -> tuple[list[FlippingPattern], int]:
        """Exact-count every candidate chain and keep true flips.

        All levels' candidate itemsets *and* node supports are counted
        in one residency pass over the shard pool: under a memory
        budget every extra pass would rebuild each evicted shard
        backend again, and the single pass is what keeps phase 2 at
        ~one store-read regardless of taxonomy height.
        """
        if not patterns:
            return [], 0
        exact, node_supports = self._exact_counts(patterns)
        verified: list[FlippingPattern] = []
        rejected = 0
        for pattern in patterns:
            links = self._exact_links(pattern, resolved, exact, node_supports)
            if links is None:
                rejected += 1
            else:
                verified.append(FlippingPattern(links=tuple(links)))
        verified.sort(key=lambda p: (p.k, p.leaf_names))
        return verified, rejected

    def _exact_counts(
        self, patterns: list[FlippingPattern]
    ) -> tuple[
        dict[int, dict[tuple[int, ...], int]],
        dict[int, dict[int, int]],
    ]:
        """Exact candidate-itemset and node supports, one pool pass."""
        by_level: dict[int, list[tuple[int, ...]]] = {}
        for pattern in patterns:
            for link in pattern.links:
                by_level.setdefault(link.level, []).append(link.itemset)
        by_level = {
            level: sorted(set(itemsets))
            for level, itemsets in sorted(by_level.items())
        }
        taxonomy = self._store.taxonomy
        exact: dict[int, dict[tuple[int, ...], int]] = {
            level: {itemset: 0 for itemset in itemsets}
            for level, itemsets in by_level.items()
        }
        node_supports: dict[int, dict[int, int]] = {
            level: {
                node_id: 0 for node_id in taxonomy.nodes_at_level(level)
            }
            for level in by_level
        }
        for _index, backend in self._verify_backend.pool.iter_backends():
            for level, itemsets in by_level.items():
                for node_id, count in backend.node_supports(level).items():
                    node_supports[level][node_id] += count
                counts = backend.supports(level, itemsets)
                merge_shard_counts(exact[level], counts)
        return exact, node_supports

    def _exact_links(
        self,
        pattern: FlippingPattern,
        resolved: ResolvedThresholds,
        exact: dict[int, dict[tuple[int, ...], int]],
        node_supports: dict[int, dict[int, int]],
    ) -> list[ChainLink] | None:
        links: list[ChainLink] = []
        previous = None
        for link in pattern.links:
            support = exact[link.level][link.itemset]
            item_supports = [
                node_supports[link.level][node] for node in link.itemset
            ]
            correlation = self._measure(support, item_supports)
            label = label_for(
                support,
                correlation,
                resolved.min_count(link.level),
                resolved.gamma,
                resolved.epsilon,
            )
            if not label.is_signed:
                return None
            if previous is not None and not flips(previous, label):
                return None
            previous = label
            links.append(
                ChainLink(
                    level=link.level,
                    itemset=link.itemset,
                    names=link.names,
                    support=support,
                    correlation=correlation,
                    label=label,
                )
            )
        return links


def mine_approximate(
    database: TransactionDatabase | ShardedTransactionStore,
    thresholds: Thresholds,
    *,
    sample_rate: float,
    confidence: float = 0.95,
    **kwargs: Any,
) -> MiningResult:
    """One-call façade over :class:`ApproxMiner`."""
    return ApproxMiner(
        database,
        thresholds,
        sample_rate=sample_rate,
        confidence=confidence,
        **kwargs,
    ).mine()
