"""Incremental delta mining over a growing shard store.

The batch path re-mines the whole store on every change; this module
keeps mining results fresh while paying only for what changed.  An
:class:`IncrementalMiner` owns three pieces of durable state:

* a :class:`~repro.data.shards.ShardedTransactionStore` that grows
  through ``append_batch`` — deltas land in brand-new shard files and
  the existing shards (and anything derived from them) stay valid;
* a :class:`~repro.core.counting.DeltaCounter`, which keeps one
  resident counting backend per shard and whose global node supports
  are maintained exactly under deltas by counting the *delta shards
  only* (the SON merge applied over time);
* the last :class:`~repro.core.patterns.MiningResult` together with
  the resolved thresholds it was mined under.

``update(transactions)`` appends the delta and re-runs the full
generate → count → label → prune pipeline through a fresh
:class:`~repro.core.flipper.FlipperMiner` over the shared counter.
The sweep is exact and byte-identical to a from-scratch mine of the
concatenated database by construction — every stage sees the same
exact global supports.  An update builds a backend for the delta
shards only: the surviving shards' backends stay resident in the
counter's pool, and every candidate batch is counted over them as
the plain SON sum.  A mined update reports the scans it performed,
from the append to the end of its mine, as ``stats.db_scans``.

Two run modes are reported in ``result.config["incremental"]``:

* ``"incremental"`` — resolved thresholds unchanged; for an empty
  delta the previous result itself is reused (mode ``"noop"``);
* ``"full"`` — the thresholds *shifted* (fractional minimum supports
  re-resolved against a changed transaction count), so nothing mined
  earlier can be trusted and the update falls back to a full re-mine
  (the counter's node supports are threshold-independent and survive
  even this).

With ``window_shards=`` / ``window_rows=`` the miner runs *windowed*:
each :meth:`~IncrementalMiner.update` appends the delta and retires
the oldest shards that fall out of the window in one manifest commit
(exact count subtraction through
:meth:`~repro.core.counting.DeltaCounter.retire`, which takes the
delta it commits with), and re-mines — byte-identical to a cold mine
of only the in-window shards, which the engine parity tests assert.
A step that retired shards reports mode ``"windowed"`` (or ``"full"``
when fractional thresholds shifted with the shrunken N).
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.core.counting import DeltaCounter
from repro.core.measures import Measure, get_measure
from repro.core.patterns import MiningResult
from repro.core.thresholds import ResolvedThresholds, Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import (
    ShardDirOwner,
    ShardedTransactionStore,
    open_or_partition_store,
)
from repro.errors import ConfigError
from repro.obs import catalog
from repro.obs.tracing import trace_span

__all__ = ["IncrementalMiner"]


class IncrementalMiner(ShardDirOwner):
    """Keep flipping-pattern results fresh under streaming deltas.

    Parameters
    ----------
    database:
        The starting transactions: a :class:`ShardedTransactionStore`
        (used in place, and grown by :meth:`update`) or an in-memory
        :class:`TransactionDatabase` (partitioned into ``partitions``
        on-disk shards under ``shard_dir`` or a temporary directory).
    thresholds:
        γ, ε and per-level minimum supports.  Absolute counts keep
        updates on the incremental path; fractional supports shift
        with the transaction count, forcing the full-re-mine fallback.
    measure, pruning, max_k:
        Passed through to every underlying mining run.
    backend:
        Inner per-shard backend name (``bitmap``/``horizontal``), or
        an existing :class:`DeltaCounter` to adopt (it must count the
        same store; its resident shard backends are reused).
    memory_budget_mb:
        Resident-shard-backend budget of the counter's pool (ignored
        when adopting an existing counter, which carries its own).
    window_shards, window_rows:
        Sliding-window bounds enforced by :meth:`update`.  With
        ``window_shards=W`` at most the newest ``W`` shards survive a
        step; with ``window_rows=R`` the oldest shards are retired as
        long as the survivors still hold at least ``R`` rows (shards
        retire whole, so the window covers the most recent >= R
        rows).  The newest shard is never retired.  Both may be set;
        whichever retires more wins.
    """

    def __init__(
        self,
        database: TransactionDatabase | ShardedTransactionStore,
        thresholds: Thresholds,
        *,
        measure: str | Measure = "kulczynski",
        pruning: object | None = None,
        backend: str | DeltaCounter = "bitmap",
        max_k: int | None = None,
        partitions: int | None = None,
        memory_budget_mb: float | None = None,
        shard_dir: str | Path | None = None,
        window_shards: int | None = None,
        window_rows: int | None = None,
    ) -> None:
        if window_shards is not None and window_shards < 1:
            raise ConfigError(
                f"window_shards must be >= 1, got {window_shards}"
            )
        if window_rows is not None and window_rows < 1:
            raise ConfigError(
                f"window_rows must be >= 1, got {window_rows}"
            )
        self._window_shards = window_shards
        self._window_rows = window_rows
        store, self._shard_tmpdir = open_or_partition_store(
            database,
            partitions,
            shard_dir,
            tmp_prefix="repro-delta-shards-",
        )
        self._store = store
        if isinstance(backend, DeltaCounter):
            if backend.store is not store:
                raise ConfigError(
                    "the DeltaCounter counts a different store than the "
                    "one being mined; build it from the same "
                    "ShardedTransactionStore"
                )
            if memory_budget_mb is not None:
                raise ConfigError(
                    "memory_budget_mb configures a counter the miner "
                    "builds; pass it to your DeltaCounter instead"
                )
            self._counter = backend
        else:
            self._counter = DeltaCounter(
                store, inner=backend, memory_budget_mb=memory_budget_mb
            )
        self._thresholds = thresholds
        self._measure = get_measure(measure)
        self._pruning = pruning
        self._max_k = max_k
        self._last_result: MiningResult | None = None
        self._last_resolved: ResolvedThresholds | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def store(self) -> ShardedTransactionStore:
        return self._store

    @property
    def counter(self) -> DeltaCounter:
        return self._counter

    @property
    def last_result(self) -> MiningResult | None:
        """The most recent mining result (``None`` before the first)."""
        return self._last_result

    def seed(self, result: MiningResult, resolved: ResolvedThresholds) -> None:
        """Adopt a result already mined over the current store state
        (lets :meth:`~repro.core.flipper.FlipperMiner.update` hand over
        its first full mine instead of re-paying it)."""
        self._last_result = result
        self._last_resolved = resolved

    def _resolve(self) -> ResolvedThresholds:
        return self._thresholds.resolve(
            self._store.taxonomy.height, self._store.n_transactions
        )

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------

    def mine(self) -> MiningResult:
        """Full mine of the current store."""
        return self._run(
            mode="initial",
            delta_shards=0,
            delta_rows=0,
            resolved=self._resolve(),
        )

    def update(self, transactions: Iterable[Iterable[str]]) -> MiningResult:
        """Append a delta batch and return fresh, exact results.

        The patterns are byte-identical to a from-scratch mine of the
        grown store (of the in-window shards, in windowed mode); only
        the delta shards get a new backend.  An empty delta that
        retires nothing returns the previous result unchanged.
        """
        with trace_span(catalog.SPAN_UPDATE):
            return self._update(transactions)

    def _window_drop(self, delta_rows: int) -> int:
        """How many of the oldest shards fall out of the window once a
        delta of ``delta_rows`` rows lands as one new shard (``0``
        unwindowed), read from the sizes the store will hold after
        the delta."""
        if self._window_shards is None and self._window_rows is None:
            return 0
        sizes = self._store.shard_sizes + ([delta_rows] if delta_rows else [])
        n_shards = len(sizes)
        remaining = sum(sizes)
        drop = 0
        while drop < n_shards - 1:  # the newest shard always survives
            if (
                self._window_shards is not None
                and n_shards - drop > self._window_shards
            ):
                remaining -= sizes[drop]
                drop += 1
                continue
            if (
                self._window_rows is not None
                and remaining - sizes[drop] >= self._window_rows
            ):
                remaining -= sizes[drop]
                drop += 1
                continue
            break
        return drop

    def _update(
        self, transactions: Iterable[Iterable[str]]
    ) -> MiningResult:
        scans_before = self._counter.scans
        delta = list(transactions)
        retired_shards = self._window_drop(len(delta))
        # One manifest commit appends the delta as one shard and
        # retires the shards that fall out of the window: a failure
        # leaves the store, the counter and the last result as they
        # were.
        retired_rows = self._counter.retire(range(retired_shards), delta)
        delta_shards = 1 if delta else 0
        self._counter.refresh()
        resolved = self._resolve()
        if (
            not delta_shards
            and retired_shards == 0
            and self._last_result is not None
            and resolved == self._last_resolved
        ):
            # Nothing changed: the previous result is still exact.
            # Share patterns/stats but annotate a *copied* config, so
            # the result the caller already holds keeps its metadata.
            result = MiningResult(
                patterns=self._last_result.patterns,
                stats=self._last_result.stats,
                config=dict(self._last_result.config),
            )
            self._annotate(
                result,
                mode="noop",
                delta_shards=0,
                delta_rows=0,
            )
            return result
        mode = "windowed" if retired_shards else "incremental"
        if (
            self._last_resolved is not None
            and resolved != self._last_resolved
        ):
            # Fractional thresholds re-resolved against the changed N:
            # nothing mined earlier can be reused — full re-mine.
            mode = "full"
        result = self._run(
            mode=mode,
            delta_shards=delta_shards,
            delta_rows=len(delta),
            resolved=resolved,
            retired_shards=retired_shards,
            retired_rows=retired_rows,
        )
        # the scans this update performed, not the counter's lifetime
        result.stats.db_scans = self._counter.scans - scans_before
        return result

    def _run(
        self,
        mode: str,
        delta_shards: int,
        delta_rows: int,
        resolved: ResolvedThresholds,
        retired_shards: int = 0,
        retired_rows: int = 0,
    ) -> MiningResult:
        # Local import: core.flipper imports the engine package.
        from repro.core.flipper import FlipperMiner

        miner = FlipperMiner(
            self._store,
            self._thresholds,
            measure=self._measure,
            pruning=self._pruning,  # type: ignore[arg-type]
            backend=self._counter,
            max_k=self._max_k,
        )
        result = miner.mine()
        self._annotate(
            result,
            mode=mode,
            delta_shards=delta_shards,
            delta_rows=delta_rows,
            retired_shards=retired_shards,
            retired_rows=retired_rows,
        )
        self._last_result = result
        # Record the thresholds the run above was actually mined
        # under — re-resolving here would race a concurrent append
        # between the resolve and the mine.
        self._last_resolved = resolved
        return result

    def _annotate(
        self,
        result: MiningResult,
        *,
        mode: str,
        delta_shards: int,
        delta_rows: int,
        retired_shards: int = 0,
        retired_rows: int = 0,
    ) -> None:
        incremental: dict[str, object] = {
            "mode": mode,
            "n_shards": self._store.n_shards,
            "counted_shards": self._counter.counted_shards,
            "delta_shards": delta_shards,
            "delta_rows": delta_rows,
            "pool_rebuilds": self._counter.pool.rebuilds,
            "pool_image_admits": self._counter.pool.image_admits,
            "retired_shards": retired_shards,
            "retired_rows": retired_rows,
        }
        if self._window_shards is not None:
            incremental["window_shards"] = self._window_shards
        if self._window_rows is not None:
            incremental["window_rows"] = self._window_rows
        result.config["incremental"] = incremental
