"""Partition-aware counting: fan shards out, merge exact supports.

This module is the engine half of the out-of-core partitioned mining
path (the data half is :mod:`repro.data.shards`, the counting half is
:class:`~repro.core.counting.PartitionedBackend`):

* :class:`PartitionedExecutor` — an :class:`~repro.engine.executors.
  Executor` whose unit of fan-out is the *shard*, not the candidate
  chunk: every shard counts the whole candidate batch through its own
  backend's ``supports_batched``, and per-shard counts are summed
  into exact global supports (the SON partition-and-merge scheme).
  With ``workers > 1`` the shard counts run in a process pool whose
  workers hydrate per-shard backends from the on-disk store — each
  worker's resident set is bounded by the store's memory budget, so
  peak memory follows budget × workers, not dataset size.
* :class:`PartitionedCountStage` — the count stage of the partitioned
  pipeline: it performs the merge explicitly, so global supports are
  final *before* the label/prune stages run, and records per-shard
  dispatch counts in the run stats.
* :func:`build_partitioned_stages` — the partitioned counterpart of
  :func:`~repro.engine.stages.build_default_stages`.

Because merged supports are exact integer sums over disjoint shards,
the label/prune stages see byte-identical inputs to the monolithic
path, and the mining output is byte-identical for any shard count —
the property ``tests/engine/test_partition.py`` asserts across all
three backends and both executor modes.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor

from repro.core.counting import (
    DeltaCounter,
    PartitionedBackend,
    ShardBackendPool,
    merge_shard_counts,
)
from repro.data.shards import ShardedTransactionStore
from repro.engine.executors import EXECUTORS
from repro.engine.plan import CellState, MiningContext, Stage
from repro.engine.stages import GenerateStage, LabelStage, SibpRemovalStage
from repro.errors import ConfigError

__all__ = [
    "PartitionedExecutor",
    "PartitionedCountStage",
    "build_partitioned_stages",
]


# --- worker-side plumbing ---------------------------------------------------
#
# One shard-backend pool per worker process, hydrated from the on-disk
# store (the store pickles as paths + manifest + taxonomy; the shard
# data itself is read from disk inside the worker).  The pool carries
# the store's memory budget, so each worker's resident shard backends
# stay within budget.  Counter accounting mirrors
# executors._count_chunk: each result ships the worker's
# not-yet-reported scan / rebuild / image-admit deltas, so the parent
# executor's totals stay truthful across process boundaries.

_WORKER_POOL: ShardBackendPool | None = None
_WORKER_SCANS_REPORTED = 0
_WORKER_REBUILDS_REPORTED = 0
_WORKER_IMAGE_ADMITS_REPORTED = 0


def _hydrate_shard_worker(
    store: ShardedTransactionStore,
    inner: str,
    memory_budget_mb: float | None,
) -> None:
    global _WORKER_POOL, _WORKER_SCANS_REPORTED
    global _WORKER_REBUILDS_REPORTED, _WORKER_IMAGE_ADMITS_REPORTED
    _WORKER_POOL = ShardBackendPool(
        store, inner=inner, memory_budget_mb=memory_budget_mb
    )
    _WORKER_SCANS_REPORTED = 0
    _WORKER_REBUILDS_REPORTED = 0
    _WORKER_IMAGE_ADMITS_REPORTED = 0


def _count_shard(
    task: tuple[int, int, Sequence[tuple[int, ...]], int | None]
) -> tuple[int, dict[tuple[int, ...], int], int, int, int]:
    """Count one candidate batch on one shard inside a worker."""
    global _WORKER_SCANS_REPORTED
    global _WORKER_REBUILDS_REPORTED, _WORKER_IMAGE_ADMITS_REPORTED
    shard_index, level, itemsets, chunk_size = task
    assert _WORKER_POOL is not None, "shard worker not initialized"
    backend = _WORKER_POOL.backend(shard_index)
    if backend is None:  # empty shard: zero contribution
        return shard_index, {}, 0, 0, 0
    counts = backend.supports_batched(level, itemsets, chunk_size=chunk_size)
    scan_delta = _WORKER_POOL.scans - _WORKER_SCANS_REPORTED
    _WORKER_SCANS_REPORTED = _WORKER_POOL.scans
    rebuild_delta = _WORKER_POOL.rebuilds - _WORKER_REBUILDS_REPORTED
    _WORKER_REBUILDS_REPORTED = _WORKER_POOL.rebuilds
    admit_delta = _WORKER_POOL.image_admits - _WORKER_IMAGE_ADMITS_REPORTED
    _WORKER_IMAGE_ADMITS_REPORTED = _WORKER_POOL.image_admits
    return shard_index, counts, scan_delta, rebuild_delta, admit_delta


class PartitionedExecutor:
    """Fan one candidate batch across the shards of a partitioned
    backend and merge per-shard counts into exact global supports.

    Parameters
    ----------
    backend:
        The :class:`PartitionedBackend` owning the shard store (also
        the source of node supports during preparation).
    workers:
        ``1`` (default) counts shard after shard in-process — the
        memory-budgeted out-of-core mode.  ``> 1`` maps shards over a
        process pool; workers hydrate shard backends from disk, so
        this composes scale-out with out-of-core residency.
    chunk_size:
        Within-shard counting chunk size handed to each shard
        backend's ``supports_batched`` (default: one chunk per shard).
    """

    name = "partitioned"

    def __init__(
        self,
        backend: PartitionedBackend,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if not isinstance(backend, PartitionedBackend):
            raise ConfigError(
                "the partitioned executor needs a PartitionedBackend "
                f"(got {type(backend).__name__}); build one from a "
                "ShardedTransactionStore"
            )
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self._backend = backend
        self._workers = workers or 1
        self._chunk_size = chunk_size
        self._pool: _PoolExecutor | None = None
        #: batches dispatched (engine instrumentation)
        self.batches = 0
        #: (shard, batch) counting tasks carried out
        self.shard_batches = 0
        #: scans performed inside worker processes
        self.worker_scans = 0
        #: shard backends parse-and-rebuilt inside worker processes
        self.worker_rebuilds = 0
        #: shard backends re-admitted from persisted images in workers
        self.worker_image_admits = 0

    @property
    def backend(self) -> PartitionedBackend:
        return self._backend

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def chunk_size(self) -> int | None:
        return self._chunk_size

    @property
    def n_shards(self) -> int:
        return self._backend.n_shards

    @property
    def extra_scans(self) -> int:
        """Scans performed inside worker processes (shard counting in
        ``workers == 1`` mode runs on the parent backend's own pool,
        whose scans the miner already reads)."""
        return self.worker_scans

    def _ensure_pool(self) -> _PoolExecutor:
        if self._pool is None:
            self._pool = _PoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context(),
                initializer=_hydrate_shard_worker,
                initargs=(
                    self._backend.store,
                    self._backend.inner_name,
                    self._backend.memory_budget_mb,
                ),
            )
        return self._pool

    def shard_supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> list[tuple[int, dict[tuple[int, ...], int]]]:
        """Per-shard counts of one batch, in shard order."""
        self.batches += 1
        if not itemsets:
            return []
        return self._fan_shards(level, list(itemsets))

    def _fan_shards(
        self, level: int, itemsets: list[tuple[int, ...]]
    ) -> list[tuple[int, dict[tuple[int, ...], int]]]:
        """Raw per-shard fan-out of one batch (no caching layer)."""
        if self._workers == 1 or self._backend.n_shards == 1:
            results = list(
                self._backend.shard_supports_batched(
                    level, itemsets, chunk_size=self._chunk_size
                )
            )
            self.shard_batches += len(results)
            return results
        tasks = [
            (shard, level, itemsets, self._chunk_size)
            for shard in range(self._backend.n_shards)
        ]
        pool = self._ensure_pool()
        results: list[tuple[int, dict[tuple[int, ...], int]]] = []
        for shard_index, counts, scans, rebuilds, admits in pool.map(
            _count_shard, tasks
        ):
            self.worker_scans += scans
            self.worker_rebuilds += rebuilds
            self.worker_image_admits += admits
            if counts:
                results.append((shard_index, counts))
        self.shard_batches += len(results)
        return results

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        """Exact global supports: the merge of the shard counts.

        With a :class:`~repro.core.counting.DeltaCounter` backend the
        batch is first served from the counter's support cache (after
        folding in any freshly appended delta shards); only cache
        misses pay the per-shard fan-out, and their merged counts are
        memoized for the next run.  Either way the result is the exact
        SON sum, in the request's itemset order.
        """
        backend = self._backend
        if isinstance(backend, DeltaCounter):
            self.batches += 1
            if not itemsets:
                return {}
            return backend.serve(
                level,
                list(itemsets),
                chunk_size=self._chunk_size,
                fan=self._fan_shards,
            )
        merged: dict[tuple[int, ...], int] = {
            itemset: 0 for itemset in itemsets
        }
        for _shard, counts in self.shard_supports(level, itemsets):
            merge_shard_counts(merged, counts)
        return merged

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class PartitionedCountStage:
    """Count stage of the partitioned pipeline.

    Delegates to the executor's shard fan-out + merge (the single
    implementation of the SON merge), so the label and prune stages
    downstream run on exact global supports, and records how many
    (shard, batch) counting tasks the cell dispatched in the run
    stats.
    """

    name = "count"

    def run(self, context: MiningContext, state: CellState) -> None:
        executor = context.executor
        if not isinstance(executor, PartitionedExecutor):
            raise ConfigError(
                "PartitionedCountStage needs a PartitionedExecutor "
                f"(got {type(executor).__name__})"
            )
        before = executor.shard_batches
        state.supports = executor.supports(state.task.level, state.candidates)
        dispatched = executor.shard_batches - before
        extra = context.stats.extra
        extra["shard_batches"] = extra.get("shard_batches", 0) + dispatched


def build_partitioned_stages() -> list[Stage]:
    """The partitioned generate → count(merge) → label → prune
    pipeline (drop-in for ``build_default_stages``)."""
    return [
        GenerateStage(),
        PartitionedCountStage(),
        LabelStage(),
        SibpRemovalStage(),
    ]


# Register with the executor registry (the static dict cannot name
# this class without an import cycle; see repro.engine.executors).
EXECUTORS["partitioned"] = PartitionedExecutor
