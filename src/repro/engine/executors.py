"""Pluggable executors: how batched support counting is carried out.

The engine's counting stage hands an executor one ``(level, batch)``
request at a time; the executor decides *where* the chunks of that
batch are counted:

* :class:`SerialExecutor` — in-process, one chunk after another.  The
  default.
* :class:`ParallelExecutor` — fans chunks out across a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Worker processes
  obtain backend state either by **fork** (the parent's fully built
  backend is inherited copy-on-write — free on Linux) or by
  **re-hydration** (the database is shipped once per worker and the
  backend rebuilt there — the portable path under ``spawn``).

Both executors merge per-chunk results in chunk order, so for any
chunk size and worker count the returned mapping is byte-identical to
an unchunked serial count — the property the engine parity tests
assert.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from typing import Protocol, runtime_checkable

from repro.core.counting import (
    CountingBackend,
    backend_name_of,
    iter_chunks,
    make_backend,
)
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "EXECUTORS",
]


@runtime_checkable
class Executor(Protocol):
    """Protocol for counting executors."""

    @property
    def name(self) -> str:
        """Registry name (``serial``, ``process``)."""
        ...

    @property
    def extra_scans(self) -> int:
        """Scans performed outside the parent backend's counter (e.g.
        in worker processes); the miner folds them into db_scans."""
        ...

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        """Count one candidate batch (chunked per the executor's
        configuration)."""
        ...

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...


class SerialExecutor:
    """Count everything in the calling process."""

    name = "serial"

    def __init__(
        self, backend: CountingBackend, chunk_size: int | None = None
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self._backend = backend
        self._chunk_size = chunk_size
        #: batches dispatched (engine instrumentation)
        self.batches = 0

    @property
    def chunk_size(self) -> int | None:
        return self._chunk_size

    @property
    def workers(self) -> int:
        return 1

    @property
    def extra_scans(self) -> int:
        """Scans not visible on the parent backend's counter (none:
        serial counting runs on the parent backend itself)."""
        return 0

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        self.batches += 1
        return self._backend.supports_batched(
            level, itemsets, chunk_size=self._chunk_size
        )

    def close(self) -> None:  # nothing to release
        pass


# --- worker-side plumbing for ParallelExecutor ------------------------------
#
# One module-level slot per worker process.  Under fork the initializer
# receives the parent's backend object directly (inherited through the
# process image, never pickled); under spawn it receives the database +
# backend name and rebuilds the backend once per worker.
#
# Scan accounting: each chunk result carries the worker's not-yet-
# reported scan count.  The baseline is set at init — under fork the
# inherited backend's scans are already on the parent's counter, so
# reporting starts from there; under spawn the hydration build itself
# is real new IO (e.g. the bitmap index read), so reporting starts at
# zero and the first chunk carries the build scans too.

_WORKER_BACKEND: CountingBackend | None = None
_WORKER_SCANS_REPORTED = 0


def _adopt_backend(backend: CountingBackend) -> None:
    global _WORKER_BACKEND, _WORKER_SCANS_REPORTED
    _WORKER_BACKEND = backend
    _WORKER_SCANS_REPORTED = backend.scans


def _hydrate_backend(database: TransactionDatabase, backend_name: str) -> None:
    global _WORKER_BACKEND, _WORKER_SCANS_REPORTED
    _WORKER_BACKEND = make_backend(backend_name, database)
    _WORKER_SCANS_REPORTED = 0


def _count_chunk(
    task: tuple[int, Sequence[tuple[int, ...]]]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Count one chunk in the worker; also report the scans it cost,
    so the parent's IO-model accounting stays truthful."""
    global _WORKER_SCANS_REPORTED
    level, chunk = task
    assert _WORKER_BACKEND is not None, "worker backend not initialized"
    result = _WORKER_BACKEND.supports_batched(level, chunk)
    delta = _WORKER_BACKEND.scans - _WORKER_SCANS_REPORTED
    _WORKER_SCANS_REPORTED = _WORKER_BACKEND.scans
    return result, delta


class ParallelExecutor:
    """Fan chunked counting requests out across worker processes.

    Parameters
    ----------
    backend:
        The parent-process backend (also used directly for batches too
        small to be worth shipping).
    database:
        Needed to re-hydrate workers when ``fork`` is unavailable.
    workers:
        Worker process count (default: ``os.cpu_count()``).
    chunk_size:
        Candidates per worker task.  ``None`` picks a size that splits
        a batch roughly 4 ways per worker (bounded below by
        ``min_parallel``), keeping task-dispatch overhead amortized.
    min_parallel:
        Batches smaller than this are counted in-process — process
        round-trips cost more than the count itself.
    """

    name = "process"

    def __init__(
        self,
        backend: CountingBackend,
        database: TransactionDatabase,
        workers: int | None = None,
        chunk_size: int | None = None,
        min_parallel: int = 64,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self._backend = backend
        self._database = database
        self._workers = workers or os.cpu_count() or 1
        self._chunk_size = chunk_size
        self._min_parallel = max(1, min_parallel)
        self._pool: _PoolExecutor | None = None
        self.batches = 0
        self.chunks_dispatched = 0
        #: scans performed inside workers (invisible to the parent
        #: backend's counter; the miner adds them to db_scans)
        self.worker_scans = 0

    @property
    def chunk_size(self) -> int | None:
        return self._chunk_size

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def extra_scans(self) -> int:
        """Scans performed inside worker processes."""
        return self.worker_scans

    def _ensure_pool(self) -> _PoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context()
            if context.get_start_method() == "fork":
                self._pool = _PoolExecutor(
                    max_workers=self._workers,
                    mp_context=context,
                    initializer=_adopt_backend,
                    initargs=(self._backend,),
                )
            else:
                self._pool = _PoolExecutor(
                    max_workers=self._workers,
                    mp_context=context,
                    initializer=_hydrate_backend,
                    initargs=(
                        self._database,
                        backend_name_of(self._backend),
                    ),
                )
        return self._pool

    def _resolved_chunk_size(self, batch_size: int) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        per_worker = -(-batch_size // (self._workers * 4))
        return max(self._min_parallel, per_worker)

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        self.batches += 1
        if len(itemsets) < self._min_parallel:
            # In-process fallback still honors the configured chunking
            # (the horizontal backend's scans-per-chunk model must not
            # depend on where the chunks happen to be counted).
            return self._backend.supports_batched(
                level, itemsets, chunk_size=self._chunk_size
            )
        itemsets = list(itemsets)
        chunk_size = self._resolved_chunk_size(len(itemsets))
        tasks = [
            (level, list(chunk)) for chunk in iter_chunks(itemsets, chunk_size)
        ]
        if len(tasks) == 1:
            return self._backend.supports_batched(
                level, itemsets, chunk_size=chunk_size
            )
        pool = self._ensure_pool()
        self.chunks_dispatched += len(tasks)
        merged: dict[tuple[int, ...], int] = {}
        for chunk_result, scans in pool.map(_count_chunk, tasks):
            merged.update(chunk_result)
            self.worker_scans += scans
        return merged

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: ``partitioned`` is registered by :mod:`repro.engine.partition` on
#: package import (a static entry here would create an import cycle).
EXECUTORS: dict[str, type] = {
    "serial": SerialExecutor,
    "process": ParallelExecutor,
}


def make_executor(
    name: str,
    backend: CountingBackend,
    database: TransactionDatabase,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> Executor:
    """Instantiate an executor by name (``serial``, ``process`` or
    ``partitioned`` — the latter requires a partitioned backend)."""
    key = name.strip().lower()
    if key == "serial":
        if workers not in (None, 1):
            raise ConfigError(
                f"the serial executor runs one worker, got workers={workers}"
            )
        return SerialExecutor(backend, chunk_size=chunk_size)
    if key == "process":
        return ParallelExecutor(
            backend, database, workers=workers, chunk_size=chunk_size
        )
    if key == "partitioned":
        # Local import: partition → stages → plan → executors.
        from repro.core.counting import PartitionedBackend
        from repro.engine.partition import PartitionedExecutor

        if not isinstance(backend, PartitionedBackend):
            raise ConfigError(
                "the partitioned executor needs a partitioned backend; "
                "pass partitions=N (or a ShardedTransactionStore) to "
                "the miner"
            )
        return PartitionedExecutor(
            backend, workers=workers, chunk_size=chunk_size
        )
    known = ", ".join(sorted(set(EXECUTORS) | {"partitioned"}))
    raise ConfigError(f"unknown executor {name!r}; known: {known}")
