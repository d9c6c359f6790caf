"""Support-counting backends.

The miner asks one question: *how many transactions contain this
(h,k)-itemset?*  Three interchangeable backends answer it:

* :class:`BitmapBackend` (default) — per-level bitsets from
  :class:`~repro.data.vertical.VerticalIndex`; one popcount per
  itemset.  Fastest in pure Python.
* :class:`HorizontalBackend` — scans the level-projected transaction
  list once per *batch* of candidates, mirroring the paper's
  disk-resident sequential-scan cost model (one scan per cell).  Used
  by the backend ablation bench and as an independent cross-check of
  the bitmap arithmetic.
* :class:`NumpyBackend` — per-level boolean matrices; supports of a
  candidate batch are column-AND reductions.  A third independent
  implementation of the same contract, and the vectorized option for
  very wide candidate batches.

All backends implement the batched entry point
:meth:`~CountingBackend.supports_batched`, the unit of work the
engine's executors fan out across workers (see ARCHITECTURE.md):
candidates are counted in deterministic chunks, so a chunk is both
the horizontal backend's "one scan of the disk-resident input" and
the parallel executor's per-worker task.  ``node_supports`` results
are cached per level — the engine's stages and the SIBP device ask
for them repeatedly and must not trigger rescans.

All count *scans* so the harness can report IO-model work alongside
wall-clock time.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.data.columnar import (
    ColumnarShard,
    read_backend_image,
    taxonomy_fingerprint,
    write_backend_image,
)
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.data.vertical import VerticalIndex
from repro.errors import ConfigError, DataError
from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import trace_span
from repro.taxonomy.tree import Taxonomy

__all__ = [
    "CountingBackend",
    "BitmapBackend",
    "HorizontalBackend",
    "NumpyBackend",
    "PartitionedBackend",
    "DeltaCounter",
    "ShardBackendPool",
    "make_backend",
    "backend_name_of",
    "iter_chunks",
    "merge_shard_counts",
]


def iter_chunks(
    itemsets: Sequence[tuple[int, ...]], chunk_size: int | None
) -> Iterator[Sequence[tuple[int, ...]]]:
    """Deterministic chunking of a candidate batch.

    ``chunk_size=None`` (or a size covering the whole batch) yields a
    single chunk.  Order is preserved, so merging per-chunk results in
    yield order reproduces the unchunked result exactly.  Invalid
    chunk sizes raise at the call, not on first ``next()``.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    return _iter_chunks(itemsets, chunk_size)


def _iter_chunks(
    itemsets: Sequence[tuple[int, ...]], chunk_size: int | None
) -> Iterator[Sequence[tuple[int, ...]]]:
    if chunk_size is None or chunk_size >= len(itemsets):
        if itemsets:
            yield itemsets
        return
    for start in range(0, len(itemsets), chunk_size):
        yield itemsets[start : start + chunk_size]


@runtime_checkable
class CountingBackend(Protocol):
    """Protocol implemented by all counting backends."""

    @property
    def scans(self) -> int:
        """Number of (conceptual) full database scans performed."""
        ...

    def node_supports(self, level: int) -> dict[int, int]:
        """Support of every taxonomy node at ``level`` (cached)."""
        ...

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        """Support of each candidate itemset at ``level``."""
        ...

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Support of each candidate, counted in deterministic chunks.

        Semantically identical to :meth:`supports` for every chunk
        size; the chunk is the batching/parallelism unit the engine's
        executors dispatch.
        """
        ...


def _local_item_ids(reader: ColumnarShard, taxonomy: Taxonomy) -> np.ndarray:
    """Global item id of every *local* item id of a columnar shard."""
    id_by_name = {taxonomy.name_of(item): item for item in taxonomy.item_ids}
    items = np.empty(len(reader.item_names), dtype=np.int64)
    for local, name in enumerate(reader.item_names):
        item = id_by_name.get(name)
        if item is None:
            raise DataError(
                f"{reader.path}: unknown item {name!r} for the bound "
                "taxonomy"
            )
        items[local] = item
    return items


class _LazyLevelBits(dict):
    """Level -> per-node bitsets, decoded from packed image planes on
    first access.

    An image admit stays a true mmap-plus-header-check: the bigint
    decode of a level's plane is deferred until that level is actually
    counted.  Under budgeted evict/re-admit churn a re-admitted shard
    is typically counted at a single level, so the other levels'
    planes are never decoded at all.  Decoded levels are cached in the
    dict itself, so each level pays the decode at most once.
    """

    def __init__(
        self, planes: dict[int, tuple[list[Any], np.ndarray]]
    ) -> None:
        super().__init__()
        #: level -> (node id table, packed uint8 plane)
        self._planes = planes

    def __missing__(self, level: int) -> dict[int, int]:
        nodes, plane = self._planes[level]
        width = plane.shape[1]
        raw = plane.tobytes()
        from_bytes = int.from_bytes
        bits = {
            int(node_id): from_bytes(
                raw[i * width : (i + 1) * width], "little"
            )
            for i, node_id in enumerate(nodes)
        }
        self[level] = bits
        return bits

    def __iter__(self) -> Iterator[int]:
        return iter(self._planes)

    def __len__(self) -> int:
        return len(self._planes)

    def __contains__(self, level: object) -> bool:
        return level in self._planes


class BitmapBackend:
    """Vertical bitset counting (see :class:`VerticalIndex`)."""

    def __init__(self, database: TransactionDatabase) -> None:
        self._index = VerticalIndex(database)
        self._scans = 1  # building the index reads the database once
        self._node_supports: dict[int, dict[int, int]] = {}

    @classmethod
    def from_columnar(
        cls, reader: ColumnarShard, taxonomy: Taxonomy
    ) -> "BitmapBackend":
        """Build the bitset index straight from a shard's mapped CSR
        arrays — one vectorized bit-scatter per level, no per-row
        Python objects and no :class:`TransactionDatabase`."""
        n_rows = reader.n_rows
        width = (n_rows + 7) // 8
        local_items = _local_item_ids(reader, taxonomy)
        row_index = reader.row_index()
        byte_index = row_index >> 3
        bit_values = (1 << (row_index & 7).astype(np.uint8)).astype(np.uint8)
        level_bits: dict[int, dict[int, int]] = {}
        for level in range(1, taxonomy.height + 1):
            mapping = taxonomy.item_ancestor_map(level)
            nodes = taxonomy.nodes_at_level(level)
            columns = {node_id: i for i, node_id in enumerate(nodes)}
            local_to_col = np.array(
                [columns[mapping[int(item)]] for item in local_items],
                dtype=np.intp,
            )
            plane = np.zeros((len(nodes), width), dtype=np.uint8)
            if reader.n_values:
                np.bitwise_or.at(
                    plane,
                    (local_to_col[reader.items], byte_index),
                    bit_values,
                )
            level_bits[level] = {
                node_id: int.from_bytes(plane[col].tobytes(), "little")
                for node_id, col in columns.items()
            }
        backend = cls.__new__(cls)
        backend._index = VerticalIndex.from_level_bits(
            level_bits, taxonomy.height
        )
        backend._scans = 1
        backend._node_supports = {}
        return backend

    @classmethod
    def from_image(
        cls,
        header: dict[str, Any],
        arrays: list[np.ndarray],
        height: int,
    ) -> "BitmapBackend":
        """Reattach an index from a persisted backend image without
        any database scan (``scans`` stays 0).

        Plane shapes and level coverage are validated eagerly; the
        bigint decode of each plane is deferred to the first count at
        that level (see :class:`_LazyLevelBits`), so the admit itself
        touches headers and array metadata only.
        """
        planes: dict[int, tuple[list[Any], np.ndarray]] = {}
        for entry, plane in zip(header["levels"], arrays):
            nodes = entry["nodes"]
            if plane.ndim != 2 or plane.shape[0] != len(nodes):
                raise DataError("bitmap image plane shape mismatch")
            planes[int(entry["level"])] = (nodes, plane)
        if set(planes) != set(range(1, height + 1)):
            raise DataError("bitmap image does not cover every level")
        backend = cls.__new__(cls)
        backend._index = VerticalIndex.from_level_bits(
            _LazyLevelBits(planes), height
        )
        backend._scans = 0
        backend._node_supports = {}
        return backend

    def image_payload(
        self, n_rows: int
    ) -> tuple[dict[str, Any], list[np.ndarray]]:
        """The persistable form of this backend: per level, the node
        id table plus the bitsets packed little-endian into a
        ``uint8 (n_nodes, ceil(n_rows / 8))`` plane."""
        width = (n_rows + 7) // 8
        levels: list[dict[str, Any]] = []
        arrays: list[np.ndarray] = []
        for level in sorted(self._index.level_bits):
            bits = self._index.level_bits[level]
            nodes = list(bits)
            plane = np.zeros((len(nodes), width), dtype=np.uint8)
            for i, node_id in enumerate(nodes):
                raw = bits[node_id].to_bytes(width, "little")
                plane[i] = np.frombuffer(raw, dtype=np.uint8)
            levels.append({"level": level, "nodes": nodes})
            arrays.append(plane)
        return {"backend": "bitmap", "levels": levels}, arrays

    @property
    def scans(self) -> int:
        return self._scans

    def node_supports(self, level: int) -> dict[int, int]:
        if level not in self._node_supports:
            self._node_supports[level] = self._index.node_supports(level)
        return self._node_supports[level]

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        support = self._index.support
        return {itemset: support(level, itemset) for itemset in itemsets}

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        support = self._index.support
        out: dict[tuple[int, ...], int] = {}
        for chunk in iter_chunks(itemsets, chunk_size):
            for itemset in chunk:
                out[itemset] = support(level, itemset)
        return out


class HorizontalBackend:
    """Sequential-scan counting over level projections.

    Every batch (chunk) walks the projected transaction list exactly
    once, whatever the number of candidates — the paper's "counting by
    sequential scans of disk-resident input data" model.  A chunk is
    one scan, so ``supports_batched`` with a finite ``chunk_size``
    models a candidate set too large for one in-memory pass.
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self._database = database
        self._projections: dict[int, list[frozenset[int]]] = {}
        self._node_supports: dict[int, dict[int, int]] = {}
        self._scans = 0

    @property
    def scans(self) -> int:
        return self._scans

    def _projection(self, level: int) -> list[frozenset[int]]:
        if level not in self._projections:
            self._projections[level] = self._database.project_to_level(level)
        return self._projections[level]

    def node_supports(self, level: int) -> dict[int, int]:
        if level in self._node_supports:
            return self._node_supports[level]
        self._scans += 1
        counts: dict[int, int] = {
            node_id: 0
            for node_id in self._database.taxonomy.nodes_at_level(level)
        }
        for transaction in self._projection(level):
            for node_id in transaction:
                counts[node_id] += 1
        self._node_supports[level] = counts
        return counts

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        self._scans += 1
        counts: dict[tuple[int, ...], int] = {
            itemset: 0 for itemset in itemsets
        }
        if not counts:
            return counts
        candidate_list = list(counts)
        for transaction in self._projection(level):
            for itemset in candidate_list:
                contained = True
                for node_id in itemset:
                    if node_id not in transaction:
                        contained = False
                        break
                if contained:
                    counts[itemset] += 1
        return counts

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for chunk in iter_chunks(itemsets, chunk_size):
            out.update(self.supports(level, chunk))
        return out


class NumpyBackend:
    """Boolean-matrix counting on NumPy.

    Each level is materialized lazily as an ``(n_transactions,
    n_nodes)`` boolean matrix; a candidate's support is the count of
    rows where all its columns are True.  Functionally identical to
    the other backends (the ablation bench asserts it), with the
    vectorization profile of a column store.  ``supports_batched``
    counts whole chunks with a single gather + AND-reduction, so the
    chunk size bounds the temporary ``(n, chunk, k)`` tensor.
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self._database: TransactionDatabase | None = database
        self._taxonomy = database.taxonomy
        self._scans = 1  # materializing a level reads the database once
        #: level -> (matrix, node_id -> column)
        self._levels: dict[int, tuple[np.ndarray, dict[int, int]]] = {}
        self._node_supports: dict[int, dict[int, int]] = {}
        #: columnar source (reader, global item id per local id) — set
        #: by :meth:`from_columnar`, drives the vectorized level build
        self._columnar: tuple[ColumnarShard, np.ndarray] | None = None
        self._row_index: np.ndarray | None = None
        #: lazy database loader for image-restored backends that get
        #: asked for a level the image did not carry
        self._loader: Callable[[], TransactionDatabase | None] | None = None

    @classmethod
    def from_columnar(
        cls, reader: ColumnarShard, taxonomy: Taxonomy
    ) -> "NumpyBackend":
        """Count straight off a shard's mapped CSR arrays.

        Levels are still materialized lazily, but each build is one
        vectorized scatter over the mapped ``(row, item)`` pairs — the
        per-row Python-object loop of the database path never runs.
        """
        backend = cls.__new__(cls)
        backend._database = None
        backend._taxonomy = taxonomy
        backend._scans = 1
        backend._levels = {}
        backend._node_supports = {}
        backend._columnar = (reader, _local_item_ids(reader, taxonomy))
        backend._row_index = None
        backend._loader = None
        return backend

    @classmethod
    def from_image(
        cls,
        taxonomy: Taxonomy,
        header: dict[str, Any],
        arrays: list[np.ndarray],
        *,
        reader: ColumnarShard | None = None,
        loader: Callable[[], TransactionDatabase | None] | None = None,
    ) -> "NumpyBackend":
        """Reattach level matrices from a persisted backend image.

        The mapped boolean matrices are served directly (``scans``
        stays 0).  ``reader``/``loader`` supply a fallback source for
        any level the image does not carry.
        """
        n_rows = int(header["n_rows"])
        backend = cls.__new__(cls)
        backend._database = None
        backend._taxonomy = taxonomy
        backend._scans = 0
        backend._levels = {}
        backend._node_supports = {}
        backend._columnar = (
            None
            if reader is None
            else (reader, _local_item_ids(reader, taxonomy))
        )
        backend._row_index = None
        backend._loader = loader
        for entry, matrix in zip(header["levels"], arrays):
            nodes = entry["nodes"]
            if (
                matrix.ndim != 2
                or matrix.dtype != np.bool_
                or matrix.shape != (n_rows, len(nodes))
            ):
                raise DataError("numpy image matrix shape mismatch")
            columns = {int(node_id): i for i, node_id in enumerate(nodes)}
            backend._levels[int(entry["level"])] = (matrix, columns)
        return backend

    def image_payload(
        self, n_rows: int
    ) -> tuple[dict[str, Any], list[np.ndarray]]:
        """The persistable form: every *materialized* level's node
        table and boolean matrix (a level never asked for is not in
        the image; a restored backend rebuilds it on demand)."""
        levels: list[dict[str, Any]] = []
        arrays: list[np.ndarray] = []
        for level in sorted(self._levels):
            matrix, columns = self._levels[level]
            nodes = sorted(columns, key=columns.__getitem__)
            levels.append({"level": level, "nodes": nodes})
            arrays.append(np.ascontiguousarray(matrix))
        return {"backend": "numpy", "levels": levels}, arrays

    @property
    def scans(self) -> int:
        return self._scans

    def _level(self, level: int) -> tuple[np.ndarray, dict[int, int]]:
        if level not in self._levels:
            nodes = self._taxonomy.nodes_at_level(level)
            columns = {node_id: i for i, node_id in enumerate(nodes)}
            mapping = self._taxonomy.item_ancestor_map(level)
            if self._columnar is not None:
                reader, local_items = self._columnar
                if self._row_index is None:
                    self._row_index = reader.row_index()
                matrix = np.zeros((reader.n_rows, len(nodes)), dtype=bool)
                if reader.n_values:
                    local_to_col = np.array(
                        [
                            columns[mapping[int(item)]]
                            for item in local_items
                        ],
                        dtype=np.intp,
                    )
                    matrix[self._row_index, local_to_col[reader.items]] = True
            else:
                if self._database is None and self._loader is not None:
                    self._database = self._loader()
                    self._scans += 1  # the fallback re-reads the rows
                if self._database is None:
                    raise DataError(
                        f"level {level} is not in this backend's image "
                        "and no row source is attached"
                    )
                matrix = np.zeros(
                    (self._database.n_transactions, len(nodes)),
                    dtype=bool,
                )
                for row, transaction in enumerate(self._database):
                    for item in transaction:
                        matrix[row, columns[mapping[item]]] = True
            self._levels[level] = (matrix, columns)
        return self._levels[level]

    def node_supports(self, level: int) -> dict[int, int]:
        if level not in self._node_supports:
            matrix, columns = self._level(level)
            sums = matrix.sum(axis=0)
            self._node_supports[level] = {
                node_id: int(sums[col]) for node_id, col in columns.items()
            }
        return self._node_supports[level]

    def _columns_of(
        self, level: int, itemset: tuple[int, ...], columns: dict[int, int]
    ) -> list[int]:
        try:
            return [columns[node_id] for node_id in itemset]
        except KeyError as exc:
            raise DataError(
                f"itemset {itemset} contains a node not at level {level}"
            ) from exc

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        matrix, columns = self._level(level)
        out: dict[tuple[int, ...], int] = {}
        for itemset in itemsets:
            cols = self._columns_of(level, itemset, columns)
            out[itemset] = int(matrix[:, cols].all(axis=1).sum())
        return out

    #: target element count of the (n, run, k) gather temporary; runs
    #: are split so one tensor op stays around ~256 MiB of bools
    _GATHER_BUDGET = 256 * 1024 * 1024

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        matrix, columns = self._level(level)
        n = max(1, matrix.shape[0])
        out: dict[tuple[int, ...], int] = {}
        for chunk in iter_chunks(itemsets, chunk_size):
            # One gather per uniform-k run within the chunk: cells have
            # uniform k, so this is normally one tensor op per chunk.
            # Runs are additionally capped so chunk_size=None cannot
            # materialize an unbounded (n, run, k) temporary.
            start = 0
            while start < len(chunk):
                k = len(chunk[start])
                stop = start
                while stop < len(chunk) and len(chunk[stop]) == k:
                    stop += 1
                cap = max(1, self._GATHER_BUDGET // (n * max(1, k)))
                while start < stop:
                    run = chunk[start : min(stop, start + cap)]
                    cols = np.array(
                        [
                            self._columns_of(level, itemset, columns)
                            for itemset in run
                        ],
                        dtype=np.intp,
                    )
                    counts = matrix[:, cols].all(axis=2).sum(axis=0)
                    for itemset, count in zip(run, counts):
                        out[itemset] = int(count)
                    start += len(run)
        return out


def merge_shard_counts(
    merged: dict[tuple[int, ...], int],
    shard_counts: dict[tuple[int, ...], int],
) -> None:
    """Fold one shard's counts into the global tally, in place.

    Shards are disjoint subsets of the transactions, so exact global
    support is the plain integer sum — the merge half of the SON
    partition-and-merge scheme.
    """
    for itemset, count in shard_counts.items():
        merged[itemset] = merged.get(itemset, 0) + count


class ShardBackendPool:
    """Memory-budgeted residency of per-shard counting backends.

    The pool lazily builds ``inner``-type backends over the shards of
    a :class:`~repro.data.shards.ShardedTransactionStore` and keeps at
    most a budget's worth of them resident, evicting in LRU order.
    With ``memory_budget_mb`` set, resident index structures stay
    proportional to the budget instead of the dataset.  Scans
    performed by evicted backends are retained so the store-wide
    ``scans`` counter stays truthful.

    Re-admitting an evicted shard normally means parse-and-rebuild.
    With ``persist_images`` (the default, for the ``bitmap`` and
    ``numpy`` inners) the pool writes an evicted backend's built
    structure next to the shard as a backend image (see
    :mod:`repro.data.columnar`), and a later admit of the same shard
    becomes an mmap plus a header check.  Image validity is enforced
    on every admit — format version, backend kind, row count, source
    file size and taxonomy fingerprint must all match, otherwise the
    image is ignored and the shard is rebuilt (a stale image is never
    served).  ``rebuilds`` counts parse-and-rebuild admits beyond the
    first build; ``image_admits`` counts zero-parse admits from a
    persisted image.

    Per-shard resident cost: columnar shards are charged their actual
    mapped bytes (shard file plus image file, or an analytic size of
    the built structure when no image exists yet); legacy jsonl
    shards keep the historical on-disk-size-times-expansion-factor
    heuristic.

    Two residency guarantees hold for *any* budget, including one
    smaller than a single shard:

    * the shard being admitted is always admitted (the pool runs
      temporarily over budget rather than serving nothing), so there
      is always at least one resident backend after an access;
    * a *pinned* shard — one currently being counted through
      :meth:`iter_backends` — is never chosen as an eviction victim,
      so re-entrant pool access (another shard faulted in mid-count)
      cannot evict and silently rebuild the backend in use.
    """

    #: estimated resident bytes per on-disk shard byte for the legacy
    #: jsonl parse-and-build path (index structures, python object
    #: overhead); columnar shards are charged actual mapped sizes
    RESIDENCY_FACTOR = 16

    #: rough python-object overhead per bitset (the ``int`` header
    #: plus a dict slot) in the analytic bitmap size model
    _BITSET_OVERHEAD = 64

    #: inner backends that support persisted images
    _IMAGE_BACKENDS = frozenset({"bitmap", "numpy"})

    def __init__(
        self,
        store: ShardedTransactionStore,
        inner: str = "bitmap",
        memory_budget_mb: float | None = None,
        *,
        persist_images: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if inner not in _BACKENDS:
            known = ", ".join(sorted(_BACKENDS))
            raise ConfigError(
                f"unknown counting backend {inner!r}; known: {known}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ConfigError(
                f"memory_budget_mb must be > 0, got {memory_budget_mb}"
            )
        self._store = store
        self._inner = inner
        self._budget_bytes = (
            None
            if memory_budget_mb is None
            else int(memory_budget_mb * 1024 * 1024)
        )
        #: insertion order == LRU order (moved on access)
        self._resident: dict[int, CountingBackend | None] = {}
        self._resident_bytes: dict[int, int] = {}
        #: shards currently handed out by iter_backends; exempt from
        #: eviction until the consumer is done with them
        self._pinned: set[int] = set()
        self._retired_scans = 0
        #: parse-and-rebuilds beyond the first per shard == evictions
        #: paid for in full
        self.rebuilds = 0
        #: zero-parse admits served from a persisted backend image
        self.image_admits = 0
        #: backend images written on eviction / save_images()
        self.images_saved = 0
        self._built: set[int] = set()
        self._persist_images = (
            persist_images and inner in self._IMAGE_BACKENDS
        )
        self._fingerprint = taxonomy_fingerprint(store.taxonomy)
        #: resident shards whose backend came from (or was saved to)
        #: an on-disk image — no need to rewrite it on eviction
        self._imaged: set[int] = set()
        #: registry mirrors of the attribute counters above — the
        #: attributes stay the per-pool API, the registry series feed
        #: /v1/metrics
        registry = registry if registry is not None else default_registry()
        self._m_admits = registry.counter(catalog.POOL_ADMITS)
        self._m_evictions = registry.counter(catalog.POOL_EVICTIONS)
        self._m_images_saved = registry.counter(catalog.POOL_IMAGES_SAVED)
        self._m_resident_bytes = registry.gauge(catalog.POOL_RESIDENT_BYTES)

    @property
    def store(self) -> ShardedTransactionStore:
        return self._store

    @property
    def inner_name(self) -> str:
        return self._inner

    @property
    def resident_shards(self) -> list[int]:
        """Currently resident shard indexes (LRU first)."""
        return list(self._resident)

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes of everything currently resident."""
        return sum(self._resident_bytes.values())

    @property
    def scans(self) -> int:
        """Scans across every backend the pool ever built."""
        total = self._retired_scans
        for backend in self._resident.values():
            if backend is not None:
                total += backend.scans
        return total

    def _analytic_built_bytes(self, index: int) -> int:
        """Size model of the built ``inner`` structure of one shard —
        exact array math for numpy, bitset bytes plus per-object
        overhead for bitmap."""
        n_rows = self._store.shard_sizes[index]
        taxonomy = self._store.taxonomy
        total = 0
        for level in range(1, taxonomy.height + 1):
            n_nodes = len(taxonomy.nodes_at_level(level))
            if self._inner == "numpy":
                total += n_nodes * n_rows  # bool matrix
            else:  # bitmap
                total += n_nodes * ((n_rows + 7) // 8 + self._BITSET_OVERHEAD)
        return total

    def _estimate_bytes(self, index: int) -> int:
        """Resident cost of one shard's backend.

        Columnar shards are charged truthfully: the mapped shard file
        plus either the mapped image file (when one exists for this
        inner) or the analytic size of the structure a build would
        materialize.  Jsonl shards keep the legacy expansion-factor
        heuristic — their resident cost is dominated by parsed Python
        objects, which no file size reflects.
        """
        size = self._store.shard_bytes(index)
        if (
            self._store.shard_format(index) != "columnar"
            or self._inner not in self._IMAGE_BACKENDS
        ):
            return max(1, size) * self.RESIDENCY_FACTOR
        image_path = self._store.image_path(index, self._inner)
        try:
            built = image_path.stat().st_size
        except OSError:
            built = self._analytic_built_bytes(index)
        return max(1, size + built)

    def _evict_for(self, incoming_bytes: int) -> None:
        if self._budget_bytes is None:
            return
        while (
            sum(self._resident_bytes.values()) + incoming_bytes
            > self._budget_bytes
        ):
            victim = next(
                (
                    index
                    for index in self._resident
                    if index not in self._pinned
                ),
                None,
            )
            if victim is None:
                # Only pinned shards (or nothing) left: run over budget
                # rather than evict a backend that is mid-count.
                return
            backend = self._resident.pop(victim)
            self._resident_bytes.pop(victim)
            self._m_evictions.inc()
            if backend is not None:
                self._retired_scans += backend.scans
                # An eviction is exactly when a rebuild threat exists:
                # persist the built structure so the next admit maps
                # it instead of rebuilding.
                self._save_image(victim, backend)
            self._imaged.discard(victim)
            # the budget always admits at least the incoming shard

    # ------------------------------------------------------------------
    # image persistence
    # ------------------------------------------------------------------

    def _save_image(self, index: int, backend: CountingBackend) -> bool:
        """Best-effort write of one resident backend's image (skipped
        when the backend already came from the on-disk image)."""
        if not self._persist_images or index in self._imaged:
            return False
        payload = getattr(backend, "image_payload", None)
        if payload is None:
            return False
        n_rows = self._store.shard_sizes[index]
        try:
            meta, arrays = payload(n_rows)
            if not arrays:
                return False
            meta["n_rows"] = n_rows
            meta["taxonomy_fingerprint"] = self._fingerprint
            meta["source_bytes"] = self._store.shard_bytes(index)
            write_backend_image(
                self._store.image_path(index, self._inner), meta, arrays
            )
        except (OSError, DataError):
            return False
        self.images_saved += 1
        self._m_images_saved.inc()
        self._imaged.add(index)
        return True

    def save_images(self) -> int:
        """Persist every resident backend's image now (evictions do
        this lazily; call this to warm a store for future sessions).
        Returns the number of images written."""
        saved = 0
        for index, backend in list(self._resident.items()):
            if backend is not None and self._save_image(index, backend):
                saved += 1
        return saved

    def _admit_from_image(self, index: int) -> CountingBackend | None:
        """Map a persisted backend image if — and only if — its header
        proves it matches this shard, backend and taxonomy."""
        if not self._persist_images:
            return None
        path = self._store.image_path(index, self._inner)
        loaded = read_backend_image(path)
        if loaded is None:
            return None
        header, arrays = loaded
        n_rows = self._store.shard_sizes[index]
        if (
            header.get("backend") != self._inner
            or header.get("n_rows") != n_rows
            or header.get("taxonomy_fingerprint") != self._fingerprint
            or header.get("source_bytes") != self._store.shard_bytes(index)
        ):
            return None
        levels = header.get("levels")
        if not isinstance(levels, list) or len(levels) != len(arrays):
            return None
        taxonomy = self._store.taxonomy
        try:
            if self._inner == "bitmap":
                return BitmapBackend.from_image(
                    header, arrays, taxonomy.height
                )
            if self._store.shard_format(index) == "columnar":
                return NumpyBackend.from_image(
                    taxonomy,
                    header,
                    arrays,
                    reader=self._store.columnar_reader(index),
                )
            store, inner_index = self._store, index
            return NumpyBackend.from_image(
                taxonomy,
                header,
                arrays,
                loader=lambda: store.shard_database(inner_index),
            )
        except (DataError, KeyError, TypeError, ValueError):
            return None

    def _build(self, index: int) -> CountingBackend:
        """Parse-and-build one shard's backend.  Columnar shards feed
        the vectorized ``from_columnar`` constructors; jsonl shards
        (and the horizontal inner) go through a per-shard database."""
        if self._store.shard_format(index) == "columnar":
            reader = self._store.columnar_reader(index)
            if self._inner == "bitmap":
                return BitmapBackend.from_columnar(
                    reader, self._store.taxonomy
                )
            if self._inner == "numpy":
                return NumpyBackend.from_columnar(reader, self._store.taxonomy)
        database = self._store.shard_database(index)
        assert database is not None  # empty shards never reach here
        return make_backend(self._inner, database)

    def backend(self, index: int) -> CountingBackend | None:
        """The backend of one shard (``None`` for an empty shard),
        admitting from a persisted image when a valid one exists,
        building otherwise, and evicting as the budget requires."""
        if index in self._resident:
            # refresh LRU position
            backend = self._resident.pop(index)
            self._resident[index] = backend
            return backend
        if self._store.shard_sizes[index] == 0:
            self._resident[index] = None
            self._resident_bytes[index] = 0
            return None
        estimate = self._estimate_bytes(index)
        self._evict_for(estimate)
        backend = self._admit_from_image(index)
        if backend is not None:
            self.image_admits += 1
            self._m_admits.inc(kind="image")
            self._imaged.add(index)
        else:
            backend = self._build(index)
            if index in self._built:
                self.rebuilds += 1
                self._m_admits.inc(kind="rebuild")
            else:
                self._m_admits.inc(kind="build")
        self._built.add(index)
        self._resident[index] = backend
        self._resident_bytes[index] = estimate
        self._m_resident_bytes.set(self.resident_bytes)
        return backend

    def iter_backends(self) -> Iterator[tuple[int, CountingBackend]]:
        """Stream ``(shard_index, backend)`` over non-empty shards.

        The yielded shard is pinned while the consumer holds it, so
        nested pool accesses (or another iteration) cannot evict the
        backend out from under a count in progress.
        """
        for index in range(self._store.n_shards):
            backend = self.backend(index)
            if backend is None:
                continue
            self._pinned.add(index)
            try:
                yield index, backend
            finally:
                self._pinned.discard(index)

    @property
    def pinned_shards(self) -> set[int]:
        """Shard indexes currently handed out by :meth:`iter_backends`
        (a count over them is in progress)."""
        return set(self._pinned)

    def drop_shards(self, indexes: Iterable[int]) -> None:
        """Forget retired shards and renumber the survivors.

        Called after the store compacts its shard list (see
        :meth:`~repro.data.shards.ShardedTransactionStore.retire_shards`):
        every pool structure is keyed by shard *index*, so surviving
        entries shift down by the number of retired shards below them.
        Retired backends' scans are folded into the retained-scans
        tally (the work really happened); retiring a pinned shard —
        one mid-count in :meth:`iter_backends` — is an error.
        """
        retired = sorted(set(int(index) for index in indexes))
        if not retired:
            return
        pinned = set(retired) & self._pinned
        if pinned:
            raise DataError(
                f"cannot drop pinned shard(s) {sorted(pinned)}: a "
                "count over them is in progress"
            )

        def remap(old: int) -> int:
            return old - bisect.bisect_left(retired, old)

        retired_set = set(retired)
        resident: dict[int, CountingBackend | None] = {}
        resident_bytes: dict[int, int] = {}
        for old, backend in self._resident.items():
            if old in retired_set:
                if backend is not None:
                    self._retired_scans += backend.scans
                continue
            resident[remap(old)] = backend
            resident_bytes[remap(old)] = self._resident_bytes[old]
        self._resident = resident
        self._resident_bytes = resident_bytes
        self._built = {
            remap(old) for old in self._built if old not in retired_set
        }
        self._imaged = {
            remap(old) for old in self._imaged if old not in retired_set
        }
        self._pinned = {remap(old) for old in self._pinned}
        self._m_resident_bytes.set(self.resident_bytes)


class PartitionedBackend:
    """Partition-and-merge counting over a sharded store.

    Implements the :class:`CountingBackend` protocol by instantiating
    one *inner* backend (``bitmap``, ``horizontal`` or ``numpy``) per
    shard and summing per-shard counts into exact global supports —
    shards partition the transactions, so the sums equal what a
    monolithic backend over the whole database would report, and the
    mining output is byte-identical (the engine parity tests assert
    it).  Shard residency is delegated to :class:`ShardBackendPool`,
    so the working set follows ``memory_budget_mb``, not the dataset.
    """

    def __init__(
        self,
        store: ShardedTransactionStore,
        inner: str = "bitmap",
        memory_budget_mb: float | None = None,
        *,
        persist_images: bool = True,
    ) -> None:
        self._pool = ShardBackendPool(
            store,
            inner=inner,
            memory_budget_mb=memory_budget_mb,
            persist_images=persist_images,
        )
        self._taxonomy = store.taxonomy
        self._node_supports: dict[int, dict[int, int]] = {}
        self._memory_budget_mb = memory_budget_mb

    @property
    def store(self) -> ShardedTransactionStore:
        return self._pool.store

    @property
    def pool(self) -> ShardBackendPool:
        return self._pool

    @property
    def inner_name(self) -> str:
        return self._pool.inner_name

    @property
    def n_shards(self) -> int:
        return self._pool.store.n_shards

    @property
    def memory_budget_mb(self) -> float | None:
        return self._memory_budget_mb

    @property
    def scans(self) -> int:
        return self._pool.scans

    def node_supports(self, level: int) -> dict[int, int]:
        if level not in self._node_supports:
            # One residency pass over the shards computes *every*
            # mining level's node supports: the miner's preparation
            # asks for all of them anyway, and under a tight memory
            # budget a per-level pass would evict and re-read each
            # shard once per taxonomy level (height x n_shards I/O
            # instead of n_shards).  Out-of-range / level-0 requests
            # fall back to a single-level pass (and the taxonomy's
            # own error for invalid levels).
            levels = (
                range(1, self._taxonomy.height + 1)
                if 1 <= level <= self._taxonomy.height
                else [level]
            )
            merged = {
                lvl: {
                    node_id: 0
                    for node_id in self._taxonomy.nodes_at_level(lvl)
                }
                for lvl in levels
            }
            for _index, backend in self._pool.iter_backends():
                for lvl, counts in merged.items():
                    for node_id, count in backend.node_supports(lvl).items():
                        counts[node_id] += count
            self._node_supports.update(merged)
        return self._node_supports[level]

    def shard_supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> Iterator[tuple[int, dict[tuple[int, ...], int]]]:
        """Per-shard counts of one candidate batch (empty shards are
        skipped — they contribute zero to every support)."""
        for index, backend in self._pool.iter_backends():
            yield index, backend.supports_batched(
                level, itemsets, chunk_size=chunk_size
            )

    def supports(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> dict[tuple[int, ...], int]:
        return self.supports_batched(level, itemsets)

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        merged: dict[tuple[int, ...], int] = {
            itemset: 0 for itemset in itemsets
        }
        for _index, counts in self.shard_supports_batched(
            level, itemsets, chunk_size=chunk_size
        ):
            merge_shard_counts(merged, counts)
        return merged


class DeltaCounter(PartitionedBackend):
    """Incremental (SON-style, exact) counting over a *changing* store.

    A :class:`PartitionedBackend` whose per-level node supports and
    per-itemset supports are **cached and maintained under deltas**:
    when the underlying :class:`~repro.data.shards.ShardedTransactionStore`
    grows through ``append_batch``, :meth:`refresh` counts the *delta
    shards only* and folds their contributions into the cached global
    tallies.  Shards partition the transactions, so cached support +
    delta support is the exact global support — the same SON merge the
    partitioned path already relies on, applied over time instead of
    over space.  The store shrinks through :meth:`retire`, the exact
    inverse: the retiring shards are counted once and their
    contributions *subtracted* from the cached tallies before the
    shards are dropped from the store — the SON merge run in reverse.
    Grow and shrink compose because the counted set is tracked as an
    explicit set of shard *generations*, not a high-water mark.

    Every public counting entry point refreshes first, so a counter is
    never served stale: cache hits are dict lookups, cache misses are
    counted over all shards (through the memory-budgeted pool) and
    memoized.  Re-mining after a delta therefore pays

    * one backend build + one count pass over the delta shards, and
    * full counting only for candidates never seen before,

    instead of re-reading and re-counting the whole store — the cost
    profile :class:`~repro.engine.incremental.IncrementalMiner` and
    the ``repro bench incremental`` harness quantify.

    With ``memory_budget_mb`` set, the supports cache honors the
    budget too: once its estimated footprint reaches the budget, new
    entries are simply not memoized (counts stay exact — uncached
    candidates are recounted on demand), so the partitioned path's
    bounded-memory contract survives the caching layer.
    """

    #: executors consult this to route counting through the cache
    serves_cached_supports = True

    #: rough resident bytes per cached itemset entry (tuple key,
    #: ints, dict slot) — only used to turn ``memory_budget_mb``
    #: into a cache-size cap, so exactness does not matter
    CACHE_BYTES_PER_ITEMSET = 200

    def __init__(
        self,
        store: ShardedTransactionStore,
        inner: str = "bitmap",
        memory_budget_mb: float | None = None,
        *,
        persist_images: bool = True,
    ) -> None:
        super().__init__(
            store,
            inner=inner,
            memory_budget_mb=memory_budget_mb,
            persist_images=persist_images,
        )
        #: generation stamps of the shards folded into every cache
        #: below (an explicit set so appends and retirements compose)
        self._counted: set[int] = set(store.shard_generations)
        #: level -> {itemset -> exact support over counted shards}
        self._supports_cache: dict[int, dict[tuple[int, ...], int]] = {}
        self._max_cached_itemsets = (
            None
            if memory_budget_mb is None
            else max(
                1024,
                int(memory_budget_mb * 1024 * 1024)
                // self.CACHE_BYTES_PER_ITEMSET,
            )
        )
        #: instrumentation (cumulative across refreshes/runs)
        self.cache_hits = 0
        self.cache_misses = 0
        self.refreshes = 0
        self.delta_shards_counted = 0
        self.retired_shards = 0
        self.retired_rows = 0
        registry = default_registry()
        self._m_cache_hits = registry.counter(catalog.CACHE_HITS)
        self._m_cache_misses = registry.counter(catalog.CACHE_MISSES)
        self._m_cache_size = registry.gauge(catalog.CACHE_SIZE)
        self._m_retired_shards = registry.counter(catalog.RETIRED_SHARDS)
        self._m_retired_rows = registry.counter(catalog.RETIRED_ROWS)

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------

    @property
    def counted_shards(self) -> int:
        """Number of shards folded into the caches so far."""
        return len(self._counted)

    @property
    def counted_generations(self) -> list[int]:
        """Generation stamps of the shards folded into the caches."""
        return sorted(self._counted)

    @property
    def cached_itemsets(self) -> int:
        """Itemsets held in the supports cache (all levels)."""
        return sum(len(cache) for cache in self._supports_cache.values())

    def refresh(self) -> list[int]:
        """Fold shards appended since the last refresh into the caches.

        Counts node supports (for every cached level) and every cached
        itemset over the *new shards only*, adds the delta counts to
        the cached global tallies, and returns the new shard indexes.
        A no-op (returning ``[]``) when the store has not grown.

        A counted shard that vanished from the store — anything other
        than :meth:`retire`, which subtracts its counts first — is an
        out-of-band mutation the caches cannot survive; it raises
        :class:`~repro.errors.DataError` instead of silently serving
        stale tallies.
        """
        generations = self._pool.store.shard_generations
        missing = self._counted - set(generations)
        if missing:
            raise DataError(
                f"store shrank behind the delta counter: "
                f"{len(self._counted)} shard(s) counted but the store "
                f"holds {len(generations)}; retire shards through "
                f"DeltaCounter.retire() so cached counts can be "
                f"subtracted exactly"
            )
        new_indices = [
            index
            for index, generation in enumerate(generations)
            if generation not in self._counted
        ]
        if not new_indices:
            return []
        # Advance first: a cache miss during this refresh (impossible
        # today, but cheap insurance) must count over the new total.
        self._counted.update(generations[index] for index in new_indices)
        self.refreshes += 1
        for index in new_indices:
            backend = self._pool.backend(index)
            if backend is None:  # empty shard: zero contribution
                continue
            self.delta_shards_counted += 1
            for level, counts in self._node_supports.items():
                for node_id, count in backend.node_supports(level).items():
                    counts[node_id] += count
            for level, cache in self._supports_cache.items():
                if not cache:
                    continue
                delta = backend.supports_batched(level, list(cache))
                for itemset, count in delta.items():
                    cache[itemset] += count
        return new_indices

    def retire(self, indexes: Iterable[int]) -> int:
        """Retire shards with exact count subtraction; returns the
        rows removed.

        The retiring shards are counted once (through the pool, so an
        evicted backend is readmitted or rebuilt) and their node and
        itemset contributions are *subtracted* from the cached global
        tallies — the SON merge run in reverse — before the shards are
        dropped from the store and the pool.  Survivor caches stay
        exact: cached support equals the sum over the surviving
        shards, as if the retired rows had never been appended.

        Shards appended but never folded in by :meth:`refresh` are
        simply dropped (there is nothing cached to subtract).
        Retiring a shard currently pinned by a count in progress is a
        :class:`~repro.errors.DataError`.
        """
        retired = sorted(set(int(index) for index in indexes))
        if not retired:
            return 0
        store = self._pool.store
        pinned = set(retired) & self._pool.pinned_shards
        if pinned:
            raise DataError(
                f"cannot retire pinned shard(s) {sorted(pinned)}: a "
                "count over them is in progress"
            )
        with trace_span(catalog.SPAN_RETIRE, shards=len(retired)):
            generations = store.shard_generations
            for index in retired:
                if not 0 <= index < len(generations):
                    raise DataError(
                        f"cannot retire shard {index}: store has "
                        f"{len(generations)} shard(s)"
                    )
                generation = generations[index]
                if generation not in self._counted:
                    continue  # appended but never refreshed in
                backend = self._pool.backend(index)
                if backend is not None:
                    for level, counts in self._node_supports.items():
                        shard_nodes = backend.node_supports(level)
                        for node_id, count in shard_nodes.items():
                            counts[node_id] -= count
                    for level, cache in self._supports_cache.items():
                        if not cache:
                            continue
                        delta = backend.supports_batched(
                            level, list(cache)
                        )
                        for itemset, count in delta.items():
                            cache[itemset] -= count
                self._counted.discard(generation)
            rows = store.retire_shards(retired)
            self._pool.drop_shards(retired)
        self.retired_shards += len(retired)
        self.retired_rows += rows
        self._m_retired_shards.inc(len(retired))
        self._m_retired_rows.inc(rows)
        return rows

    # ------------------------------------------------------------------
    # cache plumbing (shared with the partitioned executor)
    # ------------------------------------------------------------------

    def cached_split(
        self, level: int, itemsets: Sequence[tuple[int, ...]]
    ) -> tuple[dict[tuple[int, ...], int], list[tuple[int, ...]]]:
        """Split a batch into cached supports and uncached itemsets."""
        cache = self._supports_cache.setdefault(level, {})
        hits: dict[tuple[int, ...], int] = {}
        misses: list[tuple[int, ...]] = []
        for itemset in itemsets:
            count = cache.get(itemset)
            if count is None:
                misses.append(itemset)
            else:
                hits[itemset] = count
        self.cache_hits += len(hits)
        self.cache_misses += len(misses)
        if hits:
            self._m_cache_hits.inc(len(hits), cache="delta_counter")
        if misses:
            self._m_cache_misses.inc(len(misses), cache="delta_counter")
        return hits, misses

    def store_counts(
        self, level: int, counts: dict[tuple[int, ...], int]
    ) -> None:
        """Memoize freshly merged global counts (must cover all
        currently counted shards — call :meth:`refresh` first).
        Entries beyond the budget-derived cache cap are dropped, not
        stored: they will be recounted on demand, exactly."""
        cache = self._supports_cache.setdefault(level, {})
        if self._max_cached_itemsets is None:
            cache.update(counts)
            self._m_cache_size.set(
                self.cached_itemsets, cache="delta_counter"
            )
            return
        room = self._max_cached_itemsets - self.cached_itemsets
        if room > 0:
            for itemset, count in counts.items():
                cache[itemset] = count
                room -= 1
                if room <= 0:
                    break
        self._m_cache_size.set(self.cached_itemsets, cache="delta_counter")

    def serve(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        *,
        chunk_size: int | None = None,
        fan: "Callable[[int, list[tuple[int, ...]]], Iterable[tuple[int, dict[tuple[int, ...], int]]]] | None" = None,
    ) -> dict[tuple[int, ...], int]:
        """The cache-serving counting envelope: refresh, split into
        hits/misses, count the misses per shard (through ``fan`` —
        e.g. the partitioned executor's worker fan-out — or the
        in-process shard loop), memoize, and return exact supports in
        the request's itemset order.  The single implementation behind
        both :meth:`supports_batched` and the executor path."""
        self.refresh()
        hits, misses = self.cached_split(level, itemsets)
        if misses:
            merged: dict[tuple[int, ...], int] = {
                itemset: 0 for itemset in misses
            }
            shard_counts = (
                self.shard_supports_batched(
                    level, misses, chunk_size=chunk_size
                )
                if fan is None
                else fan(level, misses)
            )
            for _index, counts in shard_counts:
                merge_shard_counts(merged, counts)
            self.store_counts(level, merged)
            hits.update(merged)
        return {itemset: hits[itemset] for itemset in itemsets}

    # ------------------------------------------------------------------
    # CountingBackend protocol (cache-serving overrides)
    # ------------------------------------------------------------------

    def node_supports(self, level: int) -> dict[int, int]:
        self.refresh()
        return super().node_supports(level)

    def supports_batched(
        self,
        level: int,
        itemsets: Sequence[tuple[int, ...]],
        chunk_size: int | None = None,
    ) -> dict[tuple[int, ...], int]:
        return self.serve(level, itemsets, chunk_size=chunk_size)


_BACKENDS = {
    "bitmap": BitmapBackend,
    "horizontal": HorizontalBackend,
    "numpy": NumpyBackend,
}


def make_backend(name: str, database: TransactionDatabase) -> CountingBackend:
    """Instantiate a backend by name (``bitmap``, ``horizontal`` or
    ``numpy``)."""
    try:
        factory = _BACKENDS[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigError(
            f"unknown counting backend {name!r}; known: {known}"
        ) from None
    return factory(database)


def backend_name_of(backend: CountingBackend) -> str:
    """Registry name of a backend instance (for worker re-hydration)."""
    for name, cls in _BACKENDS.items():
        if type(backend) is cls:
            return name
    raise ConfigError(
        f"backend {type(backend).__name__} is not registered; "
        "parallel execution needs a registered backend to re-hydrate "
        "worker processes"
    )
