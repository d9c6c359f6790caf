"""Support-counting backends.

The miner asks one question: *how many transactions contain this
(h,k)-itemset?*  Every backend answers it through one protocol,
:meth:`~CountingBackend.supports` ``(level, rows) -> counts``: ``rows``
is an ``(n, k)`` int64 matrix of level-``h`` node ids, one itemset of
one size per row, and the answer is an ``(n,)`` int64 array of
supports in row order, repeated rows included.  Two interchangeable
backends answer it over an in-memory database:

* :class:`BitmapBackend` (default) — one packed ``uint64`` word plane
  per taxonomy level; a per-level lookup array maps node ids to plane
  rows, and :func:`_and_popcount` counts a batch with
  ``np.bitwise_count`` popcounts over the plane.  A size rule, read
  from the batch alone, picks one of two kernels.  The dense kernel
  gathers every row's plane rows, ANDs them and popcounts every word.
  The prefix-grouped kernel sorts the rows by their (k-1)-prefix,
  ANDs each distinct prefix once and extends it by each row's last
  item: over the prefix AND's non-zero words only where they are
  few, densely against the shared prefix AND where they are many.
  Plane width, rows per prefix and the prefix ANDs' non-zero word
  counts (sampled for the batch, then per prefix) decide; no option
  does.  The pure-Python bigint
  :class:`~repro.data.vertical.VerticalIndex` is the test reference
  of both.
* :class:`HorizontalBackend` — scans the level-projected transaction
  list once per candidate batch, mirroring the paper's disk-resident
  sequential-scan cost model (one scan per cell).  Used by the backend
  ablation bench and as an independent cross-check of the bitmap
  arithmetic.

A sharded store counts through :class:`DeltaCounter`: one inner
backend per shard, and the exact global supports are the sum of the
shards' count arrays (the SON merge).  Per-level node supports are
maintained exactly as shards are appended and retired.

Every backend also answers ``width_at_level(level)``, the most
distinct level nodes one transaction holds, from what it already
keeps: the bitmap backend from its plane, the horizontal backend from
its level projection and :class:`DeltaCounter` from the store's
per-shard widths.  The miner's k bound reads it there.

Every backend counts one candidate batch per ``supports`` call; the
engine's stages hand it a cell's whole batch, so a horizontal batch
is one scan.  ``node_supports`` results are cached per level — the
engine's stages and the SIBP device ask for them repeatedly and must
not trigger rescans.

All count *scans* so the harness can report IO-model work alongside
wall-clock time.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.data.columnar import (
    IMAGE_BACKEND,
    ColumnarShard,
    read_backend_image,
    taxonomy_fingerprint,
    write_backend_image,
)
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.errors import ConfigError, DataError
from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.core.rowkeys import RowKeys, index_of
from repro.obs.tracing import trace_span
from repro.taxonomy.tree import Taxonomy

__all__ = [
    "CountingBackend",
    "BitmapBackend",
    "HorizontalBackend",
    "DeltaCounter",
    "ShardBackendPool",
    "make_backend",
    "resolve_backend_name",
]


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

    def supports(self, level: int, rows: np.ndarray) -> np.ndarray:
        """Support of every row of an ``(n, k)`` int64 matrix of
        level-``level`` node ids, counted as one batch: ``(n,)`` int64
        counts in row order."""
        ...

    def width_at_level(self, level: int) -> int:
        """Largest number of distinct level-``level`` nodes in one
        transaction (0 without transactions)."""
        ...


def _check_level(level: int, height: int) -> None:
    """The level check of every counting entry point: a taxonomy's
    levels are ``1..height``.  Callers run it before any work, so a
    bad level counts no scan and admits no shard."""
    if not 1 <= level <= height:
        raise DataError(f"no taxonomy level {level} in this index")


def _check_rows(rows: np.ndarray) -> np.ndarray:
    """A batch must be a 2-D integer matrix, one itemset per row."""
    if (
        not isinstance(rows, np.ndarray)
        or rows.ndim != 2
        or rows.dtype.kind not in "iu"
    ):
        raise DataError(
            "a support batch is an (n, k) integer matrix of node ids"
        )
    return rows


def _level_positions(
    lookup: np.ndarray, level: int, rows: np.ndarray
) -> np.ndarray:
    """A non-empty batch's node ids as positions among the level's
    nodes, through ``lookup`` (node id -> position, -1 off the
    level).  An empty itemset, and a node that is not at the level or
    is unknown, raise :class:`~repro.errors.DataError`; every backend
    validates a batch here."""
    if not rows.shape[1]:
        raise DataError("support of an empty itemset is undefined")
    low, high = int(rows.min()), int(rows.max())
    if low < 0 or high >= len(lookup):
        bad = low if low < 0 else high
        raise DataError(f"node {bad} is not at taxonomy level {level}")
    positions = lookup[rows]
    off_level = positions < 0
    if off_level.any():
        bad = int(rows[off_level][0])
        raise DataError(f"node {bad} is not at taxonomy level {level}")
    return positions


#: plane word: little-endian, so a plane's bytes are the image's
#: little-endian bit packing on any host
_WORD = np.dtype("<u8")

#: bytes of gathered words one kernel block may hold: a block counts
#: as many itemsets as fit, and always at least one
_BLOCK_BYTES = 1 << 18


def _scatter_planes(
    taxonomy: Taxonomy,
    n_rows: int,
    rows: np.ndarray,
    items: np.ndarray,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per level, the node ids in plane-row order and the ``uint64``
    word plane.

    ``rows``/``items`` list every (row, item id) value of the data.
    Bit ``r`` of a node's plane row is set when row ``r`` holds an
    item beneath the node; one gather through the compiled taxonomy's
    item table and one vectorized scatter per level, duplicates
    collapse in the OR.
    """
    compiled = taxonomy.compiled
    foreign = _first_foreign(items, compiled.item_ancestors(1) >= 0)
    if foreign is not None:
        raise DataError(
            f"transaction {int(rows[foreign])}: item id "
            f"{int(items[foreign])} is not an item of the bound taxonomy"
        )
    n_words = (n_rows + 63) // 64
    words = rows >> 6
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    level_nodes: dict[int, np.ndarray] = {}
    planes: dict[int, np.ndarray] = {}
    for level in range(1, compiled.height + 1):
        nodes = compiled.nodes_at_level(level)
        ancestors = compiled.item_ancestors(level)
        item_row = np.where(ancestors >= 0, index_of(nodes)[ancestors], -1)
        plane = np.zeros((len(nodes), n_words), dtype=_WORD)
        np.bitwise_or.at(plane, (item_row[items], words), bits)
        level_nodes[level] = nodes
        planes[level] = plane
    return level_nodes, planes


def _first_foreign(items: np.ndarray, known: np.ndarray) -> int | None:
    """Position of the first id in ``items`` that the id mask
    ``known`` does not mark, or ``None`` when it marks them all."""
    if not len(items):
        return None
    if items.min() >= 0 and items.max() < len(known) and known[items].all():
        return None
    inside = (items >= 0) & (items < len(known))
    inside[inside] = known[items[inside]]
    return int(np.argmin(inside))


#: The size rule of the prefix-grouped kernel and its block size.
#: These are cost-model constants, not options.  Each was measured
#: on the batches of one ``mine-batch`` mine (synthetic-50k: 782-word
#: planes in memory, 196-word planes in four shards) and of one
#: ``repro bench approx`` exact run, kernel calls timed alone on a
#: 2-vCPU host (fastest of 11-41 runs).  The dense kernel spends most
#: of a row on the popcount and row sum of every word, so the grouped
#: kernel gains by popcounting fewer words.
#:
#: Narrowest plane, in words, that is grouped.  A narrow row costs too
#: little for sorting and prefix ANDs to pay back: grouping every
#: plane took one ``stream-e2e`` slide's 16 calls on 24-29-word shard
#: planes from 2.2 to 5.1 ms.  At 196 words the level-3 triples still
#: fall from 34 to 24 ms.
_GROUP_MIN_WORDS = 128
#: Fewest rows per distinct (k-1)-prefix that are grouped.  At four,
#: the (2,4) batch (4.7 rows per prefix, nearly all sparse) went from
#: 1.3 to 1.6 ms on 196-word planes; the triples (28.4) fall from 132
#: to 55 ms on 782-word ones.
_GROUP_MIN_ROWS = 8
#: A sparse prefix's non-zero words are listed and gathered in chunks
#: of this many words, the last chunk padded with zero words.  The
#: triples' prefix ANDs hold 67 non-zero words on average; chunks of
#: 8, 16 and 32 words counted them in 55, 53 and 53 ms.
_CHUNK_WORDS = 16
#: A prefix goes word-sparse when its chunks cover at most
#: ``1 / _SPARSE_SHARE`` of the plane width (:func:`_sparse_limit`).
#: A word gathered through a word list costs about 2.5 ns, a word
#: ANDed against the prefix row about 0.7 ns.  Shares of 2, 3, 4 and
#: 8 counted the triples in 52, 53, 53 and 58 ms, but 2 took the
#: (2,3) batch, whose prefix ANDs are half non-zero, from 8.6 to
#: 10.5 ms.
_SPARSE_SHARE = 4
#: Rows whose prefix ANDs are sampled to tell a batch of mostly
#: sparse prefixes from one of mostly dense ones; only the first is
#: grouped.  The batches measured are far apart: 0-15% of their
#: prefixes sparse (level-1 and level-2 batches, the prefix screen)
#: or 83-100% (the level-3 and level-4 triples, the (2,4) batch).  On
#: dense prefixes the grouped kernel saves only a row gather and an
#: AND per row, which its sort and prefix ANDs cost back: ungated,
#: the (2,3) batch took 2.35 -> 2.76 ms on 196-word planes and the
#: approx bench's level-2 triples 1.27 -> 1.55 ms.
_SAMPLE_ROWS = 32
#: Bytes of prefix ANDs one block of the grouped kernel holds (at
#: least one prefix).  Blocks of 256 KiB, 1 MiB and 4 MiB counted the
#: triples in 58, 53 and 54 ms.
_GROUP_BLOCK_BYTES = 1 << 20


def _and_popcount(plane: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Support of every row of ``matrix`` (plane row indexes, one
    itemset per row).

    The size rule picks the kernel from the batch.  A batch of
    itemsets of three or more items on a plane at least
    ``_GROUP_MIN_WORDS`` wide, whose sampled prefix ANDs are mostly
    word-sparse (:func:`_mostly_sparse`) and which has at least
    ``_GROUP_MIN_ROWS`` rows per distinct (k-1)-prefix, is counted
    prefix by prefix (:func:`_grouped_and_popcount`); every other
    batch by the dense kernel (:func:`_dense_and_popcount`).
    Prefixes are grouped by their :class:`~repro.core.rowkeys.RowKeys`
    keys, which stay exact past one int64 word.
    """
    n, k = matrix.shape
    if (
        k >= 3
        and plane.shape[1] >= _GROUP_MIN_WORDS
        and _mostly_sparse(plane, matrix)
    ):
        keys = RowKeys(len(plane)).pack(matrix[:, :-1])
        order = np.argsort(keys)
        keys = keys[order]
        heads = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        )
        if n >= _GROUP_MIN_ROWS * len(heads):
            return _grouped_and_popcount(plane, matrix, order, heads)
    return _dense_and_popcount([(plane, column) for column in matrix.T])


def _sparse_limit(width: int) -> int:
    """The most non-zero words a prefix AND on a ``width``-word plane
    may have and go word-sparse: its ``_CHUNK_WORDS``-word chunks fill
    at most a ``_SPARSE_SHARE``-th of the plane."""
    return width // (_CHUNK_WORDS * _SPARSE_SHARE) * _CHUNK_WORDS


def _mostly_sparse(plane: np.ndarray, matrix: np.ndarray) -> bool:
    """Are at least half of the prefix ANDs of ``_SAMPLE_ROWS``
    evenly spaced rows of the batch word-sparse?"""
    sample = matrix[:: -(-len(matrix) // _SAMPLE_ROWS), :-1]
    prefixes = plane.take(sample[:, 0], axis=0)
    for column in sample.T[1:]:
        prefixes &= plane.take(column, axis=0)
    nnz = np.count_nonzero(prefixes, axis=1)
    sparse = np.count_nonzero(nnz <= _sparse_limit(plane.shape[1]))
    return 2 * sparse >= len(sample)


def _dense_and_popcount(
    columns: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The dense kernel: per row ``i``, the popcount of the AND of
    ``words[index[i]]`` over the ``(words, index)`` columns, all of
    one width.  It gathers, ANDs and popcounts ``_BLOCK_BYTES`` of
    gathered words at a time."""
    (first, first_index), *rest = columns
    n = len(first_index)
    step = max(1, _BLOCK_BYTES // (first.shape[1] * _WORD.itemsize))
    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, step):
        block = slice(start, start + step)
        acc = first.take(first_index[block], axis=0)
        for words, index in rest:
            acc &= words.take(index[block], axis=0)
        pops = np.bitwise_count(acc)
        counts[block] = pops.sum(axis=1, dtype=np.uint32)
    return counts


def _grouped_and_popcount(
    plane: np.ndarray,
    matrix: np.ndarray,
    order: np.ndarray,
    heads: np.ndarray,
) -> np.ndarray:
    """The prefix-grouped kernel.  ``order`` sorts the rows by their
    (k-1)-prefix and ``heads`` are the sorted positions where a new
    prefix starts.

    Each distinct prefix is ANDed once, ``_GROUP_BLOCK_BYTES`` of
    prefix ANDs at a time, and extended by the last item of each of
    its rows (:func:`_extend`)."""
    n = len(matrix)
    width = plane.shape[1]
    rows = matrix[order]
    bounds = np.append(heads, n)
    step = max(1, _GROUP_BLOCK_BYTES // (width * _WORD.itemsize))
    # the prefix block and a gather buffer, reused by every block
    buffers = np.empty((2, min(step, len(heads)), width), dtype=_WORD)
    counts = np.empty(n, dtype=np.int64)
    for first in range(0, len(heads), step):
        prefix_rows = rows[heads[first : first + step], :-1]
        prefixes, gathered = buffers[:, : len(prefix_rows)]
        # mode="clip" writes to ``out`` unbuffered; no index clips
        np.take(plane, prefix_rows[:, 0], 0, prefixes, mode="clip")
        for column in prefix_rows.T[1:]:
            np.take(plane, column, 0, gathered, mode="clip")
            prefixes &= gathered
        sizes = np.diff(bounds[first : first + len(prefix_rows) + 1])
        block = slice(bounds[first], bounds[first + len(prefix_rows)])
        counts[block] = _extend(
            plane,
            prefixes,
            np.repeat(np.arange(len(sizes)), sizes),
            rows[block, -1],
        )
    result = np.empty(n, dtype=np.int64)
    result[order] = counts
    return result


def _extend(
    plane: np.ndarray,
    prefixes: np.ndarray,
    group: np.ndarray,
    items: np.ndarray,
) -> np.ndarray:
    """Per row, the popcount of ``prefixes[group] & plane[items]``.

    A prefix with at most :func:`_sparse_limit` non-zero words is
    counted over those words only (:func:`_sparse_and_popcount`; a
    prefix without any counts 0).  The others are ANDed densely
    against their shared prefix row."""
    nnz = np.count_nonzero(prefixes, axis=1)
    sparse = nnz <= _sparse_limit(plane.shape[1])
    if not sparse.any():
        return _dense_and_popcount([(prefixes, group), (plane, items)])
    counts = np.zeros(len(items), dtype=np.int64)
    dense = ~sparse[group]
    if dense.any():
        counts[dense] = _dense_and_popcount(
            [(prefixes, group[dense]), (plane, items[dense])]
        )
    live = np.flatnonzero(sparse & (nnz > 0))
    if len(live):
        local = np.full(len(prefixes), -1)
        local[live] = np.arange(len(live))
        rows = np.flatnonzero(local[group] >= 0)
        if len(live) < len(prefixes):
            prefixes = prefixes.take(live, axis=0)
        counts[rows] = _sparse_and_popcount(
            plane, prefixes, nnz[live], local[group[rows]], items[rows]
        )
    return counts


def _sparse_and_popcount(
    plane: np.ndarray,
    prefixes: np.ndarray,
    nnz: np.ndarray,
    group: np.ndarray,
    items: np.ndarray,
) -> np.ndarray:
    """Per row, the popcount of ``prefixes[group] & plane[items]``,
    read only at the prefix's ``nnz`` non-zero words (at least one).

    Each prefix's non-zero words are listed with their values and
    padded with zero-valued words to whole ``_CHUNK_WORDS``-word
    chunks.  A row gathers its item's plane words at its prefix's
    chunks, ANDs them with the prefix's values and popcounts them,
    ``_BLOCK_BYTES`` of gathered words at a time; a row never
    splits."""
    width = plane.shape[1]
    where = np.flatnonzero(prefixes != 0)
    owner = where // width
    padded = -(-nnz // _CHUNK_WORDS) * _CHUNK_WORDS
    padded_start = np.cumsum(padded) - padded
    # each non-zero word's place in its prefix's padded list
    shift = padded_start - (np.cumsum(nnz) - nnz)
    slot = np.arange(len(where)) + shift[owner]
    words = np.zeros(padded.sum(), dtype=np.int64)
    values = np.zeros(padded.sum(), dtype=_WORD)
    words[slot] = where - owner * width
    values[slot] = prefixes.reshape(-1)[where]
    words = words.reshape(-1, _CHUNK_WORDS)
    values = values.reshape(-1, _CHUNK_WORDS)
    row_chunks = padded[group] // _CHUNK_WORDS
    row_first = padded_start[group] // _CHUNK_WORDS
    row_base = items * width
    flat = plane.reshape(-1)
    budget = max(1, _BLOCK_BYTES // (_CHUNK_WORDS * _WORD.itemsize))
    ends = np.cumsum(row_chunks)
    counts = np.empty(len(items), dtype=np.int64)
    start = 0
    while start < len(items):
        done = ends[start - 1] if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(ends, done + budget, side="right")),
        )
        block = slice(start, stop)
        chunks = row_chunks[block]
        offsets = np.cumsum(chunks) - chunks
        pair_row = np.repeat(np.arange(len(chunks)), chunks)
        pair_chunk = np.arange(len(pair_row)) + np.repeat(
            row_first[block] - offsets, chunks
        )
        index = words.take(pair_chunk, axis=0)
        index += row_base[block].take(pair_row)[:, None]
        gathered = flat.take(index)
        gathered &= values.take(pair_chunk, axis=0)
        pops = np.bitwise_count(gathered).reshape(-1)
        counts[block] = np.add.reduceat(
            pops, offsets * _CHUNK_WORDS, dtype=np.uint32
        )
        start = stop
    return counts


class BitmapBackend:
    """Packed-word bitmap counting.

    Each taxonomy level is one ``uint64`` plane of shape
    ``(n_nodes, ceil(n_rows / 64))``: bit ``r`` of a node's row is set
    when transaction ``r`` contains the node.  A batch's node ids go
    through the level's lookup array to plane rows in one gather, and
    :func:`_and_popcount` counts them with one blocked
    gather-AND-popcount over the plane.
    :class:`~repro.data.vertical.VerticalIndex` is the pure-Python
    reference these counts are tested against.
    """

    def __init__(self, database: TransactionDatabase) -> None:
        lengths = np.fromiter(
            map(len, database), dtype=np.int64, count=len(database)
        )
        items = np.fromiter(
            chain.from_iterable(database),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        rows = np.repeat(np.arange(len(database), dtype=np.int64), lengths)
        # building the planes reads the database once
        self._attach(
            *_scatter_planes(database.taxonomy, len(database), rows, items),
            raw={},
            scans=1,
        )

    @classmethod
    def from_columnar(
        cls, reader: ColumnarShard, taxonomy: Taxonomy
    ) -> "BitmapBackend":
        """Build the planes straight from a shard's mapped CSR arrays:
        the same vectorized scatter, no per-row Python objects and no
        :class:`TransactionDatabase`."""
        items = reader.item_ids(taxonomy.compiled.item_id_by_name)
        return cls.__new__(cls)._attach(
            *_scatter_planes(
                taxonomy,
                reader.n_rows,
                reader.row_index(),
                items[reader.items],
            ),
            raw={},
            scans=1,
        )

    @classmethod
    def from_image(
        cls,
        header: dict[str, Any],
        arrays: list[np.ndarray],
        height: int,
    ) -> "BitmapBackend":
        """Reattach the planes of a persisted backend image without
        any database scan (``scans`` stays 0).

        Plane shapes and level coverage are validated eagerly.  A
        ``uint8`` plane whose byte width is a multiple of 8 is then
        viewed as words in place; any other is copied once into a
        zero-padded word plane, the first time its level is counted.
        """
        raw: dict[int, tuple[list[int], np.ndarray]] = {}
        for entry, plane in zip(header["levels"], arrays):
            nodes = entry["nodes"]
            if plane.ndim != 2 or plane.shape[0] != len(nodes):
                raise DataError("bitmap image plane shape mismatch")
            raw[int(entry["level"])] = (nodes, plane)
        if set(raw) != set(range(1, height + 1)):
            raise DataError("bitmap image does not cover every level")
        return cls.__new__(cls)._attach({}, {}, raw=raw, scans=0)

    def _attach(
        self,
        nodes: dict[int, np.ndarray],
        planes: dict[int, np.ndarray],
        *,
        raw: dict[int, tuple[list[int], np.ndarray]],
        scans: int,
    ) -> "BitmapBackend":
        #: level -> node ids in plane-row order
        self._nodes = nodes
        #: level -> lookup array: node id -> plane row, -1 off the
        #: level; built the first time the level is counted
        self._row_of: dict[int, np.ndarray] = {}
        self._planes = planes
        #: image admits only: level -> (node ids, persisted uint8
        #: plane), for levels not yet viewed or copied as words
        self._raw = raw
        self._scans = scans
        self._node_supports: dict[int, dict[int, int]] = {}
        return self

    def _plane(self, level: int) -> np.ndarray:
        plane = self._planes.get(level)
        if plane is not None:
            return plane
        if level not in self._raw:
            raise DataError(f"no taxonomy level {level} in this index")
        nodes, raw = self._raw.pop(level)
        if raw.shape[1] % 8 == 0:
            plane = raw.view(_WORD)
        else:
            n_words = (raw.shape[1] + 7) // 8
            plane = np.zeros((len(raw), n_words), dtype=_WORD)
            plane.view(np.uint8)[:, : raw.shape[1]] = raw
        self._nodes[level] = np.array(nodes, dtype=np.int64)
        self._planes[level] = plane
        return plane

    def image_payload(
        self, n_rows: int
    ) -> tuple[dict[str, Any], list[np.ndarray]]:
        """The persistable form of this backend: per level, the node
        id table plus the plane's first ``ceil(n_rows / 8)``
        little-endian bytes of every row, a ``uint8`` plane."""
        width = (n_rows + 7) // 8
        levels: list[dict[str, Any]] = []
        arrays: list[np.ndarray] = []
        for level in sorted(self._planes.keys() | self._raw.keys()):
            plane = self._plane(level)
            nodes = self._nodes[level].tolist()
            levels.append({"level": level, "nodes": nodes})
            arrays.append(plane.view(np.uint8)[:, :width])
        return {"backend": "bitmap", "levels": levels}, arrays

    @property
    def scans(self) -> int:
        return self._scans

    def node_supports(self, level: int) -> dict[int, int]:
        if level not in self._node_supports:
            counts = np.bitwise_count(self._plane(level)).sum(axis=1)
            self._node_supports[level] = dict(
                zip(self._nodes[level].tolist(), counts.tolist())
            )
        return self._node_supports[level]

    def supports(self, level: int, rows: np.ndarray) -> np.ndarray:
        if not len(_check_rows(rows)):
            return np.zeros(0, dtype=np.int64)
        plane = self._plane(level)
        row_of = self._row_of.get(level)
        if row_of is None:
            row_of = self._row_of[level] = index_of(self._nodes[level])
        return _and_popcount(plane, _level_positions(row_of, level, rows))

    def width_at_level(self, level: int) -> int:
        """Per row, the number of the level's nodes whose bit is set,
        maximized; the plane's bits are unpacked ``_BLOCK_BYTES`` at a
        time, never the whole plane."""
        plane = self._plane(level)
        n_nodes, n_words = plane.shape
        step = max(1, _BLOCK_BYTES // (max(1, n_nodes) * 64))
        widest = 0
        for start in range(0, n_words, step):
            words = plane[:, start : start + step]
            bits = np.unpackbits(words.view(np.uint8), axis=1)
            widest = max(widest, int(bits.sum(axis=0).max(initial=0)))
        return widest


class HorizontalBackend:
    """Sequential-scan counting over level projections.

    Every batch walks the projected transaction list exactly once,
    whatever the number of candidates — the paper's "counting by
    sequential scans of disk-resident input data" model.
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
        _check_level(level, self._database.taxonomy.height)
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

    def width_at_level(self, level: int) -> int:
        _check_level(level, self._database.taxonomy.height)
        return max(map(len, self._projection(level)), default=0)

    def supports(self, level: int, rows: np.ndarray) -> np.ndarray:
        if len(_check_rows(rows)):
            compiled = self._database.taxonomy.compiled
            _check_level(level, compiled.height)
            nodes = compiled.nodes_at_level(level)
            _level_positions(index_of(nodes), level, rows)
        self._scans += 1
        itemsets = list(map(tuple, rows.tolist()))
        counts: dict[tuple[int, ...], int] = dict.fromkeys(itemsets, 0)
        if counts:
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
        return np.fromiter(
            map(counts.__getitem__, itemsets), dtype=np.int64, count=len(rows)
        )


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
    With ``persist_images`` (the default, for the ``bitmap`` inner)
    the pool writes an evicted backend's built word planes next to the
    shard as a backend image (see
    :mod:`repro.data.columnar`), and a later admit of the same shard
    becomes an mmap plus a header check.  Image validity is enforced
    on every admit — format version, backend kind, row count, source
    file size and taxonomy fingerprint must all match, otherwise the
    image is ignored and the shard is rebuilt (a stale image is never
    served).  ``rebuilds`` counts parse-and-rebuild admits beyond the
    first build; ``image_admits`` counts zero-parse admits from a
    persisted image.

    Per-shard resident cost: with the bitmap inner a shard is charged
    its actual mapped bytes (shard file plus image file, or an
    analytic size of the built structure when no image exists yet);
    the horizontal inner keeps an on-disk-size-times-expansion-factor
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

    #: estimated resident bytes per on-disk shard byte for the
    #: horizontal inner, whose parsed row tuples and projections no
    #: file size reflects; the bitmap inner is charged mapped sizes
    RESIDENCY_FACTOR = 16

    def __init__(
        self,
        store: ShardedTransactionStore,
        inner: str = "bitmap",
        memory_budget_mb: float | None = None,
        *,
        persist_images: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        inner = resolve_backend_name(inner)
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
        self._persist_images = persist_images and inner == IMAGE_BACKEND
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
        """Size of one shard's built bitmap planes: per level, one
        ``uint64`` word per 64 rows for every node."""
        n_rows = self._store.shard_sizes[index]
        taxonomy = self._store.taxonomy
        row_bytes = (n_rows + 63) // 64 * _WORD.itemsize
        return sum(
            len(taxonomy.nodes_at_level(level)) * row_bytes
            for level in range(1, taxonomy.height + 1)
        )

    def _estimate_bytes(self, index: int) -> int:
        """Resident cost of one shard's backend.

        A shard counted by the bitmap inner is charged truthfully: the
        mapped shard file plus either the mapped image file (when one
        exists) or the size of the word planes a build would
        materialize.  The horizontal inner keeps the expansion-factor
        heuristic — its resident cost is dominated by parsed Python
        objects, which no file size reflects.
        """
        size = self._store.shard_bytes(index)
        if self._inner != IMAGE_BACKEND:
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

    def _admit_from_image(self, index: int) -> BitmapBackend | None:
        """Map a persisted bitmap image if — and only if — its header
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
        try:
            return BitmapBackend.from_image(
                header, arrays, self._store.taxonomy.height
            )
        except (DataError, KeyError, TypeError, ValueError):
            return None

    def _build(self, index: int) -> CountingBackend:
        """Parse-and-build one shard's backend.  The bitmap inner is
        built by the vectorized ``from_columnar`` from the shard's
        mapped arrays; the horizontal inner goes through a per-shard
        database."""
        if self._inner == "bitmap":
            return BitmapBackend.from_columnar(
                self._store.columnar_reader(index), self._store.taxonomy
            )
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


class DeltaCounter:
    """Exact SON counting over a sharded, changing store.

    Implements the :class:`CountingBackend` protocol by holding one
    *inner* backend (``bitmap`` or ``horizontal``) per shard and
    summing the per-shard counts of every batch into exact global
    supports: shards partition the transactions, so the sums equal
    what a monolithic backend over the whole database would report,
    and the mining output is byte-identical (the engine parity tests
    assert it).  Shard residency is delegated to
    :class:`ShardBackendPool`, so the working set follows
    ``memory_budget_mb``, not the dataset.

    Per-level node supports are computed once and then *maintained*
    as the store changes.  When the store grows through
    ``append_batch``, :meth:`refresh` counts the delta shards only and
    adds their node supports to the tallies; when it shrinks through
    :meth:`retire`, the retiring shards' node supports are counted
    before the shards leave the store and subtracted once the store
    has committed the retirement, the SON merge run in reverse.
    Grow and shrink compose because the counted set is tracked as an
    explicit set of shard *generations*, not a high-water mark.  Every
    public counting entry point refreshes first, so a counter is never
    served stale.  Itemset supports are not cached: every batch is
    counted over the store's current shards.
    """

    #: No itemset supports are cached, so these stay 0.  They remain
    #: because readers of the former cache counters still look them
    #: up (the traced ``stream-e2e`` run in ``perfbench/server.py``).
    cache_hits = 0
    cache_misses = 0
    cached_itemsets = 0

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
        self._memory_budget_mb = memory_budget_mb
        #: level -> node id -> exact support over the counted shards
        self._node_supports: dict[int, dict[int, int]] = {}
        #: generation stamps of the shards folded into the node
        #: supports (an explicit set so appends and retirements compose)
        self._counted: set[int] = set(store.shard_generations)
        #: instrumentation (cumulative across refreshes/runs)
        self.refreshes = 0
        self.delta_shards_counted = 0
        self.retired_shards = 0
        self.retired_rows = 0
        registry = default_registry()
        self._m_retired_shards = registry.counter(catalog.RETIRED_SHARDS)
        self._m_retired_rows = registry.counter(catalog.RETIRED_ROWS)

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
    def memory_budget_mb(self) -> float | None:
        return self._memory_budget_mb

    @property
    def scans(self) -> int:
        return self._pool.scans

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------

    @property
    def counted_shards(self) -> int:
        """Number of shards folded into the node supports so far."""
        return len(self._counted)

    @property
    def counted_generations(self) -> list[int]:
        """Generation stamps of the shards folded into the node
        supports."""
        return sorted(self._counted)

    def refresh(self) -> list[int]:
        """Fold shards appended since the last refresh into the node
        supports.

        Builds the new shards' backends, adds their node supports (for
        every level counted so far) to the global tallies, and returns
        the new shard indexes.  A no-op (returning ``[]``) when the
        store has not grown.

        A counted shard that vanished from the store — anything other
        than :meth:`retire`, which subtracts its counts — is an
        out-of-band mutation the tallies cannot survive; it raises
        :class:`~repro.errors.DataError` instead of silently serving
        stale node supports.
        """
        generations = self._pool.store.shard_generations
        missing = self._counted - set(generations)
        if missing:
            raise DataError(
                f"store shrank behind the delta counter: "
                f"{len(self._counted)} shard(s) counted but the store "
                f"holds {len(generations)}; retire shards through "
                f"DeltaCounter.retire() so counted node supports can "
                f"be subtracted exactly"
            )
        new_indices = [
            index
            for index, generation in enumerate(generations)
            if generation not in self._counted
        ]
        if not new_indices:
            return []
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
        return new_indices

    def retire(
        self,
        indexes: Iterable[int],
        delta: Iterable[Iterable[str]] = (),
    ) -> int:
        """Retire shards with exact count subtraction, in the one
        store commit that appends ``delta``; returns the rows removed.

        Every index and the pin set are checked before anything
        changes.  The retiring shards' node supports are then counted
        (through the pool, so an evicted backend is readmitted or
        rebuilt), the store commits the delta and the retirement in
        one manifest replace (``append_batch(delta, retire=...)``),
        and only then are those supports *subtracted* from the global
        tallies — the SON merge run in reverse — and the shards
        dropped from the pool.  A failure (a bad index, a pinned
        shard, a malformed delta row, a failed write) therefore leaves
        the counter and the store as they were.  The surviving tallies
        stay exact, as if the retired rows had never been appended;
        the delta shards are folded in by the next :meth:`refresh`.
        With no index to retire this is a plain append of ``delta``.

        Shards appended but never folded in by :meth:`refresh` are
        simply dropped (there is nothing counted to subtract).
        Retiring an index outside the store, or a shard currently
        pinned by a count in progress, is a
        :class:`~repro.errors.DataError`.
        """
        retired = sorted(set(int(index) for index in indexes))
        store = self._pool.store
        if not retired:
            store.append_batch(delta)
            return 0
        generations = store.shard_generations
        for index in retired:
            if not 0 <= index < len(generations):
                raise DataError(
                    f"cannot retire shard {index}: store has "
                    f"{len(generations)} shard(s)"
                )
        pinned = set(retired) & self._pool.pinned_shards
        if pinned:
            raise DataError(
                f"cannot retire pinned shard(s) {sorted(pinned)}: a "
                "count over them is in progress"
            )
        counted = [
            index for index in retired if generations[index] in self._counted
        ]
        with trace_span(catalog.SPAN_RETIRE, shards=len(retired)):
            removed = {
                level: dict.fromkeys(counts, 0)
                for level, counts in self._node_supports.items()
            }
            if removed:
                for index in counted:
                    backend = self._pool.backend(index)
                    if backend is None:  # empty shard: nothing to subtract
                        continue
                    for level, totals in removed.items():
                        shard_nodes = backend.node_supports(level)
                        for node_id, count in shard_nodes.items():
                            totals[node_id] += count
            sizes = store.shard_sizes
            rows = sum(sizes[index] for index in retired)
            store.append_batch(delta, retire=retired)
            for level, totals in removed.items():
                counts = self._node_supports[level]
                for node_id, count in totals.items():
                    counts[node_id] -= count
            self._counted.difference_update(
                generations[index] for index in counted
            )
            self._pool.drop_shards(retired)
        self.retired_shards += len(retired)
        self.retired_rows += rows
        self._m_retired_shards.inc(len(retired))
        self._m_retired_rows.inc(rows)
        return rows

    # ------------------------------------------------------------------
    # CountingBackend protocol
    # ------------------------------------------------------------------

    def node_supports(self, level: int) -> dict[int, int]:
        _check_level(level, self._taxonomy.height)
        self.refresh()
        if level not in self._node_supports:
            # One residency pass over the shards computes *every*
            # level's node supports: the miner's preparation asks for
            # all of them anyway, and under a tight memory budget a
            # per-level pass would evict and re-read each shard once
            # per taxonomy level (height x n_shards I/O instead of
            # n_shards).
            merged = {
                lvl: {
                    node_id: 0
                    for node_id in self._taxonomy.nodes_at_level(lvl)
                }
                for lvl in range(1, self._taxonomy.height + 1)
            }
            for _index, backend in self._pool.iter_backends():
                for lvl, counts in merged.items():
                    for node_id, count in backend.node_supports(lvl).items():
                        counts[node_id] += count
            self._node_supports.update(merged)
        return self._node_supports[level]

    def width_at_level(self, level: int) -> int:
        """The store's width: a max over the live shards' widths,
        which the store keeps per shard (see
        :meth:`~repro.data.shards.ShardedTransactionStore.width_at_level`)."""
        _check_level(level, self._taxonomy.height)
        return self._pool.store.width_at_level(level)

    def supports(self, level: int, rows: np.ndarray) -> np.ndarray:
        """Refresh, then the SON sum: every non-empty shard counts the
        whole batch and the shards' count arrays are added.  Shards
        partition the transactions, so the sum is the exact global
        support.  An empty batch touches no shard."""
        self.refresh()
        counts = np.zeros(len(_check_rows(rows)), dtype=np.int64)
        if len(rows):
            _check_level(level, self._taxonomy.height)
            for _index, backend in self._pool.iter_backends():
                counts += backend.supports(level, rows)
        return counts


_BACKENDS = {
    "bitmap": BitmapBackend,
    "horizontal": HorizontalBackend,
}


def resolve_backend_name(name: str) -> str:
    """The canonical registry name of a backend name (``bitmap`` or
    ``horizontal``, case and surrounding space ignored).  Every
    substrate resolves names here, so one spelling picks the same
    backend in memory and per shard."""
    key = name.strip().lower()
    if key not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigError(
            f"unknown counting backend {name!r}; known: {known}"
        )
    return key


def make_backend(name: str, database: TransactionDatabase) -> CountingBackend:
    """Instantiate a backend by name (see :func:`resolve_backend_name`)."""
    return _BACKENDS[resolve_backend_name(name)](database)
