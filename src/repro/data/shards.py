"""Sharded on-disk transaction store (the out-of-core substrate).

A :class:`ShardedTransactionStore` is the partitioned counterpart of
:class:`~repro.data.database.TransactionDatabase`: the same logical
set ``D`` of transactions, but split into contiguous *shards* that
live on disk and are loaded one at a time.  It is the data layer of
the SON-style partitioned mining path (see ARCHITECTURE.md): every
counting backend can be instantiated per shard, per-shard supports
sum to exact global supports, and the resident set of shard backends
is bounded by a memory budget instead of the dataset size.

Two ways to build a store:

* :meth:`ShardedTransactionStore.partition_database` — split an
  in-memory database into ``n_shards`` contiguous, near-equal shards
  (the parity-testing path; shards may be empty when ``n_shards``
  exceeds the transaction count).
* :meth:`ShardedTransactionStore.ingest` — stream transactions from
  any iterable (dataset generators, file readers) and cut a new shard
  whenever the in-memory buffer reaches ``rows_per_shard`` or the
  ``memory_budget_mb`` estimate — the true out-of-core path, which
  never holds more than one shard of raw transactions.

An existing store *grows* through
:meth:`ShardedTransactionStore.append_batch`: a delta batch is written
as one or more brand-new shard files and the manifest is extended in
place — existing shard files are never rewritten, so per-shard
artifacts derived from them (resident counting backends, cached
supports, persisted backend images) stay valid and incremental mining
only has to look at the delta shards (see
:class:`~repro.core.counting.DeltaCounter`).  It *shrinks* through
:meth:`ShardedTransactionStore.retire_shards` /
:meth:`ShardedTransactionStore.retire_before`: whole shards are
dropped from the manifest and their files (plus persisted backend
images) unlinked — the windowed-mining expiry path.  Every shard
carries a monotonically increasing *generation* stamp in the
manifest; shard file names are derived from the generation, never
from the list position, so a retired shard's name is never reused by
a later append.  The manifest is the commit point both ways: new
shard files are fully written (via same-directory temp files and
``os.replace``) *before* the manifest is atomically replaced, and
retired shard files are unlinked only *after* it, so a mid-write
crash leaves at worst unreferenced orphan files (reclaimed by
:meth:`gc_orphans`), never a manifest naming a torn or missing
shard.

On disk a store is a directory of columnar shard files
(``shard-NNNNN.col``, the binary CSR layout of
:mod:`repro.data.columnar`) plus a ``manifest.json`` recording the
shard layout.  Shards are memory-mapped on read, so counting backends
are built from the raw arrays without parsing; built backends may be
persisted next to the shard as ``.img`` files and re-admitted by the
shard pool with an mmap + header check.  A manifest naming any other
kind of shard file is refused when the store is opened.

The taxonomy is bound at construction/open time (exactly like
``TransactionDatabase``), so a reopened store resolves item names
through the identical balanced tree and mining results cannot drift
between open sessions.

Every shard is written the same way: as CSR arrays over item ids
(``ingest`` and ``append_batch`` map names to ids in one pass through
the taxonomy's compiled name map, rejecting a malformed row or an
unknown item before the shard is written; ``partition_database``
reads the database's ids), renumbered into the shard's local name
table.  The arrays also give the shard's width at every taxonomy
level, which the store keeps per generation:
:meth:`ShardedTransactionStore.width_at_level` is a max over the live
shards, and a retirement drops only the retired shards' widths.
"""

from __future__ import annotations

import json
import tempfile
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain
from pathlib import Path
from typing import Self, cast

import numpy as np

from repro.core.atomicio import atomic_write_text
from repro.data.columnar import (
    IMAGE_BACKEND,
    ColumnarShard,
    localize,
    write_columnar_arrays,
)
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError, DataError
from repro.taxonomy.rebalance import rebalance_with_copies
from repro.taxonomy.tree import CompiledTaxonomy, Taxonomy

__all__ = [
    "ShardDirOwner",
    "ShardedTransactionStore",
    "estimate_transaction_bytes",
    "open_or_partition_store",
]

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

_SHARD_SUFFIX = ".col"

#: Rough per-item cost (in bytes) of one buffered transaction entry:
#: a short Python string plus list/pointer overhead.  Only used to
#: turn ``memory_budget_mb`` into a shard-cut heuristic — exactness
#: does not matter, determinism does.
_BYTES_PER_ITEM = 96
_BYTES_PER_TRANSACTION = 128


def estimate_transaction_bytes(transaction: Iterable[str]) -> int:
    """Deterministic buffered-size estimate of one transaction."""
    n_items = sum(1 for _ in transaction)
    return _BYTES_PER_TRANSACTION + _BYTES_PER_ITEM * n_items


class ShardedTransactionStore:
    """Contiguous on-disk shards of one logical transaction set.

    Parameters
    ----------
    directory:
        Directory holding the shard files and ``manifest.json``.
    taxonomy:
        The taxonomy the transactions are bound to.  Unbalanced trees
        are rebalanced with leaf copies exactly as
        :class:`TransactionDatabase` does, so per-shard databases and
        a monolithic database see the same item universe.
    """

    def __init__(self, directory: str | Path, taxonomy: Taxonomy) -> None:
        self._directory = Path(directory)
        if not taxonomy.is_balanced:
            taxonomy = rebalance_with_copies(taxonomy)
        self._taxonomy = taxonomy
        manifest_path = self._directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise DataError(
                f"{self._directory} is not a shard store "
                f"(missing {_MANIFEST_NAME})"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("version") != _MANIFEST_VERSION:
            raise DataError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')!r}"
            )
        self._shard_files: list[str] = list(manifest["shards"])
        self._shard_sizes: list[int] = [
            int(size) for size in manifest["shard_sizes"]
        ]
        if len(self._shard_files) != len(self._shard_sizes):
            raise DataError("shard manifest is inconsistent")
        self._n_transactions = int(manifest["n_transactions"])
        if self._n_transactions != sum(self._shard_sizes):
            raise DataError(
                "shard manifest transaction count does not match shards"
            )
        # Pre-retirement manifests carry no generation stamps; their
        # shards are numbered by position and nothing was ever retired.
        self._generations: list[int] = [
            int(gen)
            for gen in manifest.get(
                "generations", range(len(self._shard_files))
            )
        ]
        self._next_generation = int(
            manifest.get("next_generation", len(self._shard_files))
        )
        if len(self._generations) != len(self._shard_files):
            raise DataError("shard manifest generations are inconsistent")
        if any(
            later <= earlier
            for earlier, later in zip(
                self._generations, self._generations[1:]
            )
        ):
            raise DataError("shard generations must strictly increase")
        if self._generations and (
            self._next_generation <= self._generations[-1]
        ):
            raise DataError(
                "next_generation must exceed every shard generation"
            )
        # An empty store is legal only as the result of retiring every
        # shard (next_generation proves appends happened); a store that
        # never held data is still a construction error.
        if self._n_transactions == 0 and self._next_generation == len(
            self._shard_files
        ):
            raise DataError("shard store is empty")
        for name in self._shard_files:
            if not name.endswith(_SHARD_SUFFIX):
                raise DataError(
                    f"shard file {name} is not a columnar "
                    f"({_SHARD_SUFFIX}) shard: the jsonl shard encoding is "
                    "no longer read; `repro store migrate --to columnar` "
                    "from an earlier version converts the store"
                )
            if not (self._directory / name).is_file():
                raise DataError(f"missing shard file {name}")
        #: generation -> the shard's width at every level (index 0 is
        #: level 1); stamped when a shard is written, measured once
        #: for a shard opened from disk, dropped when it retires
        self._widths: dict[int, tuple[int, ...]] = {}
        #: columnar readers are cached (they hold mmaps)
        self._columnar_readers: dict[int, ColumnarShard] = {}
        #: shard files are immutable once written (appends introduce
        #: *new* names), so resolved paths and
        #: stat sizes are cached by file name — the budgeted admit
        #: path asks for both on every access
        self._path_cache: dict[str, Path] = {}
        self._size_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def partition_database(
        cls,
        database: TransactionDatabase,
        directory: str | Path,
        n_shards: int,
    ) -> "ShardedTransactionStore":
        """Split an in-memory database into ``n_shards`` contiguous
        shards of near-equal size (first shards get the remainder).

        ``n_shards`` may exceed the transaction count; the surplus
        shards are empty and contribute zero to every merged count.
        """
        if n_shards < 1:
            raise DataError(f"n_shards must be >= 1, got {n_shards}")
        n = database.n_transactions
        base, remainder = divmod(n, n_shards)
        sizes = [
            base + (1 if index < remainder else 0)
            for index in range(n_shards)
        ]
        lengths = np.fromiter(map(len, database), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        items = np.fromiter(
            chain.from_iterable(database),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        taxonomy = database.taxonomy
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_files: list[str] = []
        widths: list[tuple[int, ...]] = []
        for index, chunk in enumerate(_split(offsets, items, sizes)):
            name = _shard_file_name(index)
            widths.append(_write_encoded(directory / name, *chunk, taxonomy))
            shard_files.append(name)
        _write_manifest(directory, shard_files, sizes)
        store = cls(directory, taxonomy)
        store._widths.update(enumerate(widths))
        return store

    @classmethod
    def ingest(
        cls,
        transactions: Iterable[Iterable[str]],
        taxonomy: Taxonomy,
        directory: str | Path,
        *,
        rows_per_shard: int | None = None,
        memory_budget_mb: float | None = None,
    ) -> "ShardedTransactionStore":
        """Stream transactions into shard files.

        A shard is cut when the buffered row count reaches
        ``rows_per_shard`` or the buffered-size estimate reaches
        ``memory_budget_mb`` (whichever is configured and hits first);
        only one shard's worth of rows is ever held in memory.  With
        neither bound set, everything lands in a single shard.

        Rows are checked as :meth:`append_batch` checks a delta: a
        malformed row or an unknown item raises :class:`DataError`
        naming its position in the stream, and no manifest is written.
        """
        if rows_per_shard is not None and rows_per_shard < 1:
            raise DataError(
                f"rows_per_shard must be >= 1, got {rows_per_shard}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise DataError(
                f"memory_budget_mb must be > 0, got {memory_budget_mb}"
            )
        budget_bytes = (
            None
            if memory_budget_mb is None
            else int(memory_budget_mb * 1024 * 1024)
        )
        if not taxonomy.is_balanced:
            taxonomy = rebalance_with_copies(taxonomy)
        id_by_name = taxonomy.compiled.item_id_by_name
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_files: list[str] = []
        shard_sizes: list[int] = []
        widths: list[tuple[int, ...]] = []
        buffer: list[Sequence[str]] = []
        buffered_bytes = 0

        def flush() -> None:
            nonlocal buffered_bytes
            if not buffer:
                return
            offsets, items = _encode_rows(
                buffer, id_by_name, "transaction", start=sum(shard_sizes)
            )
            name = _shard_file_name(len(shard_files))
            widths.append(
                _write_encoded(directory / name, offsets, items, taxonomy)
            )
            shard_files.append(name)
            shard_sizes.append(len(buffer))
            buffer.clear()
            buffered_bytes = 0

        for index, raw in enumerate(transactions):
            row = _as_row(raw, "transaction", index)
            buffer.append(row)
            buffered_bytes += estimate_transaction_bytes(row)
            full = (
                rows_per_shard is not None and len(buffer) >= rows_per_shard
            ) or (budget_bytes is not None and buffered_bytes >= budget_bytes)
            if full:
                flush()
        flush()
        if not shard_sizes:
            raise DataError("transaction stream is empty")
        _write_manifest(directory, shard_files, shard_sizes)
        store = cls(directory, taxonomy)
        store._widths.update(enumerate(widths))
        return store

    @classmethod
    def open(
        cls, directory: str | Path, taxonomy: Taxonomy
    ) -> "ShardedTransactionStore":
        """Open an existing store (alias of the constructor)."""
        return cls(directory, taxonomy)

    # ------------------------------------------------------------------
    # delta ingestion
    # ------------------------------------------------------------------

    def append_batch(
        self,
        transactions: Iterable[Iterable[str]],
        *,
        rows_per_shard: int | None = None,
    ) -> list[int]:
        """Append a delta batch as new shard(s); never rewrites data.

        The batch is written to fresh shard files (split every
        ``rows_per_shard`` rows when set, one shard otherwise) and the
        manifest is extended with them.  Returns the indexes of the
        new shards — the exact set an incremental consumer has to
        count.  An empty batch is a no-op returning ``[]``.

        Crash safety: every new shard file is fully written (temp +
        ``os.replace``) *before* the manifest is atomically replaced,
        and the in-memory state only advances after the manifest
        commit.  A crash anywhere in between leaves the previous
        manifest intact and at worst some unreferenced shard files: a
        retried append of the same batch overwrites them (the
        generation counter only advances at the commit), and any
        other continuation leaves orphans that :meth:`gc_orphans`
        reclaims.
        """
        if rows_per_shard is not None and rows_per_shard < 1:
            raise DataError(
                f"rows_per_shard must be >= 1, got {rows_per_shard}"
            )
        # One pass maps every name to its item id and rejects a bad
        # row before the first write: a bad delta must not leave the
        # on-disk store half-extended.
        offsets, items = _encode_rows(
            transactions,
            self._taxonomy.compiled.item_id_by_name,
            "delta transaction",
        )
        n_rows = len(offsets) - 1
        if not n_rows:
            return []
        step = rows_per_shard or n_rows
        sizes = [
            min(step, n_rows - start) for start in range(0, n_rows, step)
        ]
        new_files: list[str] = []
        new_gens: list[int] = []
        new_widths: list[tuple[int, ...]] = []
        for chunk in _split(offsets, items, sizes):
            # Names come from the generation counter, not the list
            # position, so a name retired earlier is never reused.
            generation = self._next_generation + len(new_files)
            name = _shard_file_name(generation)
            # An existing file at a brand-new generation is an orphan
            # from a crashed earlier append (written, never committed
            # to the manifest); replacing it is the recovery path.
            new_widths.append(
                _write_encoded(self._directory / name, *chunk, self._taxonomy)
            )
            new_files.append(name)
            new_gens.append(generation)
        _write_manifest(
            self._directory,
            self._shard_files + new_files,
            self._shard_sizes + sizes,
            generations=self._generations + new_gens,
            next_generation=self._next_generation + len(new_files),
        )
        # The manifest replace above is the commit point; only now is
        # the in-memory view allowed to see the delta.
        first_new = len(self._shard_files)
        self._shard_files.extend(new_files)
        self._shard_sizes.extend(sizes)
        self._generations.extend(new_gens)
        self._next_generation += len(new_files)
        self._n_transactions += n_rows
        self._widths.update(zip(new_gens, new_widths))
        return list(range(first_new, len(self._shard_files)))

    # ------------------------------------------------------------------
    # shard retirement (the windowed-mining expiry path)
    # ------------------------------------------------------------------

    def retire_shards(self, indexes: Iterable[int]) -> int:
        """Drop whole shards from the store; returns the rows removed.

        The survivor manifest is atomically replaced first — that is
        the commit point — and only then are the retired shard files
        and their persisted backend images unlinked, so a crash
        mid-retirement leaves at worst committed-out orphan files
        (reclaimed by :meth:`gc_orphans`), never a manifest naming a
        missing shard.  Remaining shards keep their generation stamps;
        retired generations are never reissued.
        """
        retired = sorted(set(int(index) for index in indexes))
        if not retired:
            return 0
        for index in retired:
            if not 0 <= index < len(self._shard_files):
                raise DataError(
                    f"cannot retire shard {index}: store has "
                    f"{len(self._shard_files)} shard(s)"
                )
        retired_set = set(retired)
        survivors = [
            index
            for index in range(len(self._shard_files))
            if index not in retired_set
        ]
        new_index_of = {old: new for new, old in enumerate(survivors)}
        new_files = [self._shard_files[old] for old in survivors]
        new_sizes = [self._shard_sizes[old] for old in survivors]
        new_gens = [self._generations[old] for old in survivors]
        retired_names = [self._shard_files[old] for old in retired]
        retired_gens = [self._generations[old] for old in retired]
        rows = sum(self._shard_sizes[old] for old in retired)
        _write_manifest(
            self._directory,
            new_files,
            new_sizes,
            generations=new_gens,
            next_generation=self._next_generation,
        )
        # Committed.  Release mmaps over the retired shards, remap the
        # survivors' cached readers to their new positions, then
        # unlink the dead files and images.
        self._columnar_readers = {
            new_index_of[old]: reader
            for old, reader in self._columnar_readers.items()
            if old not in retired_set
        }
        for name in retired_names:
            _unlink_quietly(self._directory / name)
            for image in self._directory.glob(f"{name}.*.img"):
                _unlink_quietly(image)
            self._drop_cached_paths(name)
        self._shard_files = new_files
        self._shard_sizes = new_sizes
        self._generations = new_gens
        self._n_transactions -= rows
        # A survivor's widths stay exact: drop only the retired ones.
        for generation in retired_gens:
            self._widths.pop(generation, None)
        return rows

    def retire_before(self, generation: int) -> list[int]:
        """Retire every shard with a generation stamp below
        ``generation``; returns the retired generations (possibly
        empty)."""
        indexes = [
            index
            for index, gen in enumerate(self._generations)
            if gen < generation
        ]
        retired = [self._generations[index] for index in indexes]
        self.retire_shards(indexes)
        return retired

    def gc_orphans(self, *, dry_run: bool = False) -> list[str]:
        """Sweep shard/image files the manifest does not reference.

        Orphans arise from crashes in the commit windows of
        :meth:`append_batch` and :meth:`retire_shards` (a file fully
        written or left behind, but the manifest replace naming it
        never happened / already dropped it).  A backend image of a
        referenced shard is kept only when the shard pool can admit it
        (an ``IMAGE_BACKEND`` image); images of any other backend are
        orphans too.  Returns the orphan file names, sorted; with
        ``dry_run=True`` nothing is unlinked.
        """
        referenced = set(self._shard_files)
        orphans: list[str] = []
        for path in sorted(self._directory.glob("shard-*")):
            if not path.is_file():
                continue
            name = path.name
            if name in referenced:
                continue
            if name.endswith(f".{IMAGE_BACKEND}.img"):
                base = name.rsplit(".", 2)[0]
                if base in referenced:
                    continue
            orphans.append(name)
        if not dry_run:
            for name in orphans:
                _unlink_quietly(self._directory / name)
                self._drop_cached_paths(name)
        return orphans

    def _drop_cached_paths(self, name: str) -> None:
        """Purge cached paths/sizes of one shard file and its images."""
        prefix = f"{name}."
        for cache in (self._path_cache, self._size_cache):
            for key in [
                key
                for key in cache
                if key == name or key.startswith(prefix)
            ]:
                del cache[key]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def taxonomy(self) -> Taxonomy:
        """The (balanced) taxonomy the store is bound to."""
        return self._taxonomy

    @property
    def n_shards(self) -> int:
        return len(self._shard_files)

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    @property
    def shard_sizes(self) -> list[int]:
        """Transactions per shard (zeros allowed)."""
        return list(self._shard_sizes)

    @property
    def shard_generations(self) -> list[int]:
        """Per-shard generation stamps (strictly increasing; gaps mark
        retired shards)."""
        return list(self._generations)

    @property
    def next_generation(self) -> int:
        """The generation the next appended shard will receive."""
        return self._next_generation

    def shard_path(self, index: int) -> Path:
        name = self._shard_files[index]
        path = self._path_cache.get(name)
        if path is None:
            path = self._directory / name
            self._path_cache[name] = path
        return path

    def shard_bytes(self, index: int) -> int:
        """On-disk size of one shard file (0 if unreadable).

        Cached per file name — shard files never change in place
        (appends write new names).
        """
        name = self._shard_files[index]
        size = self._size_cache.get(name)
        if size is None:
            try:
                size = self.shard_path(index).stat().st_size
            except OSError:
                return 0
            self._size_cache[name] = size
        return size

    def image_path(self, index: int, inner: str) -> Path:
        """Where shard ``index``'s persisted ``inner``-backend image
        lives (the file may or may not exist yet)."""
        name = f"{self._shard_files[index]}.{inner}.img"
        path = self._path_cache.get(name)
        if path is None:
            path = self._directory / name
            self._path_cache[name] = path
        return path

    def image_bytes(self, index: int) -> int:
        """Total on-disk size of every persisted image of one shard."""
        total = 0
        for image in self._directory.glob(f"{self._shard_files[index]}.*.img"):
            try:
                total += image.stat().st_size
            except OSError:
                continue
        return total

    def shard_images(self, index: int) -> list[str]:
        """Backend names with a persisted image for shard ``index``."""
        prefix = f"{self._shard_files[index]}."
        names = []
        for image in self._directory.glob(f"{prefix}*.img"):
            names.append(image.name[len(prefix) : -len(".img")])
        return sorted(names)

    def __len__(self) -> int:
        return self._n_transactions

    # ------------------------------------------------------------------
    # shard access (the memory-budgeted read path)
    # ------------------------------------------------------------------

    def columnar_reader(self, index: int) -> ColumnarShard:
        """The memory-mapped reader of one shard (cached)."""
        reader = self._columnar_readers.get(index)
        if reader is None:
            reader = ColumnarShard(self.shard_path(index))
            if reader.n_rows != self._shard_sizes[index]:
                raise DataError(
                    f"shard {index} holds {reader.n_rows} transactions, "
                    f"manifest says {self._shard_sizes[index]}"
                )
            self._columnar_readers[index] = reader
        return reader

    def shard_transactions(self, index: int) -> list[tuple[str, ...]]:
        """The raw item-name rows of one shard."""
        if self._shard_sizes[index] == 0:
            return []
        return self.columnar_reader(index).rows()

    def shard_transactions_at(
        self, index: int, row_indices: list[int]
    ) -> list[tuple[str, ...]]:
        """Selected rows of one shard, in the given order.

        Only the requested rows are decoded (CSR random access), so a
        sampler's k-row draw never materializes the other ``n - k``
        rows.
        """
        if not row_indices:
            return []
        return self.columnar_reader(index).rows_at(row_indices)

    def shard_database(self, index: int) -> TransactionDatabase | None:
        """One shard materialized as a :class:`TransactionDatabase`
        bound to the shared taxonomy, or ``None`` for an empty shard.

        This is the unit of residency: callers (the partitioned
        backend's shard pool) hold as many of these as their memory
        budget allows and re-read evicted ones from disk.
        """
        rows = self.shard_transactions(index)
        if not rows:
            return None
        return TransactionDatabase(rows, self._taxonomy)

    def iter_shard_databases(
        self,
    ) -> Iterator[tuple[int, TransactionDatabase | None]]:
        """Stream ``(index, database)`` one shard at a time."""
        for index in range(self.n_shards):
            yield index, self.shard_database(index)

    # ------------------------------------------------------------------
    # database-compatible shape queries (what the miner needs)
    # ------------------------------------------------------------------

    def _shard_arrays(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard as CSR arrays over item ids, mapped from its
        file: ``int64`` row offsets and the item id of every value."""
        if self._shard_sizes[index] == 0:
            return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        reader = self.columnar_reader(index)
        id_by_name = self._taxonomy.compiled.item_id_by_name
        return (
            np.asarray(reader.offsets),
            reader.item_ids(id_by_name)[reader.items],
        )

    def width_at_level(self, level: int) -> int:
        """Largest distinct-node width after projecting to ``level``:
        the largest width of a live shard.

        A shard's widths at every level are stamped from its encoded
        arrays when the store writes it; a shard opened from disk is
        measured once, on the first query.  :meth:`retire_shards` drops
        only the retired shards' widths, so a retirement reads no
        surviving shard.
        """
        compiled = self._taxonomy.compiled
        # the taxonomy's own error for a level out of range
        compiled.item_ancestors(level)
        for index, generation in enumerate(self._generations):
            if generation not in self._widths:
                self._widths[generation] = _row_widths(
                    *self._shard_arrays(index), compiled
                )
        return max(
            (widths[level - 1] for widths in self._widths.values()),
            default=0,
        )

    def to_database(self) -> TransactionDatabase:
        """Materialize the whole store in memory (tests / small data)."""
        rows: list[tuple[str, ...]] = []
        for index in range(self.n_shards):
            rows.extend(self.shard_transactions(index))
        return TransactionDatabase(rows, self._taxonomy)

    def describe(self) -> str:
        """Store summary used by the CLI and examples: one header
        line, then one line per shard with its rows, on-disk bytes
        and persisted backend images."""
        sizes = self._shard_sizes
        size_note = f"(sizes {min(sizes)}..{max(sizes)}) " if sizes else ""
        lines = [
            f"ShardedTransactionStore: {self._n_transactions} transactions "
            f"in {self.n_shards} shard(s) "
            f"{size_note}at {self._directory}"
        ]
        for index, name in enumerate(self._shard_files):
            images = self.shard_images(index)
            image_note = (
                f"images: {', '.join(images)}" if images else "images: none"
            )
            lines.append(
                f"  shard {index}: {name} "
                f"{sizes[index]} row(s), {self.shard_bytes(index)} bytes, "
                f"{image_note}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedTransactionStore(n={self._n_transactions}, "
            f"shards={self.n_shards})"
        )


class ShardDirOwner:
    """``close()`` and ``with`` support for a miner that may hold the
    temporary directory :func:`open_or_partition_store` created."""

    _shard_tmpdir: tempfile.TemporaryDirectory[str] | None = None

    def close(self) -> None:
        """Remove the temporary shard directory this miner created.
        A caller's store or ``shard_dir`` is left alone, and a second
        call does nothing."""
        if self._shard_tmpdir is not None:
            self._shard_tmpdir.cleanup()
            self._shard_tmpdir = None

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_or_partition_store(
    database: TransactionDatabase | ShardedTransactionStore,
    partitions: int | None,
    shard_dir: str | Path | None,
    *,
    tmp_prefix: str = "repro-shards-",
) -> tuple[
    ShardedTransactionStore, "tempfile.TemporaryDirectory[str] | None"
]:
    """Resolve a miner's ``(database, partitions, shard_dir)`` trio
    into an on-disk store — the single implementation behind
    :class:`~repro.core.flipper.FlipperMiner` and
    :class:`~repro.engine.incremental.IncrementalMiner`.

    An existing store passes through (``partitions`` must agree and
    ``shard_dir`` must be unset); an in-memory database is split into
    ``partitions or 1`` shards under ``shard_dir`` or a fresh
    temporary directory, which is returned so the caller can own its
    lifetime: a :class:`ShardDirOwner` removes it in ``close()``.
    """
    if isinstance(database, ShardedTransactionStore):
        if partitions is not None and partitions != database.n_shards:
            raise ConfigError(
                f"partitions={partitions} conflicts with a store of "
                f"{database.n_shards} shard(s); drop the argument"
            )
        if shard_dir is not None:
            raise ConfigError(
                "shard_dir names where partitions=N materializes "
                "shards; this store already lives at "
                f"{database.directory}"
            )
        return database, None
    if partitions is not None and partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions}")
    tmpdir: tempfile.TemporaryDirectory[str] | None = None
    if shard_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix=tmp_prefix)
        shard_dir = tmpdir.name
    store = ShardedTransactionStore.partition_database(
        database, shard_dir, partitions or 1
    )
    return store, tmpdir


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------


def _shard_file_name(generation: int) -> str:
    return f"shard-{generation:05d}{_SHARD_SUFFIX}"


def _encode_rows(
    transactions: Iterable[Iterable[str]],
    id_by_name: Mapping[str, int],
    label: str,
    *,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of item names as CSR arrays over item ids (``int64`` row
    offsets, the item id of every value), in one pass over the names.

    A row must be an iterable of names other than a string, bytes or
    a mapping, and every name a known item's name; the first bad row
    raises :class:`DataError` naming ``label`` and its index, counted
    from ``start``.
    """
    rows = cast("list[Sequence[str]]", list(transactions))
    if not {type(row) for row in rows} <= {list, tuple}:
        rows = [
            _as_row(row, label, index)
            for index, row in enumerate(rows, start=start)
        ]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(list(map(len, rows)), out=offsets[1:])
    try:
        items = np.fromiter(
            map(id_by_name.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
    except (KeyError, TypeError):
        for index, row in enumerate(rows, start=start):
            _check_names(row, id_by_name, f"{label} {index}")
        raise
    return offsets, items


def _as_row(row: object, label: str, index: int) -> Sequence[str]:
    if not isinstance(row, Iterable) or isinstance(row, (str, bytes, Mapping)):
        raise DataError(
            f"{label} {index}: expected a list of item names, got "
            f"{type(row).__name__}"
        )
    return tuple(row)


def _check_names(
    row: Iterable[object], id_by_name: Mapping[str, int], where: str
) -> None:
    for name in row:
        if not isinstance(name, str):
            raise DataError(f"{where}: item {name!r} is not a string")
        if name not in id_by_name:
            raise DataError(f"{where}: unknown item {name!r}")


def _split(
    offsets: np.ndarray, items: np.ndarray, sizes: list[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Cut CSR arrays into consecutive chunks of ``sizes`` rows."""
    start = 0
    for size in sizes:
        stop = start + size
        first, last = int(offsets[start]), int(offsets[stop])
        yield offsets[start : stop + 1] - first, items[first:last]
        start = stop


def _row_widths(
    offsets: np.ndarray, items: np.ndarray, compiled: CompiledTaxonomy
) -> tuple[int, ...]:
    """Per level ``1..height``, the most distinct nodes one row holds
    after projecting its items to the level (the k bound's input)."""
    if not len(items):
        return (0,) * compiled.height
    rows = np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )
    widths = []
    for level in range(1, compiled.height + 1):
        nodes = compiled.item_ancestors(level)[items]
        stride = int(nodes.max()) + 1
        pairs = np.sort(rows * stride + nodes)
        distinct = np.ones(len(pairs), dtype=bool)
        distinct[1:] = pairs[1:] != pairs[:-1]
        widths.append(int(np.bincount(pairs[distinct] // stride).max()))
    return tuple(widths)


def _write_encoded(
    path: Path,
    offsets: np.ndarray,
    items: np.ndarray,
    taxonomy: Taxonomy,
) -> tuple[int, ...]:
    """Write one shard from CSR arrays over item ids and return its
    widths (see :func:`_row_widths`).  The name table is in
    first-occurrence order, so the bytes equal
    :func:`write_columnar_shard` of the rows."""
    local, distinct = localize(items)
    names = [taxonomy.name_of(item) for item in distinct.tolist()]
    write_columnar_arrays(path, offsets, local, names)
    return _row_widths(offsets, items, taxonomy.compiled)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _write_manifest(
    directory: Path,
    shard_files: list[str],
    shard_sizes: list[int],
    *,
    generations: list[int] | None = None,
    next_generation: int | None = None,
) -> None:
    """Atomically replace the manifest — the store's commit point.

    ``generations`` defaults to positional numbering and
    ``next_generation`` to the shard count — exactly what the reader
    assumes for manifests predating retirement support.
    """
    if generations is None:
        generations = list(range(len(shard_files)))
    if next_generation is None:
        next_generation = len(shard_files)
    manifest = {
        "version": _MANIFEST_VERSION,
        "shards": shard_files,
        "shard_sizes": shard_sizes,
        "n_transactions": sum(shard_sizes),
        "generations": generations,
        "next_generation": next_generation,
    }
    atomic_write_text(
        directory / _MANIFEST_NAME,
        json.dumps(manifest, indent=2) + "\n",
    )
