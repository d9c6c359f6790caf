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

On disk a store is a directory of shard files plus a ``manifest.json``
recording the shard layout.  Shards come in two formats, inferred
from the file suffix:

* ``columnar`` (``.col``, the default) — the binary CSR layout of
  :mod:`repro.data.columnar`, memory-mapped on read so counting
  backends are built from the raw arrays without parsing.  Built
  backends may be persisted next to the shard as ``.img`` files and
  re-admitted by the shard pool with an mmap + header check.
* ``jsonl`` (``.jsonl``) — the legacy line-per-transaction JSON
  format, kept read-compatible; :meth:`migrate` rewrites a store
  between the formats in place.

The taxonomy is bound at construction/open time (exactly like
``TransactionDatabase``), so a reopened store resolves item names
through the identical balanced tree and mining results cannot drift
between open sessions.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.core.atomicio import atomic_write_text
from repro.data.columnar import (
    IMAGE_BACKEND,
    ColumnarShard,
    write_columnar_shard,
)
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError, DataError
from repro.taxonomy.rebalance import rebalance_with_copies
from repro.taxonomy.tree import Taxonomy

__all__ = [
    "SHARD_FORMATS",
    "ShardedTransactionStore",
    "estimate_transaction_bytes",
    "open_or_partition_store",
]

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

#: shard formats and their file suffixes (format is inferred from the
#: suffix, so a store may legitimately mix them after append_batch
#: grows a legacy store with columnar delta shards)
SHARD_FORMATS = {"columnar": ".col", "jsonl": ".jsonl"}
_FORMAT_BY_SUFFIX = {suffix: name for name, suffix in SHARD_FORMATS.items()}

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


def _check_format(format: str) -> str:
    if format not in SHARD_FORMATS:
        known = ", ".join(sorted(SHARD_FORMATS))
        raise DataError(f"unknown shard format {format!r}; known: {known}")
    return format


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
    format:
        When set (``"columnar"`` or ``"jsonl"``), require every shard
        to be stored in that format; ``None`` accepts any mix.
    """

    def __init__(
        self,
        directory: str | Path,
        taxonomy: Taxonomy,
        *,
        format: str | None = None,
    ) -> None:
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
            if not (self._directory / name).is_file():
                raise DataError(f"missing shard file {name}")
            if format is not None and _format_of(name) != format:
                raise DataError(
                    f"shard file {name} is not in the requested "
                    f"{format!r} format"
                )
        self._width_cache: dict[int, int] = {}
        #: columnar readers are cached (they hold mmaps)
        self._columnar_readers: dict[int, ColumnarShard] = {}
        #: shard files are immutable once written (appends and
        #: migrations introduce *new* names), so resolved paths and
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
        *,
        format: str = "columnar",
    ) -> "ShardedTransactionStore":
        """Split an in-memory database into ``n_shards`` contiguous
        shards of near-equal size (first shards get the remainder).

        ``n_shards`` may exceed the transaction count; the surplus
        shards are empty and contribute zero to every merged count.
        """
        _check_format(format)
        if n_shards < 1:
            raise DataError(f"n_shards must be >= 1, got {n_shards}")
        n = database.n_transactions
        base, remainder = divmod(n, n_shards)
        sizes = [
            base + (1 if index < remainder else 0)
            for index in range(n_shards)
        ]
        rows = (database.transaction_names(index) for index in range(n))
        return cls._write(directory, database.taxonomy, rows, sizes, format)

    @classmethod
    def ingest(
        cls,
        transactions: Iterable[Iterable[str]],
        taxonomy: Taxonomy,
        directory: str | Path,
        *,
        rows_per_shard: int | None = None,
        memory_budget_mb: float | None = None,
        format: str = "columnar",
    ) -> "ShardedTransactionStore":
        """Stream transactions into shard files.

        A shard is cut when the buffered row count reaches
        ``rows_per_shard`` or the buffered-size estimate reaches
        ``memory_budget_mb`` (whichever is configured and hits first);
        only one shard's worth of rows is ever held in memory.  With
        neither bound set, everything lands in a single shard.
        """
        _check_format(format)
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
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_files: list[str] = []
        shard_sizes: list[int] = []
        buffer: list[tuple[str, ...]] = []
        buffered_bytes = 0

        def flush() -> None:
            nonlocal buffered_bytes
            if not buffer:
                return
            name = _shard_file_name(len(shard_files), format)
            _write_shard_file(directory / name, buffer, format)
            shard_files.append(name)
            shard_sizes.append(len(buffer))
            buffer.clear()
            buffered_bytes = 0

        for raw in transactions:
            row = tuple(str(item) for item in raw)
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
        return cls(directory, taxonomy)

    @classmethod
    def _write(
        cls,
        directory: str | Path,
        taxonomy: Taxonomy,
        rows: Iterator[tuple[str, ...]],
        sizes: list[int],
        format: str,
    ) -> "ShardedTransactionStore":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_files: list[str] = []
        for index, size in enumerate(sizes):
            name = _shard_file_name(index, format)
            chunk = [next(rows) for _ in range(size)]
            _write_shard_file(directory / name, chunk, format)
            shard_files.append(name)
        _write_manifest(directory, shard_files, sizes)
        return cls(directory, taxonomy)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        taxonomy: Taxonomy,
        *,
        format: str | None = None,
    ) -> "ShardedTransactionStore":
        """Open an existing store (alias of the constructor)."""
        if format is not None:
            _check_format(format)
        return cls(directory, taxonomy, format=format)

    # ------------------------------------------------------------------
    # delta ingestion
    # ------------------------------------------------------------------

    def append_batch(
        self,
        transactions: Iterable[Iterable[str]],
        *,
        rows_per_shard: int | None = None,
        format: str = "columnar",
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
        _check_format(format)
        if rows_per_shard is not None and rows_per_shard < 1:
            raise DataError(
                f"rows_per_shard must be >= 1, got {rows_per_shard}"
            )
        rows = [tuple(str(item) for item in raw) for raw in transactions]
        if not rows:
            return []
        # Validate before the first write: a bad delta must not leave
        # the on-disk store half-extended.
        id_by_name = self._id_by_name()
        for row_index, row in enumerate(rows):
            for name in row:
                if name not in id_by_name:
                    raise DataError(
                        f"delta transaction {row_index}: unknown item "
                        f"{name!r}"
                    )
        new_files: list[str] = []
        new_sizes: list[int] = []
        new_gens: list[int] = []
        step = rows_per_shard or len(rows)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            # Names come from the generation counter, not the list
            # position, so a name retired earlier is never reused.
            generation = self._next_generation + len(new_files)
            name = _shard_file_name(generation, format)
            # An existing file at a brand-new generation is an orphan
            # from a crashed earlier append (written, never committed
            # to the manifest); replacing it is the recovery path.
            _write_shard_file(self._directory / name, chunk, format)
            new_files.append(name)
            new_sizes.append(len(chunk))
            new_gens.append(generation)
        _write_manifest(
            self._directory,
            self._shard_files + new_files,
            self._shard_sizes + new_sizes,
            generations=self._generations + new_gens,
            next_generation=self._next_generation + len(new_files),
        )
        # The manifest replace above is the commit point; only now is
        # the in-memory view allowed to see the delta.
        first_new = len(self._shard_files)
        self._shard_files.extend(new_files)
        self._shard_sizes.extend(new_sizes)
        self._generations.extend(new_gens)
        self._next_generation += len(new_files)
        self._n_transactions += len(rows)
        # Cached per-level widths stay exact: fold in the delta rows
        # instead of re-streaming every shard.
        for level, best in list(self._width_cache.items()):
            self._width_cache[level] = max(
                best, self._rows_width_at_level(rows, level, id_by_name)
            )
        return list(range(first_new, len(self._shard_files)))

    def _id_by_name(self) -> dict[str, int]:
        return {
            self._taxonomy.name_of(item): item
            for item in self._taxonomy.item_ids
        }

    def _rows_width_at_level(
        self,
        rows: list[tuple[str, ...]],
        level: int,
        id_by_name: dict[str, int],
    ) -> int:
        """Largest distinct-node width among ``rows`` at ``level``."""
        mapping = self._taxonomy.item_ancestor_map(level)
        best = 0
        for row in rows:
            nodes = {mapping[id_by_name[name]] for name in row}
            if len(nodes) > best:
                best = len(nodes)
        return best

    # ------------------------------------------------------------------
    # format migration
    # ------------------------------------------------------------------

    def migrate(self, to: str) -> int:
        """Rewrite every shard in ``to`` format, in place, atomically.

        Shard boundaries (and therefore all mining results) are
        preserved exactly; only the encoding changes.  New shard files
        are staged in a temporary subdirectory, renamed into the store
        directory, and the manifest replace is the commit point — a
        crash before it leaves the old store fully intact, a crash
        after it leaves the new store fully intact (plus harmless
        orphan files).  Persisted backend images of rewritten shards
        are dropped (they are keyed to shard file names) and will be
        regenerated by the pool on demand.

        Returns the number of shard files rewritten (0 when the store
        already is entirely in the target format).
        """
        _check_format(to)
        old_files = list(self._shard_files)
        if all(_format_of(name) == to for name in old_files):
            return 0
        staging = Path(
            tempfile.mkdtemp(prefix=".migrate-", dir=self._directory)
        )
        try:
            new_files = [
                _shard_file_name(generation, to)
                for generation in self._generations
            ]
            for index, name in enumerate(new_files):
                _write_shard_file(
                    staging / name, self.shard_transactions(index), to
                )
            # Release mmaps over the old files before unlinking them.
            self._columnar_readers.clear()
            for name in new_files:
                os.replace(staging / name, self._directory / name)
            _write_manifest(
                self._directory,
                new_files,
                self._shard_sizes,
                generations=self._generations,
                next_generation=self._next_generation,
            )
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        # Committed: retire the old encodings and their images.
        rewritten = 0
        for name in old_files:
            if name in new_files:
                continue
            rewritten += 1
            _unlink_quietly(self._directory / name)
            for image in self._directory.glob(f"{name}.*.img"):
                _unlink_quietly(image)
            self._drop_cached_paths(name)
        self._shard_files = new_files
        self.gc_orphans()
        return rewritten

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
        # Width maxima may have lived in the retired rows; recompute
        # lazily so windowed results match a cold mine byte for byte.
        self._width_cache.clear()
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
        :meth:`append_batch`, :meth:`retire_shards` and
        :meth:`migrate` (a file fully written or left behind, but the
        manifest replace naming it never happened / already dropped
        it).  A backend image of a referenced shard is kept only when
        the shard pool can admit it (an ``IMAGE_BACKEND`` image);
        images of any other backend are orphans too.  Returns the
        orphan file names, sorted; with ``dry_run=True`` nothing is
        unlinked.
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

    def shard_format(self, index: int) -> str:
        """Storage format of one shard (``columnar`` or ``jsonl``)."""
        return _format_of(self._shard_files[index])

    def shard_bytes(self, index: int) -> int:
        """On-disk size of one shard file (0 if unreadable).

        Cached per file name — shard files never change in place
        (appends and migrations write new names).
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
        """The memory-mapped reader of one columnar shard (cached).

        Raises :class:`DataError` for a jsonl shard — callers decide
        per shard via :meth:`shard_format` whether the zero-parse path
        applies.
        """
        if self.shard_format(index) != "columnar":
            raise DataError(
                f"shard {index} ({self._shard_files[index]}) is not "
                "columnar"
            )
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
        if self.shard_format(index) == "columnar":
            return self.columnar_reader(index).rows()
        rows = _read_jsonl_shard(self.shard_path(index))
        if len(rows) != self._shard_sizes[index]:
            raise DataError(
                f"shard {index} holds {len(rows)} transactions, "
                f"manifest says {self._shard_sizes[index]}"
            )
        return rows

    def shard_transactions_at(
        self, index: int, row_indices: list[int]
    ) -> list[tuple[str, ...]]:
        """Selected rows of one shard, in the given order.

        Columnar shards decode only the requested rows (CSR random
        access); jsonl shards fall back to a full parse.  Samplers
        use this so a k-row draw over a columnar store never
        materializes the other ``n - k`` rows.
        """
        if not row_indices:
            return []
        if self.shard_format(index) == "columnar":
            return self.columnar_reader(index).rows_at(row_indices)
        rows = self.shard_transactions(index)
        return [rows[row] for row in row_indices]

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

    def _local_node_map(
        self,
        reader: ColumnarShard,
        index: int,
        level: int,
        mapping: dict[int, int],
        id_by_name: dict[str, int],
    ) -> np.ndarray:
        """Level-``level`` ancestor node id of every *local* item id
        of one columnar shard (the vectorized projection table)."""
        nodes = np.empty(len(reader.item_names), dtype=np.int64)
        for local, name in enumerate(reader.item_names):
            item = id_by_name.get(name)
            if item is None:
                raise DataError(f"shard {index}: unknown item {name!r}")
            nodes[local] = mapping[item]
        return nodes

    def width_at_level(self, level: int) -> int:
        """Largest distinct-node width after projecting to ``level``,
        computed by streaming the shards (never all at once).

        Columnar shards are measured directly on the mapped arrays:
        distinct ``(row, node)`` pairs via one vectorized pass, no
        per-row Python objects.
        """
        if level not in self._width_cache:
            mapping = self._taxonomy.item_ancestor_map(level)
            id_by_name = self._id_by_name()
            stride = max(mapping.values(), default=0) + 1
            best = 0
            for index in range(self.n_shards):
                if self._shard_sizes[index] == 0:
                    continue
                if self.shard_format(index) == "columnar":
                    reader = self.columnar_reader(index)
                    if reader.n_values == 0:
                        continue
                    node_of = self._local_node_map(
                        reader, index, level, mapping, id_by_name
                    )
                    keys = np.unique(
                        reader.row_index() * stride
                        + node_of[reader.items]
                    )
                    widths = np.bincount(keys // stride)
                    best = max(best, int(widths.max()))
                    continue
                for row in self.shard_transactions(index):
                    nodes: set[int] = set()
                    for name in row:
                        item = id_by_name.get(name)
                        if item is None:
                            raise DataError(
                                f"shard {index}: unknown item {name!r}"
                            )
                        nodes.add(mapping[item])
                    if len(nodes) > best:
                        best = len(nodes)
            self._width_cache[level] = best
        return self._width_cache[level]

    def to_database(self) -> TransactionDatabase:
        """Materialize the whole store in memory (tests / small data)."""
        rows: list[tuple[str, ...]] = []
        for index in range(self.n_shards):
            rows.extend(self.shard_transactions(index))
        return TransactionDatabase(rows, self._taxonomy)

    def describe(self) -> str:
        """Store summary used by the CLI and examples: one header
        line, then one line per shard with format, on-disk bytes and
        persisted backend images."""
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
                f"  shard {index}: {name} [{self.shard_format(index)}] "
                f"{sizes[index]} row(s), {self.shard_bytes(index)} bytes, "
                f"{image_note}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedTransactionStore(n={self._n_transactions}, "
            f"shards={self.n_shards})"
        )


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
    lifetime (it self-deletes when garbage-collected).
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


def _shard_file_name(index: int, format: str = "columnar") -> str:
    return f"shard-{index:05d}{SHARD_FORMATS[format]}"


def _format_of(name: str) -> str:
    suffix = Path(name).suffix
    try:
        return _FORMAT_BY_SUFFIX[suffix]
    except KeyError:
        raise DataError(
            f"shard file {name!r} has an unknown format suffix"
        ) from None


def _write_shard_file(
    path: Path, rows: list[tuple[str, ...]], format: str
) -> None:
    if format == "columnar":
        write_columnar_shard(path, rows)
        return
    atomic_write_text(
        path, "".join(json.dumps(list(row)) + "\n" for row in rows)
    )


def _read_jsonl_shard(path: Path) -> list[tuple[str, ...]]:
    rows: list[tuple[str, ...]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            if not isinstance(row, list):
                raise DataError(f"{path}:{lineno}: expected a JSON array")
            rows.append(tuple(str(item) for item in row))
    return rows


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
