"""Binary columnar shard format and persisted backend images.

The out-of-core tier's zero-parse substrate.  Two file kinds live
next to a shard store's ``manifest.json``:

* **Columnar shards** (``shard-NNNNN.col``, magic ``FLIPCOL1``) — one
  shard's transactions in CSR layout: an ``int64`` row-offsets array
  of length ``n_rows + 1`` followed by a contiguous ``int32`` array
  of item ids.  Item ids are *local*: indexes into a per-shard item
  name table carried in the header, so a shard file is self-describing
  and lossless (duplicates and item order included) without coupling
  to global taxonomy node numbering.  Readers :func:`numpy.memmap`
  both arrays, so serving shard data costs no parsing at all.
* **Backend images** (``<shard>.bitmap.img``, magic ``FLIPIMG1``) —
  the *built* counting structure of one shard (BitmapBackend bitset
  planes packed to bytes), so a
  :class:`~repro.core.counting.ShardBackendPool` re-admit is an mmap
  plus a header check instead of a parse-and-rebuild.  The header
  carries the image format version, the backend kind, the row count,
  the source shard file's byte size and a taxonomy fingerprint; any
  mismatch invalidates the image and forces a rebuild — a stale image
  is never served.

Both formats share one container: ``magic (8 bytes) + uint32 LE
header length + UTF-8 JSON header``, padded to a 64-byte boundary,
then the raw little-endian arrays, each aligned to 64 bytes.  Writes
go through a temporary file in the same directory and ``os.replace``,
so a crash can leave at worst an ignorable temp file, never a torn
shard or image.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import weakref
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.atomicio import atomic_write_bytes
from repro.errors import DataError
from repro.obs import catalog
from repro.obs.metrics import default_registry
from repro.taxonomy.tree import Taxonomy

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "IMAGE_BACKEND",
    "IMAGE_FORMAT_VERSION",
    "ColumnarShard",
    "read_backend_image",
    "taxonomy_fingerprint",
    "write_backend_image",
    "write_columnar_shard",
]

COLUMNAR_MAGIC = b"FLIPCOL1"
IMAGE_MAGIC = b"FLIPIMG1"

#: bumped whenever the on-disk layout changes; readers reject files
#: whose header declares a different version
COLUMNAR_FORMAT_VERSION = 1
IMAGE_FORMAT_VERSION = 1

#: the one counting backend whose built structure persists as a
#: ``<shard>.<IMAGE_BACKEND>.img`` image; the shard pool admits only
#: these, and ``gc_orphans`` sweeps images of any other name
IMAGE_BACKEND = "bitmap"

#: array alignment inside both containers (cache-line friendly, and
#: a safe mmap offset granularity everywhere)
_ALIGN = 64

#: registered once at import; every map/decode below feeds these
_M_MAPPED_BYTES = default_registry().counter(catalog.COLUMNAR_MAPPED_BYTES)
_M_SHARDS_DECODED = default_registry().counter(
    catalog.COLUMNAR_SHARDS_DECODED
)


#: per-instance fingerprint cache — taxonomies are immutable after
#: construction, and every pool construction asks for the fingerprint
_FINGERPRINTS: "weakref.WeakKeyDictionary[Taxonomy, str]" = (
    weakref.WeakKeyDictionary()
)


def taxonomy_fingerprint(taxonomy: Taxonomy) -> str:
    """Stable content hash of a taxonomy's (original) tree shape.

    Computed over the canonical nested-mapping form, so it is
    invariant under rebalancing (copy nodes are not part of the
    serialized tree) and across open sessions.  Backend images carry
    it; an image built under a different taxonomy never validates.
    Memoized per instance — taxonomies never mutate after load.
    """
    cached = _FINGERPRINTS.get(taxonomy)
    if cached is not None:
        return cached
    from repro.taxonomy.io import taxonomy_to_dict

    payload = json.dumps(
        taxonomy_to_dict(taxonomy), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    _FINGERPRINTS[taxonomy] = digest
    return digest


def _pad_to(size: int) -> int:
    return (size + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_header(magic: bytes, header: dict[str, Any]) -> bytes:
    payload = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    raw = magic + len(payload).to_bytes(4, "little") + payload
    return raw + b"\x00" * (_pad_to(len(raw)) - len(raw))


def _read_header(path: Path, magic: bytes) -> tuple[dict[str, Any], int]:
    """Parse a container header; returns ``(header, data_offset)``.

    A missing or unreadable file raises :class:`DataError`, so the
    public readers built on this never leak ``FileNotFoundError``.
    """
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with handle:
        prefix = handle.read(len(magic) + 4)
        if prefix[: len(magic)] != magic:
            raise DataError(f"{path} is not a {magic.decode('ascii')} file")
        length = int.from_bytes(prefix[len(magic) :], "little")
        payload = handle.read(length)
    if len(payload) != length:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header must be a JSON object")
    return header, _pad_to(len(magic) + 4 + length)


def _atomic_write(path: Path, chunks: list[bytes]) -> None:
    """Write a file fully in a same-directory temp, then rename it
    into place — the only mutation the directory ever observes.

    Kept as a module-level name (tests monkeypatch it for failure
    injection); the implementation is the shared helper.
    """
    atomic_write_bytes(path, chunks)


# ----------------------------------------------------------------------
# columnar shards
# ----------------------------------------------------------------------


def write_columnar_shard(
    path: str | Path, rows: list[tuple[str, ...]]
) -> None:
    """Write one shard of transactions in CSR columnar layout.

    The item name table is built in first-occurrence order, so the
    file content is a deterministic function of the rows alone.
    """
    path = Path(path)
    name_table: dict[str, int] = {}
    locals_per_row: list[list[int]] = []
    for row in rows:
        encoded = []
        for name in row:
            local = name_table.setdefault(name, len(name_table))
            encoded.append(local)
        locals_per_row.append(encoded)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(encoded) for encoded in locals_per_row], out=offsets[1:])
    items = np.fromiter(
        (local for encoded in locals_per_row for local in encoded),
        dtype=np.int32,
        count=int(offsets[-1]),
    )
    header = {
        "format": COLUMNAR_FORMAT_VERSION,
        "n_rows": len(rows),
        "n_values": int(offsets[-1]),
        "item_names": list(name_table),
    }
    head = _pack_header(COLUMNAR_MAGIC, header)
    offset_bytes = offsets.tobytes()
    pad = b"\x00" * (_pad_to(len(offset_bytes)) - len(offset_bytes))
    _atomic_write(path, [head, offset_bytes, pad, items.tobytes()])


class ColumnarShard:
    """Memory-mapped reader of one ``FLIPCOL1`` shard file.

    The header is parsed once at construction (a few hundred bytes);
    the offsets and items arrays are mapped lazily and cached, so
    repeated counting passes over the same shard touch the page cache
    only.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        header, data_offset = _read_header(self._path, COLUMNAR_MAGIC)
        if header.get("format") != COLUMNAR_FORMAT_VERSION:
            raise DataError(
                f"{self._path}: unsupported columnar format "
                f"{header.get('format')!r}"
            )
        try:
            self._n_rows = int(header["n_rows"])
            self._n_values = int(header["n_values"])
            names = header["item_names"]
        except KeyError as exc:
            raise DataError(f"{self._path}: header is missing {exc}") from None
        if self._n_rows < 0 or self._n_values < 0:
            raise DataError(f"{self._path}: negative header counts")
        self._item_names: tuple[str, ...] = tuple(str(name) for name in names)
        self._offsets_at = data_offset
        self._items_at = data_offset + _pad_to(8 * (self._n_rows + 1))
        expected = self._items_at + 4 * self._n_values
        actual = self._path.stat().st_size
        if actual < expected:
            raise DataError(
                f"{self._path}: truncated shard ({actual} bytes, "
                f"layout needs {expected})"
            )
        self._offsets: np.ndarray | None = None
        self._items: np.ndarray | None = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_values(self) -> int:
        return self._n_values

    @property
    def item_names(self) -> tuple[str, ...]:
        """Per-shard item name table (local id -> name)."""
        return self._item_names

    @property
    def offsets(self) -> np.ndarray:
        """Row offsets, ``int64[n_rows + 1]`` (mapped)."""
        if self._offsets is None:
            self._offsets = np.memmap(
                self._path,
                dtype=np.int64,
                mode="r",
                offset=self._offsets_at,
                shape=(self._n_rows + 1,),
            )
            _M_MAPPED_BYTES.inc(self._offsets.nbytes)
        return self._offsets

    @property
    def items(self) -> np.ndarray:
        """Local item ids, ``int32[n_values]`` (mapped)."""
        if self._items is None:
            if self._n_values == 0:
                self._items = np.empty(0, dtype=np.int32)
            else:
                self._items = np.memmap(
                    self._path,
                    dtype=np.int32,
                    mode="r",
                    offset=self._items_at,
                    shape=(self._n_values,),
                )
                _M_MAPPED_BYTES.inc(self._items.nbytes)
        return self._items

    def row_index(self) -> np.ndarray:
        """Row number of every value: ``int64[n_values]``.

        The gather that turns the CSR arrays into (row, item) pairs —
        the only per-value structure vectorized consumers need.
        """
        return np.repeat(
            np.arange(self._n_rows, dtype=np.int64),
            np.diff(self.offsets),
        )

    def rows(self) -> list[tuple[str, ...]]:
        """Decode back to item-name rows (the round-trip contract)."""
        _M_SHARDS_DECODED.inc()
        offsets = self.offsets
        items = self.items
        names = self._item_names
        out: list[tuple[str, ...]] = []
        for row in range(self._n_rows):
            start, stop = int(offsets[row]), int(offsets[row + 1])
            out.append(tuple(names[local] for local in items[start:stop]))
        return out

    def rows_at(self, row_indices: Iterable[int]) -> list[tuple[str, ...]]:
        """Decode only the selected rows (CSR random access).

        The point of the columnar layout for samplers: a k-row draw
        costs k row decodes, not ``n_rows``.
        """
        offsets = self.offsets
        items = self.items
        names = self._item_names
        out: list[tuple[str, ...]] = []
        for row in row_indices:
            if not 0 <= row < self._n_rows:
                raise DataError(
                    f"row {row} out of range for shard with "
                    f"{self._n_rows} row(s)"
                )
            start, stop = int(offsets[row]), int(offsets[row + 1])
            out.append(tuple(names[local] for local in items[start:stop]))
        return out


# ----------------------------------------------------------------------
# backend images
# ----------------------------------------------------------------------


def write_backend_image(
    path: str | Path,
    meta: dict[str, Any],
    arrays: list[np.ndarray],
) -> None:
    """Persist a built backend's arrays next to its shard.

    ``meta`` must carry the validation fields (``backend``,
    ``n_rows``, ``taxonomy_fingerprint``, ``source_bytes``) plus
    whatever structure the backend needs to reattach the arrays
    (level/node tables).  Array dtypes and shapes are recorded in the
    header; payloads are written aligned so readers can map them
    directly.
    """
    path = Path(path)
    header = dict(meta)
    header["format"] = IMAGE_FORMAT_VERSION
    header["arrays"] = [
        {"dtype": array.dtype.str, "shape": list(array.shape)}
        for array in arrays
    ]
    chunks = [_pack_header(IMAGE_MAGIC, header)]
    for array in arrays:
        payload = np.ascontiguousarray(array).tobytes()
        chunks.append(payload)
        chunks.append(b"\x00" * (_pad_to(len(payload)) - len(payload)))
    _atomic_write(path, chunks)


def read_backend_image(
    path: str | Path,
) -> tuple[dict[str, Any], list[np.ndarray]] | None:
    """Map a backend image back as ``(header, arrays)``.

    Returns ``None`` for a missing, truncated or otherwise unreadable
    file — the pool treats that exactly like "no image" and rebuilds.
    Semantic validation (backend kind, row count, fingerprint) is the
    caller's job; this only guarantees structural integrity.

    The file is opened and memory-mapped exactly once; every array is
    a zero-copy :func:`numpy.frombuffer` view over that single map
    (which stays alive for as long as any view references it).  This
    keeps the admit path to one open + one ``mmap`` syscall per image
    regardless of how many arrays the backend persisted.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            prefix = handle.read(len(IMAGE_MAGIC) + 4)
            if prefix[: len(IMAGE_MAGIC)] != IMAGE_MAGIC:
                return None
            length = int.from_bytes(prefix[len(IMAGE_MAGIC) :], "little")
            payload = handle.read(length)
            if len(payload) != length:
                return None
            header = json.loads(payload.decode("utf-8"))
            if not isinstance(header, dict):
                return None
            if header.get("format") != IMAGE_FORMAT_VERSION:
                return None
            specs = header.get("arrays")
            if not isinstance(specs, list):
                return None
            data_offset = _pad_to(len(IMAGE_MAGIC) + 4 + length)
            buffer: mmap.mmap | None = None
            arrays: list[np.ndarray] = []
            at = data_offset
            for spec in specs:
                dtype = np.dtype(spec["dtype"])
                shape = tuple(int(dim) for dim in spec["shape"])
                count = math.prod(shape)
                n_bytes = dtype.itemsize * count
                if at + n_bytes > size:
                    return None
                if n_bytes == 0:
                    arrays.append(np.empty(shape, dtype=dtype))
                else:
                    if buffer is None:
                        buffer = mmap.mmap(
                            handle.fileno(),
                            0,
                            access=mmap.ACCESS_READ,
                        )
                        _M_MAPPED_BYTES.inc(size)
                    view = np.frombuffer(
                        buffer, dtype=dtype, count=count, offset=at
                    ).reshape(shape)
                    arrays.append(view)
                at += _pad_to(n_bytes)
        return header, arrays
    except (
        OSError,
        ValueError,
        TypeError,
        KeyError,
        UnicodeDecodeError,
        json.JSONDecodeError,
    ):
        return None
