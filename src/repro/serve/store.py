"""Indexed, persistent store of mined flipping patterns.

The serving-side counterpart of a
:class:`~repro.core.patterns.MiningResult`: the same patterns, held in
one columnar index so queries resolve through array operations
instead of linear scans.  A pattern's **ordinal** is its position in
the snapshot's sorted pattern ids; every array is indexed by, or
holds, ordinals:

* **postings** — ascending ``int32`` ordinal arrays per leaf item
  name, per taxonomy node name (a node at *any* chain level, which is
  exactly the descendant-or-self relation restricted to the pattern's
  generalization path) and per label signature (e.g. ``+-+``);
* **columns** — one ``float64`` column per serving measure (leaf
  correlation/support and the three flip-sharpness gaps) and an
  ``int32`` column of chain heights;
* **orders** — per (measure, direction), a stable argsort of the
  measure column (ties break by id, because ordinals follow ids) and
  its inverse rank: a page of any matched set is the order at the
  first sorted ranks;
* **bodies** — per ordinal, the pattern's JSON text exactly as a
  ``/v1`` answer carries it (``json.dumps`` of its ``to_dict()`` with
  its ``id``), encoded once when the row enters a snapshot, so a read
  splices stored texts instead of rendering patterns.

The index lives in an **immutable** :class:`StoreSnapshot`: every
array is read-only, and a snapshot never changes after it is built.
:class:`PatternStore` is the mutable facade the rest of the system
holds on to: it keeps a reference to the current snapshot, and
:meth:`PatternStore.apply_result` diffs an updated
:class:`MiningResult` against it, builds the *next* snapshot
(unchanged rows are gathered from the current arrays and keep their
JSON texts; only added and changed patterns are read and encoded) and
publishes it with a single atomic reference swap.  Readers pin one
snapshot (:meth:`PatternStore.snapshot`) and serve their whole request
from it, so no read ever takes a lock, never observes a torn index,
and ``expect_version``/409 semantics fall out of snapshot identity.

Pattern identity is the leaf itemset (``pattern_id`` is its item ids
joined with ``-``), which makes the diff incremental: only added,
changed and removed patterns are reindexed.  Every content change
bumps the ``version``; query consumers stamp results with it and fail
loudly on mismatch instead of serving a mix of two generations (see
:mod:`repro.serve.query`).

The store round-trips to disk as a single JSON document (written
atomically, so readers never observe a torn file) — conventionally
``pattern_store.json`` next to the shard manifest it was mined from.

Consecutive generations are additionally diffed into **flip
lifecycle events**: a pattern id appearing is a ``flip_started``, one
vanishing is a ``flip_stopped``, and a changed label trajectory is a
``flip_level_changed`` — the streaming/windowed monitoring signal
(which correlations *started or stopped* flipping between window
generations).  Events are buffered in a bounded ring on
:class:`PatternStore`, stamped with the store version that produced
them, and served by ``GET /v1/events`` as a long-poll (see
:mod:`repro.serve.api`).
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.patterns import FlippingPattern, MiningResult
from repro.core.serialize import (
    _link_from_dict,
    _link_to_dict,
    atomic_write_json,
    load_result,
)
from repro.errors import ConfigError, ServeError
from repro.obs import catalog
from repro.obs.metrics import default_registry

__all__ = [
    "PatternEvent",
    "PatternStore",
    "StoreSnapshot",
    "EVENT_TYPES",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "STORE_FILE_NAME",
    "MEASURE_GETTERS",
    "pattern_id_of",
]

#: lifecycle event types, in emission order within one generation
EVENT_TYPES = ("flip_started", "flip_stopped", "flip_level_changed")

STORE_FORMAT = "repro.pattern-store"
STORE_FORMAT_VERSION = 1

#: conventional file name when the store lives in a directory (next
#: to a shard manifest)
STORE_FILE_NAME = "pattern_store.json"

#: serving measures with a column each: name -> value getter
MEASURE_GETTERS: dict[str, Callable[[FlippingPattern], float]] = {
    "correlation": lambda p: p.leaf_link.correlation,
    "support": lambda p: float(p.leaf_link.support),
    "min_gap": lambda p: p.min_gap,
    "max_gap": lambda p: p.max_gap,
    "mean_gap": lambda p: p.mean_gap,
}

#: serving measures in the row order of a snapshot's measure matrix
_MEASURES = tuple(MEASURE_GETTERS)
_MEASURE_ROW = {name: row for row, name in enumerate(_MEASURES)}


#: a posting key: ``("item" | "node" | "signature", name)``
_Key = tuple[str, str]


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only (every published index array is)."""
    array.setflags(write=False)
    return array


_NO_ORDINALS = _frozen(np.empty(0, dtype=np.int32))


def _within(values: np.ndarray, lo: Any, hi: Any) -> np.ndarray:
    """Mask of the ``values`` inside the inclusive ``[lo, hi]`` bounds
    (``None`` is unbounded).  A value is out only when it is below
    ``lo`` or above ``hi``, exactly as :func:`repro.serve.query.matches`
    tests a pattern."""
    inside = np.ones(len(values), dtype=bool)
    if lo is not None:
        inside &= ~(values < lo)
    if hi is not None:
        inside &= ~(values > hi)
    return inside


def _column_bound(bound: Any) -> Any:
    """``bound`` as the float64 measure columns compare it: an int past
    float range (``Query`` takes any int support bound) becomes the
    infinity of its sign, which every column value compares with as it
    does with the int."""
    if isinstance(bound, int) and abs(bound) > sys.float_info.max:
        return math.inf if bound > 0 else -math.inf
    return bound


def _body(pid: str, pattern: FlippingPattern) -> str:
    """The JSON text of one pattern as every ``/v1`` answer carries it."""
    return json.dumps(dict(pattern.to_dict(), id=pid))


@dataclass(frozen=True)
class PatternEvent:
    """One flip lifecycle transition between two store generations.

    ``version`` is the store version whose publish produced the event
    — a real store generation, so a consumer can resume a poll with
    ``since_version=<last seen>`` and never miss or double-see a
    transition.  ``signature`` is the pattern's label trajectory
    after the transition (``None`` for ``flip_stopped``);
    ``previous_signature`` is the trajectory before it (``None`` for
    ``flip_started``).
    """

    type: str  #: ``flip_started`` | ``flip_stopped`` | ``flip_level_changed``
    pattern_id: str
    version: int
    signature: str | None
    previous_signature: str | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "pattern_id": self.pattern_id,
            "version": self.version,
            "signature": self.signature,
            "previous_signature": self.previous_signature,
        }


def _diff_events(
    old: StoreSnapshot, new: StoreSnapshot, touched: list[str]
) -> list[PatternEvent]:
    """Lifecycle transitions between two consecutive generations.

    ``touched`` are the ids the build of ``new`` added, changed or
    removed, sorted; no other id can produce an event.  Keyed by
    pattern id, exactly like the build's diff: an id appearing starts
    a flip, one vanishing stops it, and a changed
    signature (the per-level label trajectory — a changed chain
    height always changes it) moves the flip level.
    Support/correlation drift that leaves the trajectory intact is
    *not* an event.  Deterministic order: sorted by pattern id.
    """
    version = new.version
    events: list[PatternEvent] = []
    for pid in touched:
        before = old.get(pid)
        after = new.get(pid)
        if before is None and after is not None:
            events.append(
                PatternEvent(
                    "flip_started", pid, version, after.signature, None
                )
            )
        elif after is None and before is not None:
            events.append(
                PatternEvent(
                    "flip_stopped", pid, version, None, before.signature
                )
            )
        elif (
            before is not None
            and after is not None
            and before.signature != after.signature
        ):
            events.append(
                PatternEvent(
                    "flip_level_changed",
                    pid,
                    version,
                    after.signature,
                    before.signature,
                )
            )
    return events


def pattern_id_of(pattern: FlippingPattern) -> str:
    """Stable identity of a pattern: its leaf item ids joined by ``-``.

    The leaf itemset is what a flipping pattern *is* (the chain is its
    derived trajectory), so the id survives re-mines and incremental
    updates — the same itemset keeps the same id even when supports
    and correlations move.
    """
    return "-".join(str(item) for item in pattern.leaf_link.itemset)


def _id_map(result: MiningResult) -> dict[str, FlippingPattern]:
    incoming: dict[str, FlippingPattern] = {}
    for pattern in result.patterns:
        pid = pattern_id_of(pattern)
        if pid in incoming:
            raise ServeError(
                f"mining result contains two patterns with leaf "
                f"itemset {pid!r}"
            )
        incoming[pid] = pattern
    return incoming


def _same_number(a: Any, b: Any) -> bool:
    """Whether two chain numbers encode to the same JSON text: equal
    values of one type, where NaN equals NaN and ``-0.0`` differs
    from ``0.0``."""
    if type(a) is not type(b):
        return False
    if a == b:
        return a != 0 or math.copysign(1.0, a) == math.copysign(1.0, b)
    return a != a and b != b


def _same_chain(old: FlippingPattern, new: FlippingPattern) -> bool:
    """Whether ``new`` is stored exactly as ``old`` is: true exactly
    when the two chains serialize to the same JSON links."""
    if old is new:
        return True
    if len(old.links) != len(new.links):
        return False
    for a, b in zip(old.links, new.links):
        if a is b:
            continue
        if not (
            a.level == b.level
            and a.itemset == b.itemset
            and a.names == b.names
            and a.label is b.label
            and _same_number(a.support, b.support)
            and _same_number(a.correlation, b.correlation)
        ):
            return False
    return True


def _merge_postings(
    old: dict[_Key, np.ndarray],
    remap: np.ndarray,
    fresh: Iterable[tuple[int, Iterable[_Key]]],
) -> dict[_Key, np.ndarray]:
    """The postings of the next generation.

    ``old`` postings move to new ordinals through ``remap`` (-1 drops
    a row); ``fresh`` adds each ``(ordinal, keys)`` row.  Every
    ``(key, ordinal)`` entry becomes one int64 (key number above bit
    32), so one sort orders all postings by key, then ordinal; each
    key's postings are a read-only slice of the result, and a key
    left without rows is dropped.  The work is a fixed number of
    array calls whatever the number of keys: an array call may
    release the interpreter lock, and a reader thread then holds it
    for a whole switch interval.
    """
    numbered = list(old)
    number = dict(zip(numbered, range(len(numbered))))
    entries: list[int] = []
    for ordinal, keys in fresh:
        for key in keys:
            owner = number.get(key)
            if owner is None:
                owner = number[key] = len(numbered)
                numbered.append(key)
            entries.append(owner << 32 | ordinal)
    parts = [np.array(entries, dtype=np.int64)]
    if old:
        moved = remap[np.concatenate(list(old.values()))]
        owners = np.repeat(
            np.arange(len(old), dtype=np.int64),
            [len(members) for members in old.values()],
        )
        live = moved >= 0
        parts.append(owners[live] << 32 | moved[live])
    merged = np.sort(np.concatenate(parts))
    if not len(merged):
        return {}
    ordinals = _frozen((merged & 0xFFFFFFFF).astype(np.int32))
    owners = merged >> 32
    starts = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()]
    return {
        numbered[owner]: ordinals[start:stop]
        for owner, start, stop in zip(
            owners[starts].tolist(), starts, [*starts[1:], len(merged)]
        )
    }


class _SnapshotBuilder:
    """Assembles the next :class:`StoreSnapshot` from a base
    generation and the incoming id map.

    Every id is classified as added, changed (its chain differs, see
    :func:`_same_chain`), removed or unchanged.  Unchanged rows keep
    the base's pattern object and JSON text and are gathered from the
    base's arrays by their old ordinal; only added and changed
    patterns run the measure getters, are encoded and feed postings.
    A build that adds, changes and removes nothing shares every base
    array and the base's texts.
    """

    def __init__(
        self, base: StoreSnapshot, incoming: dict[str, FlippingPattern]
    ) -> None:
        self._base = base
        self._ids = tuple(sorted(incoming))
        rows: list[FlippingPattern] = []
        #: per new ordinal, the base ordinal an unchanged row comes
        #: from, or -1 for an added or changed row
        sources: list[int] = []
        self.added: list[str] = []
        self.changed: list[str] = []
        base_ordinals, base_rows = base._ordinals, base._rows
        for pid in self._ids:
            pattern = incoming[pid]
            ordinal = base_ordinals.get(pid)
            if ordinal is None:
                self.added.append(pid)
                ordinal = -1
            elif _same_chain(base_rows[ordinal], pattern):
                pattern = base_rows[ordinal]
            else:
                self.changed.append(pid)
                ordinal = -1
            rows.append(pattern)
            sources.append(ordinal)
        self._rows = tuple(rows)
        self._sources = np.array(sources, dtype=np.intp)
        self.removed: list[str] = []
        if len(self._ids) - len(self.added) < len(base):
            self.removed = [pid for pid in base._ids if pid not in incoming]

    @property
    def dirty(self) -> bool:
        return bool(self.added or self.changed or self.removed)

    @property
    def version(self) -> int:
        """The next version: bumped by any content change, and from
        0 by the first build."""
        version = self._base._version
        return version + 1 if self.dirty or version == 0 else version

    @property
    def touched(self) -> list[str]:
        """Added, changed and removed ids, sorted."""
        return sorted(self.added + self.changed + self.removed)

    def diff(self) -> dict[str, int]:
        return {
            "added": len(self.added),
            "changed": len(self.changed),
            "removed": len(self.removed),
            "unchanged": len(self._ids) - len(self.added) - len(self.changed),
            "version": self.version,
        }

    def freeze(self, version: int, config: dict[str, Any]) -> StoreSnapshot:
        base = self._base
        snapshot = StoreSnapshot.__new__(StoreSnapshot)
        if not self.dirty:
            for slot in StoreSnapshot.__slots__:
                setattr(snapshot, slot, getattr(base, slot))
        else:
            self._fill(snapshot)
        snapshot._version = version
        snapshot._config = dict(config)
        return snapshot

    def _fill(self, snapshot: StoreSnapshot) -> None:
        base = self._base
        n = len(self._ids)
        kept = np.flatnonzero(self._sources >= 0)
        origins = self._sources[kept]
        fresh = np.flatnonzero(self._sources < 0)
        fresh_ordinals = fresh.tolist()
        fresh_rows = [self._rows[ordinal] for ordinal in fresh_ordinals]

        # every measure is a row of one matrix, so a gather, a sort or
        # a scatter is one array call for all of them
        measures = np.empty((len(_MEASURES), n), dtype=np.float64)
        measures[:, kept] = base._measures[:, origins]
        measures[:, fresh] = [
            [MEASURE_GETTERS[name](pattern) for pattern in fresh_rows]
            for name in _MEASURES
        ]
        heights = np.empty(n, dtype=np.int32)
        heights[kept] = base._heights[origins]
        heights[fresh] = [pattern.height for pattern in fresh_rows]
        # stable: equal values keep ordinal (= id) order either way
        orders = np.argsort(
            np.concatenate((measures, -measures)), axis=1, kind="stable"
        ).astype(np.int32)
        positions = np.arange(n, dtype=np.int32)
        ranks = np.empty_like(orders)
        ranks[np.arange(len(orders))[:, None], orders] = positions
        shape = (2, len(_MEASURES), n)

        fresh_keys: list[tuple[int, set[_Key]]] = []
        for ordinal, pattern in zip(fresh_ordinals, fresh_rows):
            keys = {
                ("node", name) for link in pattern.links for name in link.names
            }
            keys.update(("item", name) for name in pattern.leaf_names)
            keys.add(("signature", pattern.signature))
            fresh_keys.append((ordinal, keys))
        remap = np.full(len(base), -1, dtype=np.int32)
        remap[origins] = kept
        base_bodies = base._bodies
        bodies = [
            base_bodies[origin] if origin >= 0 else ""
            for origin in self._sources.tolist()
        ]
        for ordinal, pattern in zip(fresh_ordinals, fresh_rows):
            bodies[ordinal] = _body(self._ids[ordinal], pattern)

        snapshot._ids = self._ids
        snapshot._rows = self._rows
        snapshot._bodies = tuple(bodies)
        snapshot._ordinals = dict(zip(self._ids, range(n)))
        snapshot._measures = _frozen(measures)
        snapshot._heights = _frozen(heights)
        snapshot._orders = _frozen(orders.reshape(shape))
        snapshot._ranks = _frozen(ranks.reshape(shape))
        snapshot._postings = _merge_postings(base._postings, remap, fresh_keys)


class StoreSnapshot:
    """One immutable generation of the indexed pattern corpus.

    Never mutated after construction (every array is read-only):
    readers that hold a reference see exactly one consistent
    generation forever, no matter how many newer generations are
    published behind their back.  The snapshot *is* the unit of
    consistency — its :attr:`version` is the value stamped into query
    answers, encoded into pagination cursors and checked by
    ``expect_version``.  :meth:`PatternStore.apply_result` builds the
    next generation beside it.
    """

    __slots__ = (
        "_ids",
        "_rows",
        "_bodies",
        "_ordinals",
        "_measures",
        "_heights",
        "_orders",
        "_ranks",
        "_postings",
        "_version",
        "_config",
    )

    def __init__(self) -> None:
        self._ids: tuple[str, ...] = ()
        self._rows: tuple[FlippingPattern, ...] = ()
        self._bodies: tuple[str, ...] = ()
        self._ordinals: dict[str, int] = {}
        self._measures = _frozen(np.empty((len(_MEASURES), 0)))
        self._heights = _NO_ORDINALS
        self._orders = _frozen(
            np.empty((2, len(_MEASURES), 0), dtype=np.int32)
        )
        self._ranks = self._orders
        self._postings: dict[_Key, np.ndarray] = {}
        self._version = 0
        self._config: dict[str, Any] = {}

    @classmethod
    def empty(cls) -> StoreSnapshot:
        """The version-0 snapshot an unbuilt store starts from."""
        return cls()

    # ------------------------------------------------------------------
    # read access (what the query engine compiles against)
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic content version; bumped by every real change."""
        return self._version

    @property
    def config(self) -> dict[str, Any]:
        """Run configuration of the indexed mining result."""
        return dict(self._config)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, pid: str) -> bool:
        return pid in self._ordinals

    def get(self, pid: str) -> FlippingPattern | None:
        ordinal = self._ordinals.get(pid)
        return None if ordinal is None else self._rows[ordinal]

    def ids(self) -> list[str]:
        """All pattern ids, sorted (the deterministic scan order)."""
        return list(self._ids)

    def items(self) -> Iterator[tuple[str, FlippingPattern]]:
        return zip(self._ids, self._rows)

    def ids_at(self, ordinals: np.ndarray) -> list[str]:
        """The ids at ``ordinals``, in their order."""
        ids = self._ids
        return [ids[ordinal] for ordinal in ordinals.tolist()]

    def patterns_at(self, ordinals: np.ndarray) -> list[FlippingPattern]:
        """The patterns at ``ordinals``, in their order."""
        rows = self._rows
        return [rows[ordinal] for ordinal in ordinals.tolist()]

    def body(self, pid: str) -> str | None:
        """The JSON text of pattern ``pid`` (``None``: no such id)."""
        ordinal = self._ordinals.get(pid)
        return None if ordinal is None else self._bodies[ordinal]

    def bodies_at(self, ordinals: np.ndarray) -> list[str]:
        """The JSON texts of the patterns at ``ordinals``, in their
        order."""
        bodies = self._bodies
        return [bodies[ordinal] for ordinal in ordinals.tolist()]

    def item_ordinals(self, name: str) -> np.ndarray:
        """Ascending ordinals of the patterns whose *leaf* itemset
        contains the item ``name``."""
        return self._postings.get(("item", name), _NO_ORDINALS)

    def node_ordinals(self, name: str) -> np.ndarray:
        """Ascending ordinals of the patterns touching taxonomy node
        ``name`` at any chain level."""
        return self._postings.get(("node", name), _NO_ORDINALS)

    def signature_ordinals(self, signature: str) -> np.ndarray:
        """Ascending ordinals of the patterns with label trajectory
        ``signature``."""
        return self._postings.get(("signature", signature), _NO_ORDINALS)

    def height_mask(self, lo: int | None, hi: int | None) -> np.ndarray:
        """Per ordinal, whether the chain height is in ``[lo, hi]``."""
        return _within(self._heights, lo, hi)

    def measure_mask(
        self, measure: str, lo: float | None, hi: float | None
    ) -> np.ndarray:
        """Per ordinal, whether ``measure`` is in ``[lo, hi]``."""
        return _within(
            self._measures[_MEASURE_ROW[measure]],
            _column_bound(lo),
            _column_bound(hi),
        )

    def order(
        self, measure: str, descending: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(order, rank)`` of ``measure``: the ordinals sorted by
        value (ties by id) and each ordinal's position in that
        order."""
        key = (int(descending), _MEASURE_ROW[measure])
        return self._orders[key], self._ranks[key]

    def item_postings(self, name: str) -> set[str]:
        """Patterns whose *leaf* itemset contains the item ``name``."""
        return set(self.ids_at(self.item_ordinals(name)))

    def node_postings(self, name: str) -> set[str]:
        """Patterns touching taxonomy node ``name`` at any chain level."""
        return set(self.ids_at(self.node_ordinals(name)))

    def signature_postings(self, signature: str) -> set[str]:
        return set(self.ids_at(self.signature_ordinals(signature)))

    def height_postings(self, lo: int | None, hi: int | None) -> set[str]:
        return set(self.ids_at(np.flatnonzero(self.height_mask(lo, hi))))

    def range_bounds(
        self, measure: str, lo: float | None, hi: float | None
    ) -> tuple[int, int]:
        """``[left, right)`` slice of the ascending ``measure`` order
        holding values in the inclusive ``[lo, hi]`` range."""
        order, _ = self.order(measure, False)
        values = self._measures[_MEASURE_ROW[measure]][order]
        lo, hi = _column_bound(lo), _column_bound(hi)
        left = 0 if lo is None else int(np.searchsorted(values, lo, "left"))
        right = (
            len(values)
            if hi is None
            else int(np.searchsorted(values, hi, "right"))
        )
        return left, max(left, right)

    def range_postings(
        self, measure: str, lo: float | None, hi: float | None
    ) -> set[str]:
        left, right = self.range_bounds(measure, lo, hi)
        order, _ = self.order(measure, False)
        return set(self.ids_at(order[left:right]))

    def measure_value(self, measure: str, pid: str) -> float:
        row = _MEASURE_ROW[measure]
        return float(self._measures[row, self._ordinals[pid]])

    def require_version(self, expected: int) -> None:
        """Fail loudly when a reader pinned a different generation."""
        if expected != self._version:
            raise ServeError(
                f"stale store version: reader expected {expected}, "
                f"store is at {self._version}"
            )

    def stats(self) -> dict[str, Any]:
        """Index shape summary (the ``/v1/stats`` endpoint payload)."""
        heights, counts = np.unique(self._heights, return_counts=True)
        families = Counter(family for family, _ in self._postings)
        signatures = sorted(
            key for family, key in self._postings if family == "signature"
        )
        return {
            "version": self._version,
            "n_patterns": len(self._ids),
            "n_items_indexed": families["item"],
            "n_nodes_indexed": families["node"],
            "signatures": {
                signature: len(self.signature_ordinals(signature))
                for signature in signatures
            },
            "heights": {
                str(height): count
                for height, count in zip(heights.tolist(), counts.tolist())
            },
            "measures": sorted(MEASURE_GETTERS),
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the snapshot as one JSON document, atomically.

        ``path`` may be a directory (the file lands at
        ``path/pattern_store.json``, next to a shard manifest) or an
        explicit file path.  Returns the file written.
        """
        target = _store_file(path)
        payload = {
            "format": STORE_FORMAT,
            "format_version": STORE_FORMAT_VERSION,
            "store_version": self._version,
            "config": self._config,
            "patterns": [
                [_link_to_dict(link) for link in pattern.links]
                for _, pattern in self.items()
            ],
        }
        atomic_write_json(payload, target)
        return target


class PatternStore:
    """Patterns behind a columnar index of postings, measure columns
    and orders.

    A thin mutable facade over an immutable :class:`StoreSnapshot`:
    every read delegates to the *current* snapshot, and
    :meth:`apply_result` builds the next generation off to the side
    and publishes it with one atomic reference swap.  Concurrent
    readers therefore never block and never see a half-applied
    reindex — they either got the old snapshot or the new one.

    Build one with :meth:`build` (from a ``MiningResult``),
    :meth:`from_archive` (from a ``save_result`` JSON file) or
    :meth:`open` (from a saved store); keep it fresh with
    :meth:`apply_result`; pin a consistent generation with
    :meth:`snapshot`.

    Every :meth:`apply_result` that publishes a new generation also
    diffs it against the previous one into flip lifecycle
    :class:`PatternEvent` s, kept in a bounded ring of the newest
    ``event_capacity`` events.  :meth:`events_since` drains the ring
    from a version cursor; :meth:`wait_for_events` blocks until
    something newer arrives (the long-poll primitive behind
    ``GET /v1/events``).  Events older than the ring reports as
    *truncated*, never silently skipped.
    """

    #: default bounded-ring capacity (events, not generations)
    DEFAULT_EVENT_CAPACITY = 1024

    def __init__(self, *, event_capacity: int | None = None) -> None:
        if event_capacity is None:
            event_capacity = self.DEFAULT_EVENT_CAPACITY
        if event_capacity < 1:
            raise ConfigError(
                f"event_capacity must be >= 1, got {event_capacity}"
            )
        self._snap = StoreSnapshot.empty()
        #: monotonic instant the current snapshot was published;
        #: rebound together with ``_snap`` at every swap site
        self._published_at = time.monotonic()
        self._event_capacity = event_capacity
        #: newest-last ring of lifecycle events; guarded (with the
        #: drop bookkeeping) by the condition below
        self._events: list[PatternEvent] = []
        self._events_cond = threading.Condition()
        #: highest version among events dropped off the ring — polls
        #: whose cursor predates it are answered as truncated
        self._dropped_through = 0
        self.events_dropped = 0
        registry = default_registry()
        self._m_events = registry.counter(catalog.EVENTS_EMITTED)
        self._m_events_dropped = registry.counter(catalog.EVENTS_DROPPED)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, result: MiningResult) -> "PatternStore":
        """Index a mining result (store version starts at 1)."""
        store = cls()
        store.apply_result(result)
        return store

    @classmethod
    def from_archive(cls, path: str | Path) -> "PatternStore":
        """Index a :func:`~repro.core.serialize.save_result` archive."""
        return cls.build(load_result(path))

    @classmethod
    def open(cls, path: str | Path) -> "PatternStore":
        """Reopen a store written by :meth:`save`.

        ``path`` may be the store file itself or a directory holding
        ``pattern_store.json`` (the shard-store convention).
        """
        target = _store_file(path)
        try:
            raw = json.loads(target.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ServeError(f"no such pattern store: {target}") from None
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"{target} is not a valid pattern store: {exc}"
            ) from None
        if not isinstance(raw, dict) or raw.get("format") != STORE_FORMAT:
            raise ServeError(
                f"{target} is not a {STORE_FORMAT} document "
                f"(format={raw.get('format') if isinstance(raw, dict) else None!r})"
            )
        file_version = raw.get("format_version")
        if file_version != STORE_FORMAT_VERSION:
            raise ServeError(
                f"{target}: unsupported pattern-store format version "
                f"{file_version!r} (this build reads version "
                f"{STORE_FORMAT_VERSION})"
            )
        incoming: dict[str, FlippingPattern] = {}
        for chain in raw.get("patterns", []):
            pattern = FlippingPattern(
                links=tuple(_link_from_dict(link) for link in chain)
            )
            pid = pattern_id_of(pattern)
            if pid in incoming:
                raise ServeError(f"{target}: duplicate pattern id {pid!r}")
            incoming[pid] = pattern
        store = cls()
        store._snap = _SnapshotBuilder(store._snap, incoming).freeze(
            int(raw.get("store_version", 1)), dict(raw.get("config", {}))
        )
        store._published_at = time.monotonic()
        return store

    # ------------------------------------------------------------------
    # snapshots and indexing
    # ------------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """Pin the current generation (a plain reference read).

        The returned snapshot is immutable: serve a whole request —
        or a whole paginated session — from it and every answer is
        internally consistent, regardless of concurrent
        :meth:`apply_result` swaps.
        """
        return self._snap

    def apply_result(self, result: MiningResult) -> dict[str, int]:
        """Re-point the store at ``result``, reindexing only changes.

        Patterns are diffed by id and chain: unchanged patterns keep
        their rows, changed ones are re-read, and ids absent from
        ``result`` are dropped.  The version is bumped exactly when
        content changed, so an empty diff (e.g. a ``noop``
        incremental update) keeps cached query results valid and
        shares every array.  The next snapshot is built off to the
        side (readers keep serving the old one throughout) and
        published with a single reference assignment — atomic under
        the GIL, so a concurrent :meth:`snapshot` pin gets either the
        old generation or the new one, never a mix.  The ids the
        build touched are also diffed into lifecycle events in the
        ring (waking long-pollers).  Returns the diff counts.
        """
        old = self._snap
        builder = _SnapshotBuilder(old, _id_map(result))
        snapshot = builder.freeze(builder.version, result.config)
        events = (
            _diff_events(old, snapshot, builder.touched)
            if snapshot.version != old.version
            else []
        )
        with self._events_cond:
            self._snap = snapshot
            self._published_at = time.monotonic()
            if events:
                self._events.extend(events)
                overflow = len(self._events) - self._event_capacity
                if overflow > 0:
                    dropped = self._events[:overflow]
                    del self._events[:overflow]
                    self._dropped_through = dropped[-1].version
                    self.events_dropped += overflow
                    self._m_events_dropped.inc(overflow)
                for event in events:
                    self._m_events.inc(type=event.type)
                self._events_cond.notify_all()
        return builder.diff()

    # ------------------------------------------------------------------
    # lifecycle events (the ``/v1/events`` long-poll primitive)
    # ------------------------------------------------------------------

    @property
    def event_capacity(self) -> int:
        """Bounded-ring capacity (oldest events beyond it are dropped
        and reported as truncation)."""
        return self._event_capacity

    def events_since(
        self, since_version: int, limit: int | None = None
    ) -> tuple[list[PatternEvent], bool]:
        """Events of generations newer than ``since_version``.

        Returns ``(events, truncated)``; ``truncated`` is ``True``
        when events the cursor should have seen already fell off the
        ring (the consumer must resynchronize from a full
        ``/v1/patterns`` read).  ``limit`` caps the answer but never
        splits one generation's events across polls — resuming with
        ``since_version=<last event's version>`` is always lossless.
        """
        with self._events_cond:
            truncated = since_version < self._dropped_through
            events = [
                event
                for event in self._events
                if event.version > since_version
            ]
        if limit is not None and len(events) > limit:
            end = limit
            while (
                end < len(events)
                and events[end].version == events[limit - 1].version
            ):
                end += 1
            events = events[:end]
        return events, truncated

    def wait_for_events(
        self,
        since_version: int,
        timeout: float,
        limit: int | None = None,
    ) -> tuple[list[PatternEvent], bool]:
        """Long-poll :meth:`events_since`: block until an event newer
        than ``since_version`` exists (or truncation must be
        reported), at most ``timeout`` seconds.  A timeout returns
        ``([], False)`` — the caller's cursor is simply still
        current."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._events_cond:
            while True:
                if since_version < self._dropped_through:
                    break
                if any(
                    event.version > since_version
                    for event in self._events
                ):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._events_cond.wait(remaining)
        return self.events_since(since_version, limit)

    # ------------------------------------------------------------------
    # read access — delegates to the current snapshot
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic content version; bumped by every real change."""
        return self._snap.version

    @property
    def snapshot_age_seconds(self) -> float:
        """Seconds since the current snapshot was published."""
        return time.monotonic() - self._published_at

    @property
    def config(self) -> dict[str, Any]:
        """Run configuration of the indexed mining result."""
        return self._snap.config

    def __len__(self) -> int:
        return len(self._snap)

    def __contains__(self, pid: str) -> bool:
        return pid in self._snap

    def get(self, pid: str) -> FlippingPattern | None:
        return self._snap.get(pid)

    def ids(self) -> list[str]:
        """All pattern ids, sorted (the deterministic scan order)."""
        return self._snap.ids()

    def items(self) -> Iterator[tuple[str, FlippingPattern]]:
        return self._snap.items()

    def item_postings(self, name: str) -> set[str]:
        """Patterns whose *leaf* itemset contains the item ``name``."""
        return self._snap.item_postings(name)

    def node_postings(self, name: str) -> set[str]:
        """Patterns touching taxonomy node ``name`` at any chain level."""
        return self._snap.node_postings(name)

    def signature_postings(self, signature: str) -> set[str]:
        return self._snap.signature_postings(signature)

    def height_postings(self, lo: int | None, hi: int | None) -> set[str]:
        return self._snap.height_postings(lo, hi)

    def range_bounds(
        self, measure: str, lo: float | None, hi: float | None
    ) -> tuple[int, int]:
        return self._snap.range_bounds(measure, lo, hi)

    def range_postings(
        self, measure: str, lo: float | None, hi: float | None
    ) -> set[str]:
        return self._snap.range_postings(measure, lo, hi)

    def measure_value(self, measure: str, pid: str) -> float:
        return self._snap.measure_value(measure, pid)

    def require_version(self, expected: int) -> None:
        """Fail loudly when a reader pinned a different generation."""
        self._snap.require_version(expected)

    def stats(self) -> dict[str, Any]:
        """Index shape summary (the ``/v1/stats`` endpoint payload)."""
        return self._snap.stats()

    def save(self, path: str | Path) -> Path:
        """Write the current snapshot as one JSON document, atomically."""
        return self._snap.save(path)


def _store_file(path: str | Path) -> Path:
    target = Path(path)
    if target.is_dir():
        return target / STORE_FILE_NAME
    return target
