"""Indexed, persistent store of mined flipping patterns.

The serving-side counterpart of a
:class:`~repro.core.patterns.MiningResult`: the same patterns, but
held behind inverted indexes so queries resolve through posting-list
intersections instead of linear scans.  Four index families are
maintained:

* **item → patterns** — leaf (level-H) item names;
* **node → patterns** — every taxonomy node appearing at *any* chain
  level, which is exactly the descendant-or-self relation restricted
  to the pattern's generalization path;
* **signature → patterns** — the label trajectory (e.g. ``+-+``);
* **height → patterns** — chain length, for level-range filters;

plus one sorted ``(value, pattern_id)`` array per serving measure
(leaf correlation/support and the three flip-sharpness gaps), giving
``O(log n)`` range scans through :mod:`bisect`.

Since the lock-free serving redesign the indexes live in an
**immutable** :class:`StoreSnapshot`.  A snapshot never changes after
it is built; :meth:`StoreSnapshot.with_result` diffs an updated
:class:`MiningResult` against what is indexed and builds the *next*
snapshot copy-on-write — unchanged posting lists and measure arrays
are shared structurally between generations, only touched entries are
copied.  :class:`PatternStore` is the mutable facade the rest of the
system holds on to: it keeps a reference to the current snapshot and
:meth:`PatternStore.apply_result` publishes the next generation with
a single atomic reference swap.  Readers pin one snapshot
(:meth:`PatternStore.snapshot`) and serve their whole request from
it, so no read ever takes a lock, never observes a torn index, and
``expect_version``/409 semantics fall out of snapshot identity.

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

import bisect
import json
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

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

#: serving measures with a sorted array each: name -> value getter
MEASURE_GETTERS: dict[str, Callable[[FlippingPattern], float]] = {
    "correlation": lambda p: p.leaf_link.correlation,
    "support": lambda p: float(p.leaf_link.support),
    "min_gap": lambda p: p.min_gap,
    "max_gap": lambda p: p.max_gap,
    "mean_gap": lambda p: p.mean_gap,
}

#: sorts above every pattern id in tuple comparisons (ids are ASCII)
_ID_CEILING = "\U0010ffff"


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
    old: "StoreSnapshot", new: "StoreSnapshot"
) -> list[PatternEvent]:
    """Lifecycle transitions between two consecutive generations.

    Keyed by pattern id (the leaf itemset), exactly like
    :meth:`StoreSnapshot.with_result`: an id appearing starts a flip,
    one vanishing stops it, and a changed signature (the per-level
    label trajectory — a changed chain height always changes it)
    moves the flip level.  Support/correlation drift that leaves the
    trajectory intact is *not* an event.  Deterministic order: sorted
    by pattern id.
    """
    version = new.version
    events: list[PatternEvent] = []
    ids = set(old.ids()) | set(new.ids())
    for pid in sorted(ids):
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


class _SnapshotBuilder:
    """Mutable scratch space that produces one :class:`StoreSnapshot`.

    Built either empty (a from-scratch index) or on top of an existing
    snapshot, in which case the top-level dicts are shallow copies and
    each posting set / sorted array is copied at most once, the first
    time this build touches it (copy-on-write with structural sharing:
    untouched entries remain the *same objects* as the base
    snapshot's, which is what keeps generation swaps cheap when a
    delta changes a handful of patterns out of millions).
    """

    def __init__(self, base: StoreSnapshot | None = None) -> None:
        if base is None:
            self._patterns: dict[str, FlippingPattern] = {}
            self._fingerprints: dict[str, str] = {}
            self._by_item: dict[str, set[str]] = {}
            self._by_node: dict[str, set[str]] = {}
            self._by_signature: dict[str, set[str]] = {}
            self._by_height: dict[int, set[str]] = {}
            self._sorted: dict[str, list[tuple[float, str]]] = {
                name: [] for name in MEASURE_GETTERS
            }
        else:
            self._patterns = dict(base._patterns)
            self._fingerprints = dict(base._fingerprints)
            self._by_item = dict(base._by_item)
            self._by_node = dict(base._by_node)
            self._by_signature = dict(base._by_signature)
            self._by_height = dict(base._by_height)
            self._sorted = dict(base._sorted)
        # sets created (and therefore safely mutable) in THIS build;
        # everything else may be shared with the base snapshot.  The
        # builder holds references to every owned set via the index
        # dicts, so the ids stay unique for the build's lifetime.
        self._owned: set[int] = set()
        self._owned_arrays: set[str] = set()

    # -- copy-on-write primitives --------------------------------------

    def _posting_add(self, index: dict, key: Any, pid: str) -> None:
        postings = index.get(key)
        if postings is None:
            postings = {pid}
            index[key] = postings
            self._owned.add(id(postings))
            return
        if id(postings) not in self._owned:
            postings = set(postings)
            index[key] = postings
            self._owned.add(id(postings))
        postings.add(pid)

    def _posting_discard(self, index: dict, key: Any, pid: str) -> None:
        postings = index.get(key)
        if postings is None:
            return
        if id(postings) not in self._owned:
            postings = set(postings)
            index[key] = postings
            self._owned.add(id(postings))
        postings.discard(pid)
        if not postings:
            del index[key]

    def _array(self, name: str) -> list[tuple[float, str]]:
        if name not in self._owned_arrays:
            self._sorted[name] = list(self._sorted[name])
            self._owned_arrays.add(name)
        return self._sorted[name]

    # -- pattern-level operations --------------------------------------

    def __contains__(self, pid: str) -> bool:
        return pid in self._patterns

    def insert(
        self,
        pid: str,
        pattern: FlippingPattern,
        fingerprint: str | None = None,
    ) -> None:
        self._patterns[pid] = pattern
        self._fingerprints[pid] = fingerprint or _fingerprint(pattern)
        for name in pattern.leaf_names:
            self._posting_add(self._by_item, name, pid)
        for link in pattern.links:
            for name in link.names:
                self._posting_add(self._by_node, name, pid)
        self._posting_add(self._by_signature, pattern.signature, pid)
        self._posting_add(self._by_height, pattern.height, pid)
        for name, getter in MEASURE_GETTERS.items():
            bisect.insort(self._array(name), (getter(pattern), pid))

    def remove(self, pid: str) -> None:
        pattern = self._patterns.pop(pid)
        del self._fingerprints[pid]
        for name in pattern.leaf_names:
            self._posting_discard(self._by_item, name, pid)
        for link in pattern.links:
            for name in link.names:
                self._posting_discard(self._by_node, name, pid)
        self._posting_discard(self._by_signature, pattern.signature, pid)
        self._posting_discard(self._by_height, pattern.height, pid)
        for name, getter in MEASURE_GETTERS.items():
            entry = (getter(pattern), pid)
            array = self._array(name)
            index = bisect.bisect_left(array, entry)
            if index < len(array) and array[index] == entry:
                del array[index]

    def fingerprint_of(self, pid: str) -> str:
        return self._fingerprints[pid]

    def freeze(self, version: int, config: dict[str, Any]) -> "StoreSnapshot":
        snapshot = StoreSnapshot.__new__(StoreSnapshot)
        snapshot._patterns = self._patterns
        snapshot._fingerprints = self._fingerprints
        snapshot._by_item = self._by_item
        snapshot._by_node = self._by_node
        snapshot._by_signature = self._by_signature
        snapshot._by_height = self._by_height
        snapshot._sorted = self._sorted
        snapshot._ids = tuple(sorted(self._patterns))
        snapshot._version = version
        snapshot._config = dict(config)
        return snapshot


class StoreSnapshot:
    """One immutable generation of the indexed pattern corpus.

    Never mutated after construction: readers that hold a reference
    see exactly one consistent generation forever, no matter how many
    newer generations are published behind their back.  The snapshot
    *is* the unit of consistency — its :attr:`version` is the value
    stamped into query answers, encoded into pagination cursors and
    checked by ``expect_version``.

    Build the next generation with :meth:`with_result`; it returns a
    brand-new snapshot (plus the reindex diff) and leaves ``self``
    untouched.
    """

    __slots__ = (
        "_patterns",
        "_fingerprints",
        "_by_item",
        "_by_node",
        "_by_signature",
        "_by_height",
        "_sorted",
        "_ids",
        "_version",
        "_config",
    )

    def __init__(self) -> None:
        empty = _SnapshotBuilder()
        frozen = empty.freeze(0, {})
        for slot in StoreSnapshot.__slots__:
            setattr(self, slot, getattr(frozen, slot))

    @classmethod
    def empty(cls) -> "StoreSnapshot":
        """The version-0 snapshot an unbuilt store starts from."""
        return cls()

    # ------------------------------------------------------------------
    # building the next generation
    # ------------------------------------------------------------------

    def with_result(
        self, result: MiningResult
    ) -> tuple["StoreSnapshot", dict[str, int]]:
        """Index ``result`` as the next generation, copy-on-write.

        Patterns are diffed by id and chain fingerprint: unchanged
        patterns keep their index entries (shared with this
        snapshot), changed ones are removed and re-inserted, and ids
        absent from ``result`` are dropped.  The version is bumped
        exactly when content changed, so an empty diff (e.g. a
        ``noop`` incremental update) keeps cached query results
        valid.  Returns ``(next_snapshot, diff_counts)``; ``self`` is
        not modified.
        """
        incoming: dict[str, FlippingPattern] = {}
        for pattern in result.patterns:
            pid = pattern_id_of(pattern)
            if pid in incoming:
                raise ServeError(
                    f"mining result contains two patterns with leaf "
                    f"itemset {pid!r}"
                )
            incoming[pid] = pattern
        builder = _SnapshotBuilder(self)
        added = changed = unchanged = 0
        removed_ids = [pid for pid in self._patterns if pid not in incoming]
        for pid in removed_ids:
            builder.remove(pid)
        for pid, pattern in incoming.items():
            fingerprint = _fingerprint(pattern)
            if pid not in builder:
                builder.insert(pid, pattern, fingerprint)
                added += 1
            elif builder.fingerprint_of(pid) != fingerprint:
                builder.remove(pid)
                builder.insert(pid, pattern, fingerprint)
                changed += 1
            else:
                unchanged += 1
        dirty = bool(added or changed or removed_ids)
        version = self._version
        if dirty or version == 0:
            version += 1
        snapshot = builder.freeze(version, dict(result.config))
        return snapshot, {
            "added": added,
            "changed": changed,
            "removed": len(removed_ids),
            "unchanged": unchanged,
            "version": version,
        }

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
        return len(self._patterns)

    def __contains__(self, pid: str) -> bool:
        return pid in self._patterns

    def get(self, pid: str) -> FlippingPattern | None:
        return self._patterns.get(pid)

    def ids(self) -> list[str]:
        """All pattern ids, sorted (the deterministic scan order)."""
        return list(self._ids)

    def items(self) -> Iterator[tuple[str, FlippingPattern]]:
        for pid in self._ids:
            yield pid, self._patterns[pid]

    def item_postings(self, name: str) -> set[str]:
        """Patterns whose *leaf* itemset contains the item ``name``."""
        return set(self._by_item.get(name, ()))

    def node_postings(self, name: str) -> set[str]:
        """Patterns touching taxonomy node ``name`` at any chain level."""
        return set(self._by_node.get(name, ()))

    def signature_postings(self, signature: str) -> set[str]:
        return set(self._by_signature.get(signature, ()))

    def height_postings(self, lo: int | None, hi: int | None) -> set[str]:
        found: set[str] = set()
        for height, pids in self._by_height.items():
            if lo is not None and height < lo:
                continue
            if hi is not None and height > hi:
                continue
            found |= pids
        return found

    def height_estimate(self, lo: int | None, hi: int | None) -> int:
        return sum(
            len(pids)
            for height, pids in self._by_height.items()
            if (lo is None or height >= lo) and (hi is None or height <= hi)
        )

    def range_bounds(
        self, measure: str, lo: float | None, hi: float | None
    ) -> tuple[int, int]:
        """``[left, right)`` slice of the sorted ``measure`` array
        holding values in the inclusive ``[lo, hi]`` range."""
        array = self._sorted[measure]
        left = 0 if lo is None else bisect.bisect_left(array, (float(lo), ""))
        right = (
            len(array)
            if hi is None
            else bisect.bisect_right(array, (float(hi), _ID_CEILING))
        )
        return left, max(left, right)

    def range_postings(
        self, measure: str, lo: float | None, hi: float | None
    ) -> set[str]:
        left, right = self.range_bounds(measure, lo, hi)
        return {pid for _, pid in self._sorted[measure][left:right]}

    def measure_value(self, measure: str, pid: str) -> float:
        return MEASURE_GETTERS[measure](self._patterns[pid])

    def require_version(self, expected: int) -> None:
        """Fail loudly when a reader pinned a different generation."""
        if expected != self._version:
            raise ServeError(
                f"stale store version: reader expected {expected}, "
                f"store is at {self._version}"
            )

    def stats(self) -> dict[str, Any]:
        """Index shape summary (the ``/v1/stats`` endpoint payload)."""
        return {
            "version": self._version,
            "n_patterns": len(self._patterns),
            "n_items_indexed": len(self._by_item),
            "n_nodes_indexed": len(self._by_node),
            "signatures": {
                signature: len(pids)
                for signature, pids in sorted(self._by_signature.items())
            },
            "heights": {
                str(height): len(pids)
                for height, pids in sorted(self._by_height.items())
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
    """Patterns behind inverted indexes and sorted measure arrays.

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
        builder = _SnapshotBuilder()
        for chain in raw.get("patterns", []):
            pattern = FlippingPattern(
                links=tuple(_link_from_dict(link) for link in chain)
            )
            pid = pattern_id_of(pattern)
            if pid in builder:
                raise ServeError(f"{target}: duplicate pattern id {pid!r}")
            builder.insert(pid, pattern)
        store = cls()
        store._snap = builder.freeze(
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

        Builds the next snapshot copy-on-write (readers keep serving
        the old one throughout) and publishes it with a single
        reference assignment — atomic under the GIL, so a concurrent
        :meth:`snapshot` pin gets either the old generation or the
        new one, never a mix.  The generation diff is also emitted as
        lifecycle events into the ring (waking long-pollers).
        Returns the diff counts.
        """
        old = self._snap
        snapshot, diff = old.with_result(result)
        events = (
            _diff_events(old, snapshot)
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
        return diff

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

    def height_estimate(self, lo: int | None, hi: int | None) -> int:
        return self._snap.height_estimate(lo, hi)

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


def _fingerprint(pattern: FlippingPattern) -> str:
    return json.dumps(
        [_link_to_dict(link) for link in pattern.links], sort_keys=True
    )
