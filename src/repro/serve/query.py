"""Composable queries over a :class:`~repro.serve.store.PatternStore`.

A :class:`Query` is a frozen dataclass of optional filters —
contains-items, under-taxonomy-node, chain-height range, correlation
and support bounds, label signature — plus ordering (sort-by measure,
ascending/descending) and pagination (offset, limit).  Being frozen
and normalized it doubles as a cache key.

:class:`QueryEngine` answers a query with NumPy operations over the
snapshot's columnar index.  Every filter is a candidate source with a
size: a posting array (item, node, signature) or a mask over all
ordinals (height and measure bounds).  The smallest source seeds the
candidate ordinals; every other filter tests the candidates, posting
membership by ``searchsorted`` and bounds by column compares.  Each
source realizes its filter exactly, so the answer is always what
:func:`linear_scan`, the index-free reference used by the parity
tests and the ``serve-read`` benchmark, returns.  The page is the
measure's order at the first sorted ranks of the matches:
``order[np.sort(rank[matched])[offset:offset + limit]]``.

Every execution *pins* one immutable
:class:`~repro.serve.store.StoreSnapshot` up front and compiles,
orders and paginates entirely against it, so a concurrent snapshot
swap mid-query can never mix two generations into one answer.
Results are stamped with the pinned snapshot's version, and an LRU
cache keyed by ``(snapshot version, query)`` makes repeated queries
free until the next content change (a new version changes every key,
so invalidation is structural).  Readers that pinned a version — e.g.
a paginating HTTP client — pass ``expect_version`` and fail loudly on
mismatch instead of silently mixing generations.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from repro.core.patterns import FlippingPattern
from repro.errors import ConfigError
from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.serve.store import MEASURE_GETTERS, PatternStore, StoreSnapshot

__all__ = [
    "Query",
    "PlanStep",
    "QueryPlan",
    "QueryResult",
    "QueryEngine",
    "matches",
    "linear_scan",
]

#: label symbols that may appear in a signature filter
_SIGNATURE_SYMBOLS = set("+-.x")


@dataclass(frozen=True)
class Query:
    """One pattern query; every filter is optional and they compose.

    ``contains_items`` are leaf item *names* (all must appear in the
    pattern's leaf itemset); ``under_node`` is a taxonomy node name
    matched at any chain level; ``signature`` is the label trajectory
    (e.g. ``"+-+"``); correlation/support bounds apply to the leaf
    link; ``min_height``/``max_height`` bound the chain length.
    Ordering is by ``sort_by`` (one of the serving measures) with
    pattern id as the deterministic tie-break; ``offset``/``limit``
    paginate the ordered matches.
    """

    contains_items: tuple[str, ...] = ()
    under_node: str | None = None
    min_height: int | None = None
    max_height: int | None = None
    signature: str | None = None
    min_correlation: float | None = None
    max_correlation: float | None = None
    min_support: int | None = None
    max_support: int | None = None
    sort_by: str = "correlation"
    descending: bool = True
    limit: int | None = None
    offset: int = 0

    def __post_init__(self) -> None:
        items = tuple(sorted({str(name) for name in self.contains_items}))
        object.__setattr__(self, "contains_items", items)
        if self.sort_by not in MEASURE_GETTERS:
            known = ", ".join(sorted(MEASURE_GETTERS))
            raise ConfigError(
                f"unknown sort measure {self.sort_by!r} (known: {known})"
            )
        if self.signature is not None:
            bad = set(self.signature) - _SIGNATURE_SYMBOLS
            if not self.signature or bad:
                raise ConfigError(
                    f"signature {self.signature!r} must be a non-empty "
                    "string of label symbols (+ - . x)"
                )
        for name in ("min_height", "max_height"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in ("min_correlation", "max_correlation"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.offset < 0:
            raise ConfigError(f"offset must be >= 0, got {self.offset}")
        if self.limit is not None and self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")

    @property
    def is_unfiltered(self) -> bool:
        return not (
            self.contains_items
            or self.under_node is not None
            or self.min_height is not None
            or self.max_height is not None
            or self.signature is not None
            or self.min_correlation is not None
            or self.max_correlation is not None
            or self.min_support is not None
            or self.max_support is not None
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default and spec.name != "contains_items":
                out[spec.name] = value
        if self.contains_items:
            out["contains_items"] = list(self.contains_items)
        return out


def matches(pattern: FlippingPattern, query: Query) -> bool:
    """The full predicate; the single source of filter semantics."""
    if query.contains_items:
        leaf = set(pattern.leaf_names)
        if not leaf.issuperset(query.contains_items):
            return False
    if query.under_node is not None and not any(
        query.under_node in link.names for link in pattern.links
    ):
        return False
    if query.min_height is not None and pattern.height < query.min_height:
        return False
    if query.max_height is not None and pattern.height > query.max_height:
        return False
    if query.signature is not None and pattern.signature != query.signature:
        return False
    leaf_link = pattern.leaf_link
    if (
        query.min_correlation is not None
        and leaf_link.correlation < query.min_correlation
    ):
        return False
    if (
        query.max_correlation is not None
        and leaf_link.correlation > query.max_correlation
    ):
        return False
    if query.min_support is not None and leaf_link.support < query.min_support:
        return False
    if query.max_support is not None and leaf_link.support > query.max_support:
        return False
    return True


@dataclass(frozen=True)
class PlanStep:
    """One candidate source and how the plan used it."""

    source: str  #: e.g. ``item:milk``, ``range:correlation``
    estimate: int  #: how many patterns the filter alone matches
    action: str  #: ``seed`` | ``intersect``


@dataclass(frozen=True)
class QueryPlan:
    steps: tuple[PlanStep, ...]

    def describe(self) -> str:
        if not self.steps:
            return "full scan (no index-backed filters)"
        return " -> ".join(
            f"{step.action} {step.source} (~{step.estimate})"
            for step in self.steps
        )


@dataclass
class QueryResult:
    """Ordered, paginated matches stamped with the store version."""

    store_version: int
    query: Query
    total: int  #: matches before pagination
    ids: list[str]
    patterns: list[FlippingPattern]
    plan: QueryPlan | None = None
    cached: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "store_version": self.store_version,
            "query": self.query.to_dict(),
            "total": self.total,
            "offset": self.query.offset,
            "count": len(self.ids),
            "patterns": [
                dict(pattern.to_dict(), id=pid)
                for pid, pattern in zip(self.ids, self.patterns)
            ],
        }


def _pin(source: PatternStore | StoreSnapshot) -> StoreSnapshot:
    """One immutable generation to serve a whole request from."""
    if isinstance(source, PatternStore):
        return source.snapshot()
    return source


def linear_scan(
    store: PatternStore | StoreSnapshot, query: Query
) -> QueryResult:
    """Brute-force reference: test every pattern, no indexes.

    The parity oracle for the query engine and the baseline the serve
    bench measures the indexes against.  Orders by the measure (value
    descending or ascending), ties by pattern id.
    """
    snap = _pin(store)
    getter = MEASURE_GETTERS[query.sort_by]
    # negation is order-exact: measure values are finite floats
    sign = -1.0 if query.descending else 1.0
    ranked = sorted(
        (sign * getter(pattern), pid)
        for pid, pattern in snap.items()
        if matches(pattern, query)
    )
    stop = None if query.limit is None else query.offset + query.limit
    page = [pid for _, pid in ranked[query.offset : stop]]
    return QueryResult(
        store_version=snap.version,
        query=query,
        total=len(ranked),
        ids=page,
        patterns=[snap.get(pid) for pid in page],  # type: ignore[misc]
    )


def _sources(
    store: StoreSnapshot, query: Query
) -> list[tuple[str, np.ndarray]]:
    """Each filter as ``(name, rows)``: ascending ordinals for a
    posting, a mask over every ordinal for a bound."""
    sources = [
        (f"item:{name}", store.item_ordinals(name))
        for name in query.contains_items
    ]
    if query.under_node is not None:
        sources.append(
            (
                f"node:{query.under_node}",
                store.node_ordinals(query.under_node),
            )
        )
    if query.signature is not None:
        sources.append(
            (
                f"signature:{query.signature}",
                store.signature_ordinals(query.signature),
            )
        )
    if query.min_height is not None or query.max_height is not None:
        sources.append(
            (
                f"height:{query.min_height}..{query.max_height}",
                store.height_mask(query.min_height, query.max_height),
            )
        )
    for measure, lo, hi in (
        ("correlation", query.min_correlation, query.max_correlation),
        ("support", query.min_support, query.max_support),
    ):
        if lo is not None or hi is not None:
            sources.append(
                (f"range:{measure}", store.measure_mask(measure, lo, hi))
            )
    return sources


def _size(rows: np.ndarray) -> int:
    if rows.dtype == np.bool_:
        return int(np.count_nonzero(rows))
    return len(rows)


def _keep(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Which ``candidates`` (ascending ordinals) the source ``rows``
    holds; ``rows`` is never empty here."""
    if rows.dtype == np.bool_:
        return rows[candidates]
    slots = np.searchsorted(rows, candidates).clip(max=len(rows) - 1)
    return rows[slots] == candidates


class QueryEngine:
    """Compiles queries against the store indexes, with an LRU cache.

    Works over a live :class:`PatternStore` (each execution pins the
    then-current snapshot) or over one fixed :class:`StoreSnapshot`.
    The engine itself holds no per-generation state beyond the
    version-keyed cache, so one instance is safe to share across
    threads.
    """

    def __init__(
        self,
        store: PatternStore | StoreSnapshot,
        *,
        cache_size: int = 128,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._store = store
        self._cache_size = max(0, cache_size)
        self._cache: OrderedDict[tuple[int, Query], QueryResult] = (
            OrderedDict()
        )
        # guards the cache dict and hit/miss counters only; query
        # compilation runs outside it, so concurrent readers never
        # serialize on real work
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        registry = registry if registry is not None else default_registry()
        self.registry = registry
        self._m_cache_hits = registry.counter(catalog.CACHE_HITS)
        self._m_cache_misses = registry.counter(catalog.CACHE_MISSES)
        self._m_cache_size = registry.gauge(catalog.CACHE_SIZE)
        self._m_cache_size.set(0, cache="query")

    @property
    def store(self) -> PatternStore | StoreSnapshot:
        return self._store

    # ------------------------------------------------------------------

    def plan(
        self, query: Query, *, snapshot: StoreSnapshot | None = None
    ) -> QueryPlan:
        """The cost-ordered plan :meth:`execute` would run."""
        return self._compile(snapshot or _pin(self._store), query)[1]

    def _compile(
        self, store: StoreSnapshot, query: Query
    ) -> tuple[np.ndarray | None, QueryPlan]:
        """Matched ordinals, ascending (``None``: every pattern), and
        the plan that found them."""
        sources = [
            (_size(rows), name, rows) for name, rows in _sources(store, query)
        ]
        if not sources:
            return None, QueryPlan(())
        sources.sort(key=lambda source: source[:2])
        estimate, name, rows = sources[0]
        matched = np.flatnonzero(rows) if rows.dtype == np.bool_ else rows
        steps = [PlanStep(name, estimate, "seed")]
        for estimate, name, rows in sources[1:]:
            if not len(matched):
                break
            matched = matched[_keep(rows, matched)]
            steps.append(PlanStep(name, estimate, "intersect"))
        return matched, QueryPlan(tuple(steps))

    def execute(
        self,
        query: Query,
        *,
        expect_version: int | None = None,
        use_cache: bool = True,
        snapshot: StoreSnapshot | None = None,
    ) -> QueryResult:
        """Run ``query``; exactly :func:`linear_scan`'s answer, faster.

        The whole execution — version check, compilation, ordering,
        pagination — runs against one pinned snapshot
        (``snapshot`` if given, else the store's current generation),
        so the answer is internally consistent no matter how many
        swaps land mid-flight.
        """
        store = snapshot or _pin(self._store)
        if expect_version is not None:
            store.require_version(expect_version)
        key = (store.version, query)
        if use_cache and self._cache_size:
            with self._cache_lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
            if hit is not None:
                self._m_cache_hits.inc(cache="query")
            else:
                self._m_cache_misses.inc(cache="query")
            if hit is not None:
                return QueryResult(
                    store_version=hit.store_version,
                    query=hit.query,
                    total=hit.total,
                    ids=list(hit.ids),
                    patterns=list(hit.patterns),
                    plan=hit.plan,
                    cached=True,
                )
        matched, plan = self._compile(store, query)
        order, rank = store.order(query.sort_by, query.descending)
        stop = None if query.limit is None else query.offset + query.limit
        if matched is None:
            total, page = len(order), order[query.offset : stop]
        elif not len(matched):
            total, page = 0, matched
        else:
            total = len(matched)
            page = order[np.sort(rank[matched])[query.offset : stop]]
        result = QueryResult(
            store_version=store.version,
            query=query,
            total=total,
            ids=store.ids_at(page),
            patterns=store.patterns_at(page),
            plan=plan,
        )
        if use_cache and self._cache_size:
            # Cache a private copy: the caller owns the returned
            # lists and must not be able to corrupt later hits.
            snapshot = QueryResult(
                store_version=result.store_version,
                query=result.query,
                total=result.total,
                ids=list(result.ids),
                patterns=list(result.patterns),
                plan=result.plan,
            )
            with self._cache_lock:
                self._cache[key] = snapshot
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
                self._m_cache_size.set(len(self._cache), cache="query")
        return result

    # ------------------------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "size": len(self._cache),
                "max_size": self._cache_size,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
