"""The metric and span name catalog: one module, every name.

Metric and span names are a **stable contract**, exactly like the
``/v1`` HTTP surface: dashboards, alerts and the CI smoke jobs all
key on them, so a renamed series is a breaking change and a
typo-forked series ("reqests") is a silent observability hole.  Every
name therefore lives here — and *only* here — as a module constant
with its type, help text and label set; instrumented code imports the
constant and the FLIP007 analysis rule rejects inline string literals
at metric/span call sites anywhere else in the tree.

Naming follows the Prometheus conventions: ``repro_`` prefix,
``_total`` suffix on counters, base units (seconds, bytes) in the
name.  Label sets are deliberately small and bounded — ``route`` is a
route *template* (``/patterns/{id}``, never a concrete id), ``cache``
and ``kind`` are tiny closed enums — because every distinct label
combination is one series forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_SIZE",
    "COLUMNAR_MAPPED_BYTES",
    "COLUMNAR_SHARDS_DECODED",
    "EVENTS_DROPPED",
    "EVENTS_EMITTED",
    "HTTP_REQUESTS",
    "HTTP_REQUEST_SECONDS",
    "HTTP_SHEDS",
    "METRICS",
    "MetricSpec",
    "POOL_ADMITS",
    "POOL_EVICTIONS",
    "POOL_IMAGES_SAVED",
    "POOL_RESIDENT_BYTES",
    "RETIRED_ROWS",
    "RETIRED_SHARDS",
    "SNAPSHOT_AGE_SECONDS",
    "SNAPSHOT_PATTERNS",
    "SNAPSHOT_VERSION",
    "SPANS",
    "SPAN_CELL",
    "SPAN_COUNT",
    "SPAN_GENERATE",
    "SPAN_LABEL",
    "SPAN_MINE",
    "SPAN_PREPARE",
    "SPAN_PRUNE",
    "SPAN_RETIRE",
    "SPAN_UPDATE",
    "UPDATE_QUEUE_DEPTH",
    "UPDATES",
    "UPTIME_SECONDS",
]


@dataclass(frozen=True)
class MetricSpec:
    """Type, help text and label names of one registered series."""

    kind: str  #: ``counter`` | ``gauge`` | ``histogram``
    help: str
    labels: tuple[str, ...] = ()
    #: histogram bucket upper bounds (histograms only; ``None`` means
    #: the registry's default latency buckets)
    buckets: tuple[float, ...] | None = field(default=None)


# ---------------------------------------------------------------------------
# serving tier
# ---------------------------------------------------------------------------

#: requests answered, by route template and status code
HTTP_REQUESTS = "repro_http_requests_total"
#: request latency (dispatch to response written), by route template
HTTP_REQUEST_SECONDS = "repro_http_request_seconds"
#: updates answered 503 because the bounded update queue was full
HTTP_SHEDS = "repro_http_sheds_total"
#: delta updates successfully mined + reindexed
UPDATES = "repro_updates_total"
#: version of the currently published store snapshot
SNAPSHOT_VERSION = "repro_snapshot_version"
#: seconds since the current snapshot generation was published
SNAPSHOT_AGE_SECONDS = "repro_snapshot_age_seconds"
#: patterns in the currently published snapshot
SNAPSHOT_PATTERNS = "repro_snapshot_patterns"
#: seconds since the API instance started serving
UPTIME_SECONDS = "repro_uptime_seconds"
#: pending intents in the (asyncio) update queue
UPDATE_QUEUE_DEPTH = "repro_update_queue_depth"
#: flip lifecycle events emitted into the pattern-store ring, by type
EVENTS_EMITTED = "repro_pattern_events_total"
#: lifecycle events dropped off the bounded ring before delivery
EVENTS_DROPPED = "repro_pattern_events_dropped_total"

# ---------------------------------------------------------------------------
# windowed retirement
# ---------------------------------------------------------------------------

#: shards retired out of the sliding window
RETIRED_SHARDS = "repro_retired_shards_total"
#: transaction rows retired out of the sliding window
RETIRED_ROWS = "repro_retired_rows_total"

# ---------------------------------------------------------------------------
# caches (query-result, byte-level response)
# ---------------------------------------------------------------------------

CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_SIZE = "repro_cache_size"

# ---------------------------------------------------------------------------
# shard-backend pool
# ---------------------------------------------------------------------------

#: admits by kind: first ``build``, paid-in-full ``rebuild``,
#: zero-parse ``image``
POOL_ADMITS = "repro_pool_admits_total"
POOL_EVICTIONS = "repro_pool_evictions_total"
POOL_IMAGES_SAVED = "repro_pool_images_saved_total"
POOL_RESIDENT_BYTES = "repro_pool_resident_bytes"

# ---------------------------------------------------------------------------
# columnar I/O
# ---------------------------------------------------------------------------

#: bytes of shard/image files memory-mapped into backends
COLUMNAR_MAPPED_BYTES = "repro_columnar_mapped_bytes_total"
#: columnar shards decoded back into row tuples (full decodes)
COLUMNAR_SHARDS_DECODED = "repro_columnar_shards_decoded_total"

# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

METRICS: dict[str, MetricSpec] = {
    HTTP_REQUESTS: MetricSpec(
        "counter",
        "HTTP requests answered, by route template and status",
        ("route", "status"),
    ),
    HTTP_REQUEST_SECONDS: MetricSpec(
        "histogram",
        "HTTP request latency in seconds, by route template",
        ("route",),
    ),
    HTTP_SHEDS: MetricSpec(
        "counter",
        "updates answered 503 because the update queue was full",
    ),
    UPDATES: MetricSpec(
        "counter", "delta updates successfully mined and reindexed"
    ),
    SNAPSHOT_VERSION: MetricSpec(
        "gauge", "version of the currently published store snapshot"
    ),
    SNAPSHOT_AGE_SECONDS: MetricSpec(
        "gauge", "seconds since the current snapshot was published"
    ),
    SNAPSHOT_PATTERNS: MetricSpec(
        "gauge", "patterns in the currently published snapshot"
    ),
    UPTIME_SECONDS: MetricSpec(
        "gauge", "seconds since the API instance started serving"
    ),
    UPDATE_QUEUE_DEPTH: MetricSpec(
        "gauge", "pending intents in the bounded update queue"
    ),
    CACHE_HITS: MetricSpec("counter", "cache hits, by cache", ("cache",)),
    CACHE_MISSES: MetricSpec(
        "counter", "cache misses, by cache", ("cache",)
    ),
    CACHE_SIZE: MetricSpec(
        "gauge", "entries currently held, by cache", ("cache",)
    ),
    POOL_ADMITS: MetricSpec(
        "counter",
        "shard-backend admits, by kind (build/rebuild/image)",
        ("kind",),
    ),
    POOL_EVICTIONS: MetricSpec(
        "counter", "shard backends evicted from the residency pool"
    ),
    POOL_IMAGES_SAVED: MetricSpec(
        "counter", "backend images persisted on eviction or save"
    ),
    POOL_RESIDENT_BYTES: MetricSpec(
        "gauge", "estimated bytes of resident shard backends"
    ),
    COLUMNAR_MAPPED_BYTES: MetricSpec(
        "counter", "bytes of columnar shard/image files memory-mapped"
    ),
    COLUMNAR_SHARDS_DECODED: MetricSpec(
        "counter", "columnar shards fully decoded into row tuples"
    ),
    EVENTS_EMITTED: MetricSpec(
        "counter",
        "flip lifecycle events emitted, by type",
        ("type",),
    ),
    EVENTS_DROPPED: MetricSpec(
        "counter", "lifecycle events dropped off the bounded ring"
    ),
    RETIRED_SHARDS: MetricSpec(
        "counter", "shards retired out of the sliding window"
    ),
    RETIRED_ROWS: MetricSpec(
        "counter", "transaction rows retired out of the sliding window"
    ),
}

# ---------------------------------------------------------------------------
# span names (the tracer's vocabulary)
# ---------------------------------------------------------------------------

#: one whole mining run (the root span of ``repro mine --profile``)
SPAN_MINE = "mine"
#: per-level preparation (node supports, frequent items)
SPAN_PREPARE = "prepare"
#: one cell visit ``Q(level, k)``
SPAN_CELL = "cell"
#: the four engine stages of one cell visit
SPAN_GENERATE = "generate"
SPAN_COUNT = "count"
SPAN_LABEL = "label"
SPAN_PRUNE = "prune"
#: one incremental delta update (append + refresh + re-sweep)
SPAN_UPDATE = "update"
#: one shard-retirement pass (subtract counts + drop shard files)
SPAN_RETIRE = "retire"

SPANS: frozenset[str] = frozenset(
    {
        SPAN_MINE,
        SPAN_PREPARE,
        SPAN_CELL,
        SPAN_GENERATE,
        SPAN_COUNT,
        SPAN_LABEL,
        SPAN_PRUNE,
        SPAN_RETIRE,
        SPAN_UPDATE,
    }
)
